"""Choi-form process matrices: generalized Born rule, validity checks,
ordered/mixed/switch constructions, and a causal-separability heuristic.

Conventions, pinned repo-wide
-----------------------------
Vectorization is column-stacking with the input factor first:

    |u>> = sum_j |j> (x) u|j>        (lives on H_in (x) H_out)

so the Choi matrix of a map M is C = sum_jl |j><l| (x) M(|j><l|), the map
acts as M(rho) = tr_in[C (rho^T (x) I_out)], and a channel is
trace-preserving iff tr_out C = I_in.

A bipartite process matrix W lives on A_I (x) A_O (x) B_I (x) B_O, with an
optional trailing global-future factor F (for switch-style processes F
carries control (x) target, control first). Probabilities pair W with the
party Chois transposed and the future POVM element untransposed:

    p(o_a, o_b, k) = tr[ W ((M_a (x) M_b)^T (x) P_k) ]

Worked one-qubit example: the process "prepare rho, hand it to one party,
discard the output" is W = rho (x) I_out; a measure-and-reprepare operation
with POVM element E and repreparation sigma has Choi E^T (x) sigma, and the
pairing gives tr[(rho (x) I)(E (x) sigma^T)] = tr[rho E], as it must.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from math import prod

import numpy as np

from .bell import BehaviorTable
from .linalg import (
    SpaceLayout,
    as_matrix,
    eig_hermitian,
    frobenius,
    is_hermitian,
    is_unitary,
    ket,
    partial_trace,
    permute_factors,
    permute_vector_factors,
    tensor,
)

PROCESS_SCHEMA = "icolab/process-matrix/v1"

PARTY_LABELS = ("A_I", "A_O", "B_I", "B_O")

PSD_ATOL = 1e-9
TRACE_ATOL = 1e-8
SUBSPACE_ATOL = 1e-8
SEARCH_TOL = 1e-7  # separability search: stop when an iteration moves less (relative)
WITNESS_RTOL = 1e-12  # witness test: rounding allowance, relative to ||P_AB|| + ||P_BA||


def vec(u: np.ndarray) -> np.ndarray:
    """|u>> = sum_j |j> (x) u|j> as a flat vector on input (x) output."""
    return as_matrix(u).T.reshape(-1)


def choi_of_unitary(u: np.ndarray) -> np.ndarray:
    """Rank-1 Choi matrix |u>><<u| of a unitary channel."""
    u = as_matrix(u)
    if not is_unitary(u):
        raise ValueError("choi_of_unitary needs a unitary matrix")
    v = vec(u)
    return np.outer(v, np.conj(v))


def choi_of_kraus(ops: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Choi matrix of the CP map with the given Kraus operators."""
    vs = [vec(k) for k in ops]
    return sum(np.outer(v, np.conj(v)) for v in vs)


def identity_choi(d: int) -> np.ndarray:
    return choi_of_unitary(np.eye(d))


def depolarizing_choi(d: int, noise: float) -> np.ndarray:
    """Choi of rho -> (1-noise)*rho + noise*I/d."""
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    return (1.0 - noise) * identity_choi(d) + noise * np.eye(d * d) / d


def apply_choi(choi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply a channel given as a Choi matrix: tr_in[C (rho^T (x) I)]."""
    choi = as_matrix(choi)
    rho = as_matrix(rho)
    d_in = rho.shape[0]
    if choi.shape[0] % d_in:
        raise ValueError(
            f"Choi dimension {choi.shape[0]} is not a multiple of input dim {d_in}"
        )
    d_out = choi.shape[0] // d_in
    t = choi.reshape(d_in, d_out, d_in, d_out)
    return np.einsum("jilk,jl->ik", t, rho)


def _trace_pairing(w: np.ndarray, op: np.ndarray) -> float:
    """tr(W @ op) without forming the product."""
    val = np.sum(w * op.T)
    return float(np.real(val))


@dataclass(frozen=True)
class Instrument:
    """One party's quantum instrument: per classical input, a list of CP maps
    (one per classical outcome, Choi form on I (x) O) summing to a channel."""

    chois: tuple[tuple[np.ndarray, ...], ...]
    dim_in: int
    dim_out: int

    def __post_init__(self) -> None:
        if not self.chois or not self.chois[0]:
            raise ValueError("instrument needs at least one input and one outcome")
        n_out = len(self.chois[0])
        d = self.dim_in * self.dim_out
        frozen = []
        for per_input in self.chois:
            if len(per_input) != n_out:
                raise ValueError("every input must have the same number of outcomes")
            cs = tuple(as_matrix(c) for c in per_input)
            total = np.zeros((d, d), dtype=np.complex128)
            for c in cs:
                if c.shape != (d, d):
                    raise ValueError(f"Choi shape {c.shape} does not match dims {(d, d)}")
                if not is_hermitian(c) or eig_hermitian(c)[0][-1] < -PSD_ATOL:
                    raise ValueError("each instrument element must be a PSD Choi matrix")
                total += c
            reduced = np.trace(
                total.reshape(self.dim_in, self.dim_out, self.dim_in, self.dim_out),
                axis1=1,
                axis2=3,
            )
            if np.max(np.abs(reduced - np.eye(self.dim_in))) > 1e-9:
                raise ValueError("instrument elements must sum to a CPTP channel")
            frozen.append(cs)
        object.__setattr__(self, "chois", tuple(frozen))

    @property
    def n_inputs(self) -> int:
        return len(self.chois)

    @property
    def n_outcomes(self) -> int:
        return len(self.chois[0])

    @classmethod
    def unitary(cls, u: np.ndarray) -> "Instrument":
        """Single-input, single-outcome instrument applying a unitary."""
        u = as_matrix(u)
        return cls(((choi_of_unitary(u),),), u.shape[0], u.shape[0])

    @classmethod
    def measure_reprepare(cls, povms, states) -> "Instrument":
        """Per input x and outcome o: measure POVM element E_{x,o}, then
        reprepare the state sigma_{x,o}; Choi is E^T (x) sigma."""
        chois = []
        d_in = as_matrix(povms[0][0]).shape[0]
        d_out = as_matrix(states[0][0]).shape[0]
        for es, sigmas in zip(povms, states, strict=True):
            chois.append(
                tuple(
                    tensor(as_matrix(e).T, as_matrix(s))
                    for e, s in zip(es, sigmas, strict=True)
                )
            )
        return cls(tuple(chois), d_in, d_out)


@dataclass(frozen=True)
class ProcessMatrix:
    """A process matrix with its factor layout.

    The constructor checks only structure (layout shape, Hermiticity); the
    physical invariants — PSD, trace d_AO*d_BO, valid linear subspace — are
    audited by :func:`validate_process` and hold for every matrix built by
    this module's constructors.
    """

    matrix: np.ndarray
    layout: SpaceLayout

    def __post_init__(self) -> None:
        m = as_matrix(self.matrix)
        labs = self.layout.labels
        if labs[:4] != PARTY_LABELS or labs[4:] not in ((), ("F",)):
            raise ValueError(
                f"layout must be {PARTY_LABELS} with optional trailing 'F', got {labs}"
            )
        if m.shape != (self.layout.dim, self.layout.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match layout dimension {self.layout.dim}"
            )
        if not is_hermitian(m):
            raise ValueError("process matrix must be Hermitian")
        object.__setattr__(self, "matrix", m)

    @property
    def expected_trace(self) -> float:
        return float(self.layout.dim_of("A_O") * self.layout.dim_of("B_O"))

    def to_json_dict(self) -> dict:
        re_im = np.stack([self.matrix.real, self.matrix.imag], axis=-1)
        return {
            "schema": PROCESS_SCHEMA,
            "labels": list(self.layout.labels),
            "dims": list(self.layout.dims),
            "matrix": re_im.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProcessMatrix":
        if data.get("schema") != PROCESS_SCHEMA:
            raise ValueError(f"unsupported process schema: {data.get('schema')!r}")
        arr = np.asarray(data["matrix"], dtype=np.float64)
        m = arr[..., 0] + 1j * arr[..., 1]
        return cls(m, SpaceLayout(tuple(data["labels"]), tuple(data["dims"])))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ProcessMatrix":
        return cls.from_json_dict(json.loads(text))


def standard_layout(d: int = 2, d_f: int | None = None) -> SpaceLayout:
    """Party factors of uniform dimension d, optionally a future of dim d_f."""
    if d_f is None:
        return SpaceLayout(PARTY_LABELS, (d,) * 4)
    return SpaceLayout(PARTY_LABELS + ("F",), (d,) * 4 + (d_f,))


def _factor_basis(d: int) -> np.ndarray:
    """Real orthogonal d^2 x d^2 matrix whose row 0 is vec(I)/sqrt(d): minus
    the Householder reflection that swaps vec(I)/sqrt(d) and -e_0."""
    v = np.eye(d).reshape(-1) / np.sqrt(d)
    u = v.copy()
    u[0] += 1.0
    return 2.0 * np.outer(u, u) / (u @ u) - np.eye(d * d)


class HSBasis:
    """Product Hilbert-Schmidt basis of one layout.

    Each factor k carries a real orthonormal basis of its d_k x d_k entries
    whose element 0 is I/sqrt(d_k); the product basis acts on the real and
    imaginary parts of a matrix alike, so it is orthogonal and Frobenius
    norms agree in both forms. Resetting factor k (trace it out, put back
    I/d_k) keeps exactly the coefficients with index 0 on k, so every
    projector built from resets is a 0/1 mask on the coefficients
    (Oreshkov, Costa and Brukner 2012; Araujo et al. 2015).

    Coefficients are a real array of shape (2, n_left, n_right): real and
    imaginary part, then the factors grouped into two Kronecker blocks of
    balanced size, so a change of basis is one interleaving transpose and
    one two-sided matmul. Use :func:`hs_basis` for the cached instance.
    """

    def __init__(self, layout: SpaceLayout) -> None:
        dims = layout.dims
        n = len(dims)
        split = min(range(n + 1), key=lambda k: abs(prod(dims[:k]) - prod(dims[k:])))
        self.layout = layout
        self._blocks = (prod(dims[:split]), prod(dims[split:]))
        self.shape = (self._blocks[0] ** 2, self._blocks[1] ** 2)
        self._left = _block_basis(dims[:split])
        self._right = _block_basis(dims[split:])
        self._grid = tuple(d * d for d in dims)

    def to_coef(self, m: np.ndarray) -> np.ndarray:
        """Coefficients of a complex128 matrix on the layout."""
        dl, dr = self._blocks
        t = np.ascontiguousarray(m).view(np.float64).reshape(dl, dr, dl, dr, 2)
        t = t.transpose(4, 0, 2, 1, 3).reshape((2,) + self.shape)
        return self._left @ t @ self._right.T

    def to_mat(self, c: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_coef`."""
        dl, dr = self._blocks
        t = (self._left.T @ c @ self._right).reshape(2, dl, dl, dr, dr)
        t = np.ascontiguousarray(t.transpose(1, 3, 2, 4, 0))
        return t.view(np.complex128).reshape(self.layout.dim, self.layout.dim)

    def mask(self, labels: tuple[str, ...]) -> np.ndarray:
        """0/1 mask of the reset of ``labels``: 1 where every reset factor
        has index 0."""
        keep = np.ones(self._grid)
        for lab in labels:
            keep[(slice(None),) * self.layout.index(lab) + (slice(1, None),)] = 0.0
        return keep.reshape(self.shape)

    def project(self, w: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Apply the projector with the given mask to a matrix."""
        m = as_matrix(w)
        if m.shape != (self.layout.dim, self.layout.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match layout dim {self.layout.dim}"
            )
        return self.to_mat(mask * self.to_coef(m))


def _block_basis(dims: tuple[int, ...]) -> np.ndarray:
    """Kronecker product of the factor bases of one block, with its columns
    reordered from per-factor (row, column) pairs to (all rows, all columns)
    so that it acts on the block's matrix entries directly."""
    out = np.ones((1, 1))
    for d in dims:
        out = np.kron(out, _factor_basis(d))
    n = len(dims)
    pairs = out.reshape((-1,) + tuple(np.repeat(dims, 2)))
    rows_then_cols = (0,) + tuple(range(1, 2 * n, 2)) + tuple(range(2, 2 * n + 1, 2))
    return pairs.transpose(rows_then_cols).reshape(out.shape)


@lru_cache(maxsize=32)
def hs_basis(layout: SpaceLayout) -> HSBasis:
    """The cached :class:`HSBasis` of a layout."""
    return HSBasis(layout)


@lru_cache(maxsize=32)
def _validity_mask(layout: SpaceLayout) -> np.ndarray:
    # inclusion-exclusion over the trace-out conditions, one reset per factor
    m = hs_basis(layout).mask
    ai, ao, bi, bo = (m((lab,)) for lab in PARTY_LABELS)
    out = ao + bo - ao * bo - bi * bo + ao * bi * bo - ai * ao + ai * ao * bo
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _order_mask(layout: SpaceLayout, order: str) -> np.ndarray:
    if order == "AB":
        first_o, second_i, second_o = "A_O", "B_I", "B_O"
    elif order == "BA":
        first_o, second_i, second_o = "B_O", "A_I", "A_O"
    else:
        raise ValueError(f"order must be 'AB' or 'BA', got {order!r}")
    m = hs_basis(layout).mask
    fo, si, so = m((first_o,)), m((second_i,)), m((second_o,))
    if "F" in layout.labels:
        # P = id - R_F(id - R_so) - R_F R_so R_si (id - R_fo)
        f = m(("F",))
        out = 1.0 - f * (1.0 - so) - f * so * si * (1.0 - fo)
    else:
        # P = R_so [id - R_si (id - R_fo)]
        out = so * (1.0 - si * (1.0 - fo))
    out.flags.writeable = False
    return out


def validity_projection(w: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Orthogonal projection onto the linear subspace of valid bipartite
    process matrices (no future factor).

    The subspace is characterized by normalization on every pair of CPTP
    instruments; expanding instruments around the depolarizing point turns
    that into linear trace-out conditions, whose projector is an inclusion-
    exclusion combination of resets, applied as a mask in :class:`HSBasis`.
    """
    if layout.labels != PARTY_LABELS:
        raise ValueError(f"expected exactly the party factors, got {layout.labels}")
    return hs_basis(layout).project(w, _validity_mask(layout))


@dataclass(frozen=True)
class ValidityReport:
    """Raw margins from validate_process plus the verdict at tolerance."""

    psd_margin: float
    trace_error: float
    subspace_residual: float
    verdict: str

    @property
    def is_valid(self) -> bool:
        return self.verdict == "valid"

    def to_json_dict(self) -> dict:
        return {
            "psd_margin": self.psd_margin,
            "trace_error": self.trace_error,
            "subspace_residual": self.subspace_residual,
            "verdict": self.verdict,
        }


def validate_process(w: ProcessMatrix) -> ValidityReport:
    """Check PSD, normalization, and valid-subspace membership.

    With a future factor, positivity and trace are checked on the full
    matrix while the subspace condition applies to tr_F[W] (a process is
    valid exactly when discarding the future leaves a valid bipartite
    process); the residual is scaled by sqrt(d_F) to stay comparable.
    """
    m, lay = w.matrix, w.layout
    if not is_hermitian(m):
        return ValidityReport(-np.inf, np.inf, np.inf, "invalid")
    eigvals, _ = eig_hermitian(m)
    psd_margin = float(eigvals[-1])
    expected = lay.dim_of("A_O") * lay.dim_of("B_O")
    trace_error = float(np.real(np.trace(m)) - expected)
    if "F" in lay.labels:
        reduced = partial_trace(m, lay, PARTY_LABELS)
        sub_layout = lay.subset(PARTY_LABELS)
        scale = np.sqrt(lay.dim_of("F"))
    else:
        reduced, sub_layout, scale = m, lay, 1.0
    residual = frobenius(validity_projection(reduced, sub_layout) - reduced) / scale
    ok = psd_margin >= -PSD_ATOL and abs(trace_error) <= TRACE_ATOL and residual <= SUBSPACE_ATOL
    return ValidityReport(psd_margin, trace_error, float(residual), "valid" if ok else "invalid")


def ordered_process(
    pre: np.ndarray,
    mid_choi: np.ndarray,
    order: str = "AB",
    post: str = "discard",
) -> ProcessMatrix:
    """Definite-order process: prepare ``pre``, hand it to the first party,
    pipe its output through the CPTP channel ``mid_choi`` into the second
    party, then either discard the second output or route it to a future
    factor (post = "discard" | "future")."""
    rho = as_matrix(pre)
    c_mid = as_matrix(mid_choi)
    d1 = rho.shape[0]
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise ValueError("pre must be a normalized density operator")
    if c_mid.shape[0] % d1:
        raise ValueError(
            f"mid channel dim {c_mid.shape[0]} incompatible with first output dim {d1}"
        )
    d2 = c_mid.shape[0] // d1
    reduced = np.trace(c_mid.reshape(d1, d2, d1, d2), axis1=1, axis2=3)
    if np.max(np.abs(reduced - np.eye(d1))) > 1e-9:
        raise ValueError("mid_choi must be trace-preserving")
    if post == "discard":
        tail, tail_labels, tail_dims = np.eye(d2), (), ()
    elif post == "future":
        tail, tail_labels, tail_dims = identity_choi(d2), ("F",), (d2,)
    else:
        raise ValueError(f"post must be 'discard' or 'future', got {post!r}")
    m = tensor(rho, c_mid, tail)
    if order == "AB":
        built = SpaceLayout(
            ("A_I", "A_O", "B_I", "B_O") + tail_labels, (d1, d1, d2, d2) + tail_dims
        )
    elif order == "BA":
        built = SpaceLayout(
            ("B_I", "B_O", "A_I", "A_O") + tail_labels, (d1, d1, d2, d2) + tail_dims
        )
    else:
        raise ValueError(f"order must be 'AB' or 'BA', got {order!r}")
    target = PARTY_LABELS + tail_labels
    m, layout = permute_factors(m, built, target)
    return ProcessMatrix(m, layout)


def mix(w1: ProcessMatrix, w2: ProcessMatrix, q: float) -> ProcessMatrix:
    """Convex mixture q*w1 + (1-q)*w2 of processes on the same layout."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"mixing weight must be in [0, 1], got {q}")
    if w1.layout != w2.layout:
        raise ValueError("mixed processes must share a layout")
    return ProcessMatrix(q * w1.matrix + (1.0 - q) * w2.matrix, w1.layout)


def quantum_switch_process(
    control_amplitudes: tuple[complex, complex] = (1 / np.sqrt(2), 1 / np.sqrt(2)),
    target_dim: int = 2,
    *,
    v0: np.ndarray | None = None,
    v1: np.ndarray | None = None,
    psi_t0: np.ndarray | None = None,
) -> ProcessMatrix:
    """Process matrix of the quantum switch.

    The control routes the target through the two parties in either order
    (amplitude alpha for A-then-B, beta for B-then-A), with fixed unitaries
    v0/v1 between the parties in the respective branch; control and final
    target exit together into the global future factor F (control first).
    The result is rank one: W = |w><w| with

        |w^AB> = |psi>_{A_I} |v0>>_{A_O B_I} |I>>_{B_O F_t} |0>_{F_c}

    and |w^BA> its order-swapped mirror tagged |1>_{F_c}.
    """
    d = target_dim
    alpha, beta = complex(control_amplitudes[0]), complex(control_amplitudes[1])
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise ValueError("control amplitudes must be normalized")
    v0 = np.eye(d) if v0 is None else as_matrix(v0)
    v1 = np.eye(d) if v1 is None else as_matrix(v1)
    if not (is_unitary(v0) and is_unitary(v1)):
        raise ValueError("v0 and v1 must be unitary")
    psi = ket(0, d) if psi_t0 is None else np.asarray(psi_t0, dtype=np.complex128).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("psi_t0 must be a unit vector")

    dims6 = (d, d, d, d, d, 2)
    final = ("A_I", "A_O", "B_I", "B_O", "F_c", "F_t")
    w_ab = tensor(psi, vec(v0), vec(np.eye(d)), ket(0))
    lay_ab = SpaceLayout(("A_I", "A_O", "B_I", "B_O", "F_t", "F_c"), dims6)
    w_ab, _ = permute_vector_factors(w_ab, lay_ab, final)
    w_ba = tensor(psi, vec(v1), vec(np.eye(d)), ket(1))
    lay_ba = SpaceLayout(("B_I", "B_O", "A_I", "A_O", "F_t", "F_c"), dims6)
    w_ba, _ = permute_vector_factors(w_ba, lay_ba, final)
    w_vec = alpha * w_ab + beta * w_ba
    layout = SpaceLayout(PARTY_LABELS + ("F",), (d, d, d, d, 2 * d))
    return ProcessMatrix(np.outer(w_vec, np.conj(w_vec)), layout)


def born_probabilities(w: ProcessMatrix, a: Instrument, b: Instrument) -> BehaviorTable:
    """Outcome statistics p(o_a, o_b | i_a, i_b) of two instruments on a
    process; a future factor, if present, is discarded (traced out)."""
    m, lay = w.matrix, w.layout
    if "F" in lay.labels:
        m = partial_trace(m, lay, PARTY_LABELS)
        lay = lay.subset(PARTY_LABELS)
    _check_party_dims(lay, a, b)
    probs = np.empty((a.n_inputs, b.n_inputs, a.n_outcomes, b.n_outcomes))
    for ia, per_a in enumerate(a.chois):
        for ib, per_b in enumerate(b.chois):
            for oa, ca in enumerate(per_a):
                for ob, cb in enumerate(per_b):
                    # tr[W (Ma (x) Mb)^T] = elementwise sum of W * (Ma (x) Mb)
                    probs[ia, ib, oa, ob] = float(np.real(np.sum(m * tensor(ca, cb))))
    return BehaviorTable(np.clip(probs, 0.0, 1.0))


def born_probabilities_with_future(
    w: ProcessMatrix,
    a: Instrument,
    b: Instrument,
    future_povm: list[np.ndarray] | tuple[np.ndarray, ...],
) -> np.ndarray:
    """Joint statistics p(o_a, o_b, k | i_a, i_b) including a POVM on the
    future factor, indexed [i_a, i_b, o_a, o_b, k]."""
    m, lay = w.matrix, w.layout
    if "F" not in lay.labels:
        raise ValueError("process has no future factor to measure")
    _check_party_dims(lay, a, b)
    d_f = lay.dim_of("F")
    povm = [as_matrix(p) for p in future_povm]
    total = sum(povm)
    if np.max(np.abs(total - np.eye(d_f))) > 1e-9:
        raise ValueError("future POVM does not sum to identity")
    probs = np.empty((a.n_inputs, b.n_inputs, a.n_outcomes, b.n_outcomes, len(povm)))
    for ia, per_a in enumerate(a.chois):
        for ib, per_b in enumerate(b.chois):
            for oa, ca in enumerate(per_a):
                for ob, cb in enumerate(per_b):
                    parties = tensor(ca, cb).T
                    for k, pk in enumerate(povm):
                        op = tensor(parties, pk)
                        probs[ia, ib, oa, ob, k] = _trace_pairing(m, op)
    return np.clip(probs, 0.0, 1.0)


def _check_party_dims(lay: SpaceLayout, a: Instrument, b: Instrument) -> None:
    expected = (
        ("A_I", a.dim_in), ("A_O", a.dim_out), ("B_I", b.dim_in), ("B_O", b.dim_out)
    )
    for lab, d in expected:
        if lay.dim_of(lab) != d:
            raise ValueError(
                f"instrument dimension {d} does not match process factor {lab}"
                f" of dimension {lay.dim_of(lab)}"
            )


def witness_value(w: ProcessMatrix, s: np.ndarray) -> float:
    """tr(S W) for a Hermitian witness S on the process's space."""
    m = w.matrix
    s = as_matrix(s)
    if s.shape != m.shape:
        raise ValueError(f"witness shape {s.shape} does not match process {m.shape}")
    if not is_hermitian(s):
        raise ValueError("witness must be Hermitian")
    return float(np.real(np.trace(s @ m)))


# --- causal-order subspaces and the separability heuristic ---------------

def order_projection(w: np.ndarray, layout: SpaceLayout, order: str) -> np.ndarray:
    """Orthogonal projection onto the subspace of processes compatible with
    one fixed causal order ("AB" for A before B).

    The conditions are the usual ones for a channel with memory: discarding
    everything after a party's output leaves that output maximally mixed
    and uncorrelated. With a future factor the chain is first-party,
    second-party, future; without it the second output itself terminates
    the chain. The projector is a mask in :class:`HSBasis`.
    """
    return hs_basis(layout).project(w, _order_mask(layout, order))


def _psd_clip(m: np.ndarray) -> np.ndarray:
    """Positive part of a Hermitian matrix. The search clips twice per
    iteration, always a matrix that is finite and Hermitian by construction,
    so this skips eig_hermitian's input checks. It keeps eig_hermitian's
    descending order, and with it the summation order of the product."""
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    vecs = vecs[:, order]
    return (vecs * np.clip(vals[order], 0.0, None)) @ np.conj(vecs).T


def neutral_process(layout: SpaceLayout) -> ProcessMatrix:
    """Maximally mixed valid process on the layout (in every order subspace);
    used as the padding component when a decomposition weight hits 0 or 1."""
    expected = layout.dim_of("A_O") * layout.dim_of("B_O")
    return ProcessMatrix(np.eye(layout.dim) * (expected / layout.dim), layout)


@dataclass(frozen=True)
class SeparabilityReport:
    """Outcome of a separability check, with one of three verdicts.

    - ``separable``: ``certificate`` holds a decomposition (q, W_AB, W_BA)
      that passed :func:`certify_decomposition`.
    - ``nonseparable``: ``witness`` holds (S, P_AB, P_BA), a causal
      nonseparability witness that passed the witness test of
      :func:`separability_heuristic`; ``witness_value`` is tr(S W)/||S||.
    - ``inconclusive``: the search stalled or hit its iteration cap with
      neither certificate.

    With a decomposition, ``residual`` is the relative Frobenius distance of
    the claimed mixture from the input (at least the search's terminal
    infeasibility when the search found it); otherwise it is the terminal
    infeasibility of the alternating projection. ``iterations`` is 0 for a
    decomposition certified without a search."""

    certificate: tuple[float, ProcessMatrix, ProcessMatrix] | None
    residual: float
    iterations: int
    witness: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    witness_value: float | None = None

    @property
    def separable(self) -> bool:
        return self.certificate is not None

    @property
    def verdict(self) -> str:
        if self.certificate is not None:
            return "separable"
        return "inconclusive" if self.witness is None else "nonseparable"

    def to_json_dict(self) -> dict:
        out = {
            "separable": self.separable,
            "verdict": self.verdict,
            "residual": self.residual,
            "iterations": self.iterations,
        }
        if self.certificate is not None:
            out["q"] = self.certificate[0]
        if self.witness is not None:
            out["witness_value"] = self.witness_value
        return out


def certify_decomposition(
    w: ProcessMatrix, q: float, w_ab: ProcessMatrix, w_ba: ProcessMatrix
) -> SeparabilityReport | None:
    """Re-validate a claimed decomposition W = q W_AB + (1-q) W_BA from
    scratch, whatever proposed it: each part must pass validate_process and
    lie in its order subspace, and the mixture must reproduce W. Returns the
    certificate, with ``iterations`` 0 and ``residual`` the relative
    reconstruction error, or None."""
    m, lay = w.matrix, w.layout
    if not 0.0 <= q <= 1.0 or w_ab.layout != lay or w_ba.layout != lay:
        return None
    for part, order in ((w_ab, "AB"), (w_ba, "BA")):
        if not validate_process(part).is_valid:
            return None
        mat = part.matrix
        if frobenius(order_projection(mat, lay, order) - mat) > 1e-9 * max(1.0, frobenius(mat)):
            return None
    recon = frobenius(q * w_ab.matrix + (1 - q) * w_ba.matrix - m) / max(1.0, frobenius(m))
    # The search's in-subspace eigenvalue lift can inflate the reconstruction
    # error by a factor of order sqrt(dim) over its terminal infeasibility,
    # so the gate carries that factor.
    if recon > 10 * SEARCH_TOL * (1.0 + 2.0 * np.sqrt(lay.dim)):
        return None
    return SeparabilityReport((q, w_ab, w_ba), float(recon), 0)


def _certificate_components(
    x: np.ndarray, y: np.ndarray, layout: SpaceLayout
) -> tuple[float, ProcessMatrix, ProcessMatrix] | None:
    """Candidate decomposition from the search's terminal pair: q from the
    trace of x, each part put back into its order subspace, lifted to PSD and
    renormalized. :func:`certify_decomposition` decides whether it holds."""
    expected = layout.dim_of("A_O") * layout.dim_of("B_O")
    q = float(np.real(np.trace(x)) / expected)
    q = min(max(q, 0.0), 1.0)
    parts: list[ProcessMatrix] = []
    for comp, weight, order in ((x, q, "AB"), (y, 1.0 - q, "BA")):
        if weight < 1e-6:
            parts.append(neutral_process(layout))
            continue
        # Restore positivity inside the order subspace: the identity lies in
        # every order subspace, so an eigenvalue lift preserves exact comb
        # membership where an eigenvalue clip would not.
        mat = order_projection(comp / weight, layout, order)
        mat = 0.5 * (mat + np.conj(mat).T)
        vals, _ = eig_hermitian(mat)
        lift = -float(vals[-1])
        if lift > 0.0:
            mat = mat + (lift + 1e-14 * max(1.0, float(vals[0]))) * np.eye(layout.dim)
        tr = float(np.real(np.trace(mat)))
        if tr <= 0:
            return None
        mat *= expected / tr
        parts.append(ProcessMatrix(mat, layout))
    return q, parts[0], parts[1]


def _certify_witness(
    w: ProcessMatrix, s: np.ndarray, p_ab: np.ndarray, p_ba: np.ndarray
) -> float | None:
    """Check a causal nonseparability witness (Araujo et al., "Witnessing
    causal nonseparability", NJP 17, 102001, 2015) on its matrices alone.

    For each order X, write S = P_X + R_X + Q_X with R_X the part of S - P_X
    inside order X's subspace and Q_X orthogonal to it. With eps_X the
    negative part of lambda_min(P_X) plus ||R_X||, every separable
    W' = X' + Y' (trace d_O, each part PSD in its subspace, so ||X'|| <=
    tr X') has tr(S W') >= -max(eps_AB, eps_BA) d_O. The witness certifies
    when tr(S W) lies below that bound by more than a rounding allowance.
    Returns tr(S W)/||S|| or None."""
    lay = w.layout
    eps = 0.0
    for p, order in ((p_ab, "AB"), (p_ba, "BA")):
        inside = frobenius(order_projection(s - p, lay, order))
        eps = max(eps, max(0.0, -float(np.linalg.eigvalsh(p)[0])) + inside)
    slack = WITNESS_RTOL * (frobenius(p_ab) + frobenius(p_ba))
    value = witness_value(w, s)
    if value < -(eps + slack) * w.expected_trace:
        return value / frobenius(s)
    return None


def _order_split(
    w: np.ndarray, x: np.ndarray, y: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projection of (x, y) onto {X in AB, Y in BA, X + Y = W},
    all in :class:`HSBasis` coefficients with a, b the AB and BA masks.

    The correction is (P_A + P_B)^+ applied to the defect. The two masks
    commute, so P_A + P_B is diagonal with entries 0, 1 or 2 and its
    pseudo-inverse is exactly a + b - 1.5 a b."""
    lam = (a + b - 1.5 * a * b) * (w - a * x - b * y)
    return a * (x + lam), b * (y + lam)


def separability_heuristic(w: ProcessMatrix, iters: int = 2000) -> SeparabilityReport:
    """Search for a decomposition W = q W_AB + (1-q) W_BA with each part a
    valid process compatible with the corresponding order, or for a witness
    that none exists; stop at the first certificate of either kind.

    Alternating projection between the PSD cone (componentwise) and the
    affine set {X in AB-subspace, Y in BA-subspace, X + Y = W}. The iterates
    live in :class:`HSBasis` coefficients, where the affine step is
    elementwise; only the PSD clip works on matrices.

    Every clip of an affine point (xa, ya) to (x, y) leaves PSD gaps
    dx = x - xa and dy = y - ya. They give a witness S = where(a, dx,
    where(b, dy, 0)) that agrees with P_AB = dx on the AB subspace and with
    P_BA = where(a b, dx, dy) on the BA subspace. Each iteration tests it
    cheaply: tr(S W) is two dot products in coefficients, dx is PSD and
    Weyl's inequality bounds the negative part of lambda_min(P_BA) by
    ||(dx - dy) a b||. Only when that passes is the witness rebuilt as
    matrices and checked by :func:`_certify_witness`.

    When the iteration converges with a small enough infeasibility, the
    terminal pair is turned into a candidate decomposition and re-validated
    by :func:`certify_decomposition` before a certificate is claimed.
    """
    m, lay = w.matrix, w.layout
    report = validate_process(w)
    if not report.is_valid:
        raise ValueError(f"input is not a valid process: {report}")
    scale = max(1.0, frobenius(m))
    d_o = w.expected_trace
    basis = hs_basis(lay)
    a, b = _order_mask(lay, "AB"), _order_mask(lay, "BA")
    both = a * b
    cw = basis.to_coef(m)
    # tr(S W) = <dx, a cw> + <dy, (1 - a) b cw>
    cw_a, cw_b = (a * cw).ravel(), ((1.0 - a) * b * cw).ravel()

    def clip(c: np.ndarray) -> np.ndarray:
        return basis.to_coef(_psd_clip(basis.to_mat(c)))

    x = y = cw / 2.0
    used, witness, value = 0, None, None
    for it in range(1, iters + 1):
        used = it
        xa, ya = _order_split(cw, x, y, a, b)
        x_new, y_new = clip(xa), clip(ya)
        # the basis is orthogonal: coefficient norms are Frobenius norms
        delta = np.linalg.norm(x_new - x) + np.linalg.norm(y_new - y)
        x, y = x_new, y_new
        dx, dy = x - xa, y - ya
        trace_sw = dx.ravel() @ cw_a + dy.ravel() @ cw_b
        if trace_sw < 0.0 and trace_sw < -np.linalg.norm(both * (dx - dy)) * d_o:
            s, p_ab, p_ba = (
                basis.to_mat(c)
                for c in (np.where(a, dx, np.where(b, dy, 0.0)), dx, np.where(both, dx, dy))
            )
            value = _certify_witness(w, s, p_ab, p_ba)
            if value is not None:
                witness = (s, p_ab, p_ba)
                break
        if delta < SEARCH_TOL * scale:
            break
    xf, yf = (basis.to_mat(c) for c in _order_split(cw, x, y, a, b))
    neg = max(
        0.0,
        -float(eig_hermitian(xf)[0][-1]),
        -float(eig_hermitian(yf)[0][-1]),
    )
    sum_res = frobenius(xf + yf - m)
    residual = float(max(neg, sum_res) / scale)
    if witness is not None:
        return SeparabilityReport(None, residual, used, witness, value)
    if residual <= 10 * SEARCH_TOL:
        candidate = _certificate_components(xf, yf, lay)
        cert = None if candidate is None else certify_decomposition(w, *candidate)
        if cert is not None:
            return replace(cert, residual=max(residual, cert.residual), iterations=used)
    return SeparabilityReport(None, residual, used)
