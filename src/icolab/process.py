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

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import prod

import numpy as np

from .bell import BehaviorTable
from .linalg import (
    SpaceLayout,
    _is_hermitian,
    as_matrix,
    eig_hermitian,
    frobenius,
    is_hermitian,
    is_psd,
    is_unitary,
    ket,
    permute_factors,
    permute_vector_factors,
    tensor,
)

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

    The constructor checks only structure (layout shape, finite Hermitian
    entries) and keeps a read-only copy of the matrix, so both hold for the
    instance's lifetime. The physical invariants — PSD, trace d_AO*d_BO,
    valid linear subspace — are audited once per instance by
    :func:`validate_process` and hold for every matrix built by this
    module's constructors.
    """

    matrix: np.ndarray
    layout: SpaceLayout

    def __post_init__(self) -> None:
        m = as_matrix(np.array(self.matrix, dtype=np.complex128))
        labs = self.layout.labels
        if labs[:4] != PARTY_LABELS or labs[4:] not in ((), ("F",)):
            raise ValueError(
                f"layout must be {PARTY_LABELS} with optional trailing 'F', got {labs}"
            )
        if m.shape != (self.layout.dim, self.layout.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match layout dimension {self.layout.dim}"
            )
        if not _is_hermitian(m):
            raise ValueError("process matrix must be Hermitian")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @cached_property
    def _validity(self) -> "ValidityReport":
        """What :func:`validate_process` returns, computed on first use."""
        return _validity_report(self)

    @cached_property
    def _coef(self) -> np.ndarray:
        """The read-only :class:`HSBasis` coefficients that validity, the
        search and the certificate check share: one float64 part for a real
        matrix, two otherwise."""
        m = self.matrix
        coef = hs_basis(self.layout).to_coef(m.real if not m.imag.any() else m)
        coef.flags.writeable = False
        return coef

    @property
    def expected_trace(self) -> float:
        return float(self.layout.dim_of("A_O") * self.layout.dim_of("B_O"))


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

    Coefficients are a real array of shape (parts, n_left, n_right): a parts
    axis, then the factors grouped into two Kronecker blocks of balanced
    size, so a change of basis is one interleaving transpose and one
    two-sided matmul. The parts axis holds the real and imaginary part of a
    complex matrix (length 2) or the entries of a real one (length 1); masks
    broadcast over it, and both lengths give the same real-part
    coefficients. Use :func:`hs_basis` for the cached instance.
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
        """Coefficients of a complex128 matrix (two parts) or a float64 one
        (one part) on the layout; a stack's own axes stay before the parts."""
        (dl, dr), lead = self._blocks, m.shape[:-2]
        t = np.ascontiguousarray(m).view(np.float64).reshape(lead + (dl, dr, dl, dr, -1))
        t = t.transpose(*range(len(lead)), -1, -5, -3, -4, -2).reshape(lead + (-1,) + self.shape)
        return self._left @ t @ self._right.T

    def to_mat(self, c: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_coef`: complex128 from two parts, float64
        from one."""
        (dl, dr), lead, parts = self._blocks, c.shape[:-3], c.shape[-3]
        t = (self._left.T @ c @ self._right).reshape(lead + (parts, dl, dl, dr, dr))
        t = np.ascontiguousarray(t.transpose(*range(len(lead)), -4, -2, -3, -1, -5))
        dtype = np.complex128 if parts == 2 else np.float64
        return t.view(dtype).reshape(lead + (self.layout.dim,) * 2)

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


def _order_chain(order: str) -> tuple[str, ...]:
    """The party factors in time order: first party's input and output, then the second's."""
    if order not in ("AB", "BA"):
        raise ValueError(f"order must be 'AB' or 'BA', got {order!r}")
    return PARTY_LABELS if order == "AB" else PARTY_LABELS[2:] + PARTY_LABELS[:2]


@lru_cache(maxsize=64)
def _order_mask(layout: SpaceLayout, order: str) -> np.ndarray:
    """0/1 mask of the processes of one causal order: along the order's chain
    (first party's input and output, then the second's, then F when the
    layout has one), discarding what comes after an output leaves that output
    free (Chiribella, D'Ariano and Perinotti, PRA 80, 022339, 2009). So a
    product-basis term is kept when the last factor of the chain it acts on
    nontrivially is an input or F, or when it is the identity."""
    chain = _order_chain(order) + layout.labels[4:]
    m = hs_basis(layout).mask
    out = m(chain)
    for k, lab in enumerate(chain):
        if not lab.endswith("_O"):
            # the terms whose last nontrivial factor is lab
            out = out + (1.0 - m((lab,))) * m(chain[k + 1 :])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _validity_mask(layout: SpaceLayout) -> np.ndarray:
    """0/1 mask of the span of the two order subspaces: the valid processes
    (Araujo et al., NJP 17, 102001, 2015). With F it keeps every term that
    acts on F, so it checks exactly that tr_F W is valid."""
    a, b = _order_mask(layout, "AB"), _order_mask(layout, "BA")
    out = a + b - a * b
    out.flags.writeable = False
    return out


def validity_projection(w: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Orthogonal projection onto the linear subspace of valid bipartite
    process matrices (no future factor).

    The subspace is characterized by normalization on every pair of CPTP
    instruments, and it is spanned by the two order subspaces, so its
    projector is the union of the two order masks in :class:`HSBasis`.
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
    """Check PSD, normalization, and valid-subspace membership, once per
    process: a later call returns the same report.

    The subspace residual is the distance from W to the span of the two
    order subspaces, AB and BA, measured outside their union. With a future
    factor, positivity and trace are checked on the full matrix, and every
    term that acts on F lies in the union, so the residual checks that
    tr_F[W] is valid (a process is valid exactly when discarding the future
    leaves a valid bipartite process).
    """
    return w._validity


def _validity_report(w: ProcessMatrix) -> ValidityReport:
    """The checks of :func:`validate_process` on W's matrix and coefficients."""
    m, lay, coef = w.matrix, w.layout, w._coef
    # a real matrix has one coefficient part; its eigenvalues are computed in float64
    psd_margin = float(np.linalg.eigvalsh(m.real if len(coef) == 1 else m)[0])
    expected = lay.dim_of("A_O") * lay.dim_of("B_O")
    trace_error = float(np.real(np.trace(m)) - expected)
    # the basis is orthogonal: the distance is the norm of the masked-out coefficients
    outside = (1.0 - _validity_mask(lay)) * coef
    residual = float(np.linalg.norm(outside))
    ok = psd_margin >= -PSD_ATOL and abs(trace_error) <= TRACE_ATOL and residual <= SUBSPACE_ATOL
    return ValidityReport(psd_margin, trace_error, residual, "valid" if ok else "invalid")


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
    built = SpaceLayout(_order_chain(order) + tail_labels, (d1, d1, d2, d2) + tail_dims)
    return ProcessMatrix(*permute_factors(m, built, PARTY_LABELS + tail_labels))


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
    w_vec = alpha * switch_branch_vector("AB", psi, v0) + beta * switch_branch_vector("BA", psi, v1)
    return ProcessMatrix(np.outer(w_vec, np.conj(w_vec)), standard_layout(d, 2 * d))


def switch_branch_vector(order: str, psi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|w^AB> (order "AB") or |w^BA> ("BA") of :func:`quantum_switch_process`
    on its layout, for target input ``psi`` and free evolution ``v``
    between the parties; neither is checked."""
    first, d = _order_chain(order), len(psi)
    w = tensor(psi, vec(v), vec(np.eye(d)), ket(("AB", "BA").index(order)))
    lay = SpaceLayout(first + ("F_t", "F_c"), (d, d, d, d, d, 2))
    return permute_vector_factors(w, lay, PARTY_LABELS + ("F_c", "F_t"))[0]


def born_probabilities(w: ProcessMatrix, a: Instrument, b: Instrument) -> BehaviorTable:
    """Outcome statistics p(o_a, o_b | i_a, i_b) of two instruments on a
    process; a future factor, if present, is discarded (traced out)."""
    d_f = w.layout.dim_of("F") if "F" in w.layout.labels else 1
    return BehaviorTable(_born_table(w.matrix, w.layout, a, b, np.eye(d_f)[None])[..., 0])


def born_probabilities_with_future(
    w: ProcessMatrix,
    a: Instrument,
    b: Instrument,
    future_povm: list[np.ndarray] | tuple[np.ndarray, ...],
) -> np.ndarray:
    """Joint statistics p(o_a, o_b, k | i_a, i_b) including a POVM on the
    future factor, indexed [i_a, i_b, o_a, o_b, k]."""
    lay = w.layout
    if "F" not in lay.labels:
        raise ValueError("process has no future factor to measure")
    d_f = lay.dim_of("F")
    povm = np.array([as_matrix(p) for p in future_povm])
    if povm.shape[1:] != (d_f, d_f) or np.max(np.abs(povm.sum(axis=0) - np.eye(d_f))) > 1e-9:
        raise ValueError("future POVM does not sum to identity")
    if not all(is_psd(p, PSD_ATOL) for p in povm):
        raise ValueError("each future POVM element must be positive semidefinite")
    return _born_table(w.matrix, lay, a, b, povm)


def _born_table(
    m: np.ndarray, lay: SpaceLayout, a: Instrument, b: Instrument, povm: np.ndarray
) -> np.ndarray:
    """tr[W ((M_a (x) M_b)^T (x) P_k)] for every cell in one contraction,
    indexed [i_a, i_b, o_a, o_b, k] and clipped to [0, 1]; ``povm`` stacks
    the P_k on F, a single 1x1 identity when W has no future factor."""
    _check_party_dims(lay, a, b)
    d_a, d_b, d_f = a.dim_in * a.dim_out, b.dim_in * b.dim_out, povm.shape[-1]
    # with W indexed [a b f, a' b' f'], the pairing is
    # sum W[a b f, a' b' f'] M_a[a, a'] M_b[b, b'] P_k[f', f]
    t = m.reshape(d_a, d_b, d_f, d_a, d_b, d_f)
    probs = np.einsum(
        "abfxyg,ioax,jpby,kgf->ijopk",
        t, np.array(a.chois), np.array(b.chois), povm, optimize=True,
    )
    return np.clip(probs.real, 0.0, 1.0)


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


def charge_sectors(w: ProcessMatrix) -> tuple[np.ndarray, ...]:
    """Basis-state sectors that every matrix sharing W's phase symmetry is
    block-diagonal over. They depend only on the layout and on which
    entries of W are nonzero, so processes that share both share one tuple
    of read-only arrays.

    The phase symmetry of W is the group of products of diagonal phase
    unitaries, one per factor, that leave W unchanged. Such a conjugation
    commutes with every reset and with the PSD clip, so every iterate of
    :func:`separability_heuristic` keeps the symmetry (Gatermann & Parrilo,
    J. Pure Appl. Algebra 192, 95-128, 2004). With n(i) the one-hot vector
    of basis state i's level on each factor, states i and j share a sector
    exactly when n(i) - n(j) lies in span{n(a) - n(b) : W_ab != 0}.

    Returns one (k, s) index array per sector size s, each row one sector
    in increasing order; a W whose nonzero entries connect every basis
    state gives the single sector ``(arange(dim)[None],)``.
    """
    return _charge_sectors(w.layout, np.packbits(w.matrix != 0).tobytes())[0]


@lru_cache(maxsize=32)
def _charge_sectors(lay: SpaceLayout, pattern: bytes) -> tuple[tuple[np.ndarray, ...], ...]:
    """The sectors of :func:`charge_sectors` for a layout and the packed
    bits of a nonzero pattern on it, and their :func:`_sector_blocks` in the
    search's stack of two halves, X and Y; all read-only."""
    n = lay.dim
    adj = np.unpackbits(np.frombuffer(pattern, dtype=np.uint8), count=n * n).reshape(n, n) != 0
    onehot = _level_onehot(lay)
    a = adj.astype(np.float64)
    # with N the one-hot rows n(i), the span is the range of N^T Lap(W != 0) N:
    # states share a sector when their projections on its null space agree
    gram = onehot.T @ (np.diag(a.sum(axis=1)) - a) @ onehot
    vals, vecs = np.linalg.eigh(gram)
    q = onehot @ vecs[:, vals <= 1e-9 * max(1.0, vals[-1])]
    norms = np.einsum("ij,ij->i", q, q)
    apart = norms[:, None] + norms[None, :] - 2.0 * (q @ q.T) > 1e-8
    # name each state's sector by its first member, then sort the states by
    # sector size (largest first) and name; the stable sort keeps each
    # sector's states in increasing order
    first = np.argmin(apart, axis=1)
    size = np.bincount(first)[first]
    order = np.lexsort((first, -size))
    groups = np.split(order, np.flatnonzero(np.diff(size[order])) + 1)
    sectors = tuple(g.reshape(-1, size[g[0]]) for g in groups)
    blocks = _sector_blocks(sectors, n, 2)
    for idx in sectors + blocks:
        idx.flags.writeable = False
    return sectors, blocks


@lru_cache(maxsize=32)
def _level_onehot(layout: SpaceLayout) -> np.ndarray:
    """N with N[i, offset_k + level_k(i)] = 1: each basis state's level on
    each factor, one hot."""
    n, dims = layout.dim, layout.dims
    out = np.zeros((n, sum(dims)))
    cols = np.indices(dims).reshape(len(dims), n).T + np.cumsum((0,) + dims[:-1])
    out[np.arange(n)[:, None], cols] = 1.0
    out.flags.writeable = False
    return out


def _sector_blocks(sectors: tuple[np.ndarray, ...], n: int, k: int) -> tuple[np.ndarray, ...]:
    """Flat indices of each sector's blocks in a stack of k n x n matrices."""
    stack = np.arange(k)[:, None, None, None] * n * n
    return tuple(stack + idx[:, :, None] * n + idx[:, None, :] for idx in sectors)


def _psd_clip(m: np.ndarray, sectors: tuple[np.ndarray, ...], blocks=None) -> np.ndarray:
    """Positive part of a Hermitian matrix that is block-diagonal over
    ``sectors`` (as :func:`charge_sectors` returns them), or of each matrix
    of a stack (k, n, n), in its own dtype: a real symmetric matrix gets a
    real eigendecomposition. Each sector size takes one batched
    eigendecomposition of its blocks in the whole stack (a single sector is
    the whole matrix), and entries outside the blocks are dropped. ``blocks``
    is ``_sector_blocks(sectors, n, k)``, computed here when not given.

    The search clips its two halves as one stack per iteration, finite and
    Hermitian by construction, so this skips eig_hermitian's input checks
    (and its complex cast). It keeps eig_hermitian's descending order, and
    with it the summation order of the product."""
    n, out = m.shape[-1], np.zeros_like(m)
    flat_m, flat_out = m.reshape(-1), out.reshape(-1)
    for idx in _sector_blocks(sectors, n, m.size // (n * n)) if blocks is None else blocks:
        vals, vecs = np.linalg.eigh(flat_m[idx])
        vals, vecs = np.maximum(vals[..., None, ::-1], 0.0), vecs[..., ::-1]
        flat_out[idx] = (vecs * vals) @ vecs.conj().swapaxes(-1, -2)
    return out


@lru_cache(maxsize=32)
def neutral_process(layout: SpaceLayout) -> ProcessMatrix:
    """Maximally mixed valid process on the layout (in every order subspace);
    used as the padding component when a decomposition weight hits 0 or 1.
    One instance per layout, so its validity is computed once."""
    expected = layout.dim_of("A_O") * layout.dim_of("B_O")
    return ProcessMatrix(np.eye(layout.dim) * (expected / layout.dim), layout)


@dataclass(frozen=True)
class SeparabilityReport:
    """Outcome of a separability check, with one of three verdicts.

    - ``separable``: ``certificate`` holds a decomposition (q, W_AB, W_BA)
      that passed :func:`certify_decomposition`.
    - ``nonseparable``: ``witness`` holds (S, P_AB, P_BA), a causal
      nonseparability witness that passed :func:`_certify_witness`;
      ``witness_value`` is tr(S W)/||S||.
    - ``inconclusive``: the search reached its fixed point or its iteration
      cap with neither certificate.

    After a search, ``residual`` is the search's last gap ||b - a||/max(1, ||W||)
    between its PSD point and its affine point (see
    :func:`separability_heuristic`); on an infeasible problem it tends to
    the distance between the two sets. With a decomposition it is at least
    the relative reconstruction error of the claimed mixture. A
    decomposition certified without a search has ``iterations`` 0 and that
    error alone as ``residual``."""

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
        # the basis is orthogonal: ||P m - m|| is the norm of the masked-out coefficients
        outside = np.linalg.norm((1.0 - _order_mask(lay, order)) * part._coef)
        if outside > 1e-9 * max(1.0, np.linalg.norm(part.matrix)):
            return None
    recon = frobenius(q * w_ab.matrix + (1 - q) * w_ba.matrix - m) / max(1.0, frobenius(m))
    # The search's in-subspace eigenvalue lift can inflate the reconstruction
    # error by a factor of order sqrt(dim) over its terminal infeasibility,
    # so the gate carries that factor.
    if recon > 10 * SEARCH_TOL * (1.0 + 2.0 * np.sqrt(lay.dim)):
        return None
    return SeparabilityReport((q, w_ab, w_ba), float(recon), 0)


def _certificate_components(
    cx: np.ndarray, cy: np.ndarray, layout: SpaceLayout
) -> tuple[float, ProcessMatrix, ProcessMatrix] | None:
    """Candidate decomposition from the search's terminal affine point, the
    coefficients (cx, cy) of X in the AB and Y in the BA subspace: q from
    the trace of X, each part lifted to PSD in the search's dtype and
    renormalized. :func:`certify_decomposition` decides whether it holds."""
    expected = layout.dim_of("A_O") * layout.dim_of("B_O")
    mats = hs_basis(layout).to_mat(np.stack((cx, cy)))
    q = min(max(float(np.real(np.trace(mats[0]))) / expected, 0.0), 1.0)
    weights = np.array([q, 1.0 - q])
    # a part of weight below 1e-6 is padded, and its eigenvalues go unused
    mats = mats / np.maximum(weights, 1e-6)[:, None, None]
    mats = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
    vals = np.linalg.eigvalsh(mats)
    parts = []
    for mat, weight, low, high in zip(mats, weights, vals[:, 0], vals[:, -1]):
        if weight < 1e-6:
            parts.append(neutral_process(layout))
            continue
        # Restore positivity inside the order subspace: the identity lies in
        # every order subspace, so an eigenvalue lift preserves exact comb
        # membership where an eigenvalue clip would not.
        if low < 0.0:
            mat = mat + (-float(low) + 1e-14 * max(1.0, float(high))) * np.eye(layout.dim)
        tr = float(np.real(np.trace(mat)))
        if tr <= 0:
            return None
        parts.append(ProcessMatrix(mat * (expected / tr), layout))
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
    basis = hs_basis(lay)
    eps = 0.0
    for p, order in ((p_ab, "AB"), (p_ba, "BA")):
        # the basis is orthogonal: ||P_X(S - P)|| is the norm of its masked coefficients
        inside = np.linalg.norm(_order_mask(lay, order) * basis.to_coef(s - p))
        eps = max(eps, max(0.0, -float(np.linalg.eigvalsh(p)[0])) + inside)
    slack = WITNESS_RTOL * (np.linalg.norm(p_ab) + np.linalg.norm(p_ba))
    value = witness_value(w, s)
    if value < -(eps + slack) * w.expected_trace:
        # the reported value divides by the complex128 norm of S, which report bytes pin
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

    Douglas-Rachford splitting between the affine set {X in AB-subspace,
    Y in BA-subspace, X + Y = W} and the PSD cone (componentwise). The
    iterates live in :class:`HSBasis` coefficients, where the affine
    projection is elementwise; only the PSD clip works on matrices, sector
    by sector (see :func:`charge_sectors`). From z on the affine set, each
    step takes the affine point a = P_aff(z), its reflection r = 2a - z and
    the PSD point b = clip(r), and moves z += b - a. The start
    z = P_aff(W/2, W/2) lies on the affine set, so the first step clips the
    order split itself, and a split that is already PSD stops after one
    iteration.

    On a feasible problem z converges to a fixed point, where b = a is a
    decomposition: when ||b - a|| < SEARCH_TOL max(1, ||W||), b is projected
    onto the affine set, turned into a candidate decomposition and
    re-validated by :func:`certify_decomposition` before a certificate is
    claimed. On an infeasible one the steps b - a tend to the minimal
    displacement vector between the two sets (Bauschke & Moursi, "On the
    Douglas-Rachford algorithm", Math. Program. 164, 2017), and the
    reflected gap (gx, gy) = b - r, which is the clipped-off negative part
    of r with its sign flipped and so PSD, points across it. With in_AB,
    in_BA the order masks, it gives a witness
    S = where(in_AB, gx, where(in_BA, gy, 0)) that agrees with P_AB = gx on
    the AB subspace and with P_BA = where(in_AB in_BA, gx, gy) on the BA
    subspace. Each iteration tests it cheaply: tr(S W) is two dot products
    in coefficients, gx is PSD and Weyl's inequality bounds the negative
    part of lambda_min(P_BA) by ||(gx - gy) in_AB in_BA||. Only when that
    passes is the witness rebuilt as matrices and checked by
    :func:`_certify_witness`.

    When W has no imaginary part the whole search runs in float64, with one
    coefficient part and real eigendecompositions, and complex128 otherwise.
    No verdict is lost: the masks and the basis are real and conjugation
    keeps a matrix PSD, so both sets are closed under complex conjugation.
    For a real W, ((X + conj X)/2, (Y + conj Y)/2) is then a real
    decomposition whenever (X, Y) is one, and the real part of a witness is
    again a witness. Both certificate gates re-check what the search finds
    on complex matrices.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    m, lay = w.matrix, w.layout
    report = validate_process(w)
    if not report.is_valid:
        raise ValueError(f"input is not a valid process: {report}")
    scale = max(1.0, frobenius(m))
    d_o = w.expected_trace
    basis = hs_basis(lay)
    in_ab, in_ba = _order_mask(lay, "AB"), _order_mask(lay, "BA")
    both = in_ab * in_ba
    cw = w._coef
    # tr(S W) = <gx, in_ab cw> + <gy, (1 - in_ab) in_ba cw>
    cw_a, cw_b = (in_ab * cw).ravel(), ((1.0 - in_ab) * in_ba * cw).ravel()

    sectors, blocks = _charge_sectors(lay, np.packbits(m != 0).tobytes())

    zx, zy = _order_split(cw, cw / 2.0, cw / 2.0, in_ab, in_ba)
    witness, value = None, None
    for used in range(1, iters + 1):
        xa, ya = _order_split(cw, zx, zy, in_ab, in_ba)
        xr, yr = 2.0 * xa - zx, 2.0 * ya - zy
        xb, yb = basis.to_coef(_psd_clip(basis.to_mat(np.stack((xr, yr))), sectors, blocks))
        # the basis is orthogonal: coefficient norms are Frobenius norms
        gap = float(np.hypot(np.linalg.norm(xb - xa), np.linalg.norm(yb - ya)))
        zx, zy = zx + xb - xa, zy + yb - ya
        gx, gy = xb - xr, yb - yr
        trace_sw = gx.ravel() @ cw_a + gy.ravel() @ cw_b
        if trace_sw < 0.0 and trace_sw < -np.linalg.norm(both * (gx - gy)) * d_o:
            s, p_ab, p_ba = (
                basis.to_mat(c)
                for c in (np.where(in_ab, gx, np.where(in_ba, gy, 0.0)), gx, np.where(both, gx, gy))
            )
            value = _certify_witness(w, s, p_ab, p_ba)
            if value is not None:
                witness = (s, p_ab, p_ba)
                break
        if gap < SEARCH_TOL * scale:
            break
    residual = gap / scale
    if witness is not None:
        return SeparabilityReport(None, residual, used, witness, value)
    if gap < SEARCH_TOL * scale:
        candidate = _certificate_components(*_order_split(cw, xb, yb, in_ab, in_ba), lay)
        cert = None if candidate is None else certify_decomposition(w, *candidate)
        if cert is not None:
            return replace(cert, residual=max(residual, cert.residual), iterations=used)
    return SeparabilityReport(None, residual, used)
