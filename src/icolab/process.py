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

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from math import inf, prod, sqrt

import numpy as np

from .bell import BehaviorTable
from .linalg import (
    HERMITICITY_ATOL,
    SpaceLayout,
    _is_hermitian,
    as_matrix,
    eig_hermitian,
    is_hermitian,
    is_normalized_pair,
    is_psd,
    is_unitary,
    ket,
    permute_factors,
    permute_vector_factors,
    tensor,
)

PARTY_LABELS = ("A_I", "A_O", "B_I", "B_O")

PSD_ATOL = 1e-9  # input checks: an instrument's or a future POVM's elements are PSD above -PSD_ATOL
SEARCH_TOL = 1e-7  # separability search: stop when an iteration moves less (relative)
SEARCH_STEPS = 2000  # separability search: the most Douglas-Rachford steps it takes
EPS_MACH = float(np.finfo(np.float64).eps)
# what decided a SeparabilityReport (see its ``exit``)
EXITS = ("start-split", "pencil-midpoint", "climbed-line", "face-split", "face-witness", "loop-witness",
         "early-stop", "converged", "fixed-point", "step-cap", "decomposition")


def rounding_bound(n: int, norm: float) -> float:
    """tau = n^2 eps_mach max(1, ||M||_F): the backward error of a Cholesky
    factorization or basis change of an n x n M (Higham, 2002, ch. 10), the
    allowance of every verdict gate. A positivity gate factors M + tau I
    (Rump, BIT 46, 2006); the floor of 1, a deliberate absolute minimum,
    errs only toward refusing. A NaN norm gives NaN, as np.maximum would."""
    return n * n * EPS_MACH * max(norm, 1.0)


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

    The constructor checks only structure (:func:`_structure_checked`) and
    keeps a read-only complex128 copy of the matrix, so both hold for the
    instance's lifetime (:func:`process_stack` checks a stack once and makes
    views of it). The physical invariants — PSD, trace d_AO*d_BO, valid
    linear subspace — are audited once per instance by
    :func:`validate_process` and hold for every matrix this module builds."""

    matrix: np.ndarray
    layout: SpaceLayout

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128)
        m = _structure_checked(m.reshape(-1, 1) if m.ndim == 1 else m, self.layout, 2)
        object.__setattr__(self, "matrix", m)

    @cached_property
    def _validity(self) -> "ValidityReport":
        """What :func:`validate_process` returns, computed on first use."""
        return _validity_report(self)

    @cached_property
    def _own(self) -> np.ndarray:
        """The matrix in the arithmetic of its coefficients, its eigenvalues
        and the search: the float64 real part when it has no imaginary part."""
        m = self.matrix
        return m.real if not m.imag.any() else m

    @cached_property
    def _coef(self) -> np.ndarray:
        """The read-only :class:`HSBasis` coefficients that validity, the
        search and the certificate check share: one float64 part for a real
        matrix, two otherwise."""
        coef = hs_basis(self.layout).to_coef(self._own)
        coef.flags.writeable = False
        return coef

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        """The read-only eigenvalues in ascending order, from one eigvalsh
        of :attr:`_own`: validity reads W's PSD margin here and the search
        W's rank. No certificate check reads them."""
        vals = np.linalg.eigvalsh(self._own)
        vals.flags.writeable = False
        return vals

    @cached_property
    def _norm(self) -> float:
        """||W||_F, the scale of the search and of the reconstruction gate."""
        return float(np.linalg.norm(self.matrix))

    @cached_property
    def _rounding(self) -> float:
        """:func:`rounding_bound` of W from its cached eigenvalues: the
        validity gates', the face split's and the rank cut's allowance."""
        return float(rounding_bound(self.layout.dim, np.linalg.norm(self._eigenvalues)))

    @property
    def expected_trace(self) -> float:
        return float(self.layout.dim_of("A_O") * self.layout.dim_of("B_O"))


def _structure_checked(m: np.ndarray, layout: SpaceLayout, ndim: int) -> np.ndarray:
    """``m``, made read-only, once it passes :class:`ProcessMatrix`'s checks on
    ``layout`` (party labels, ``ndim`` axes ending in (dim, dim), finite,
    Hermitian within HERMITICITY_ATOL) in its own dtype, a stack at once."""
    if layout.labels[:4] != PARTY_LABELS or layout.labels[4:] not in ((), ("F",)):
        raise ValueError(f"layout must be {PARTY_LABELS} with optional trailing 'F', got {layout.labels}")
    if m.ndim != ndim or m.shape[-2:] != (layout.dim,) * 2:
        raise ValueError(f"matrix shape {m.shape} does not match layout dimension {layout.dim}")
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise ValueError("matrix contains non-finite entries")
    skew = m - m.conj().mT  # conj() of a real array is the array itself
    if np.count_nonzero(skew) and not np.abs(skew).max() <= HERMITICITY_ATOL:
        raise ValueError("process matrix must be Hermitian")
    m.flags.writeable = False
    return m


def _views(stack: np.ndarray, layout: SpaceLayout) -> tuple[ProcessMatrix, ...]:
    """Read-only views, with no copy or check, of a checked complex128 stack."""
    stack.flags.writeable = False
    parts = tuple(object.__new__(ProcessMatrix) for _ in stack)
    for part, m in zip(parts, stack):
        vars(part).update(matrix=m, layout=layout)
    return parts


def process_stack(mats: np.ndarray, layout: SpaceLayout) -> tuple[ProcessMatrix, ...]:
    """``ProcessMatrix(m, layout)`` for each m of a stack (k, dim, dim), with
    the same rejections: views of one checked complex128 copy of the stack."""
    return _views(_structure_checked(np.array(mats, dtype=np.complex128), layout, 3), layout)


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

    It also holds, read-only and built once from the chain-rule masks a and
    b of :meth:`order_mask`: ``ab`` = a, ``ba`` = b, ``shared`` = a b,
    ``valid`` = a + b - a b (the valid processes), ``orders`` = (a, b) and
    ``off_orders`` = 1 - (a, b), ``lines`` = (a - a b, b - a b, a b) (AB only,
    BA only, shared), the stacks with a parts axis, and ``eye``, the n x n
    identity that shifts a positivity gate by its tau.
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
        self.ab, self.ba = a, b = self.order_mask("AB"), self.order_mask("BA")
        self.shared = a * b
        self.valid = a + b - self.shared
        self.orders = np.stack((a, b))[:, None]
        self.off_orders = 1.0 - self.orders
        self.lines = np.stack((a - self.shared, b - self.shared, self.shared))[:, None]
        self.eye = np.eye(layout.dim)
        for frozen in (a, b, self.shared, self.valid, self.orders, self.off_orders, self.lines, self.eye):
            frozen.flags.writeable = False

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

    def order_mask(self, order: str) -> np.ndarray:
        """0/1 mask of the processes of one causal order: along the order's chain
        (first party's input and output, then the second's, then F when the
        layout has one), discarding what comes after an output leaves that output
        free (Chiribella, D'Ariano and Perinotti, PRA 80, 022339, 2009). So a
        product-basis term is kept when the last factor of the chain it acts on
        nontrivially is an input or F, or when it is the identity."""
        chain = _order_chain(order) + self.layout.labels[4:]
        out = self.mask(chain)
        for k, lab in enumerate(chain):
            if not lab.endswith("_O"):
                # the terms whose last nontrivial factor is lab
                out = out + (1.0 - self.mask((lab,))) * self.mask(chain[k + 1 :])
        return out

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


def validity_projection(w: np.ndarray, layout: SpaceLayout) -> np.ndarray:
    """Orthogonal projection onto the linear subspace of valid bipartite
    process matrices (no future factor).

    The subspace is characterized by normalization on every pair of CPTP
    instruments, and it is spanned by the two order subspaces, so its
    projector is the union of the two order masks in :class:`HSBasis`.
    """
    if layout.labels != PARTY_LABELS:
        raise ValueError(f"expected exactly the party factors, got {layout.labels}")
    basis = hs_basis(layout)
    return basis.project(w, basis.valid)


@dataclass(frozen=True)
class ValidityReport:
    """Raw margins from validate_process plus the verdict at W's :func:`rounding_bound`."""

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
    m, lay, coef, tau = w.matrix, w.layout, w._coef, w._rounding
    psd_margin = float(w._eigenvalues[0])
    expected = lay.dim_of("A_O") * lay.dim_of("B_O")
    trace_error = float(np.real(np.trace(m)) - expected)
    # the basis is orthogonal: the distance is the norm of the masked-out coefficients
    outside = (1.0 - hs_basis(lay).valid) * coef
    residual = float(np.linalg.norm(outside))
    ok = psd_margin >= -tau and abs(trace_error) <= tau and residual <= tau
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
    if not is_normalized_pair(alpha, beta):
        raise ValueError("control_amplitudes must be normalized")
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
    return _witness_value(w.matrix, as_matrix(s))


def _witness_value(m: np.ndarray, s: np.ndarray) -> float:
    """:func:`witness_value` of a matrix that :func:`as_matrix` has returned."""
    if s.shape != m.shape:
        raise ValueError(f"witness shape {s.shape} does not match process {m.shape}")
    if not _is_hermitian(s):
        raise ValueError("witness must be Hermitian")
    return float((s @ m).trace().real)


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
    basis = hs_basis(layout)
    return basis.project(w, basis.ab if _order_chain(order) == PARTY_LABELS else basis.ba)


def _psd_clip(m: np.ndarray) -> np.ndarray:
    """Positive part of each Hermitian matrix of a stack (k, n, n), or of a
    single matrix, in its own dtype, by one batched eigendecomposition. The
    search's stacks are finite and Hermitian by construction, so this skips
    eig_hermitian's input checks (and its complex cast); it keeps
    eig_hermitian's descending order, and with it the summation order of
    the product."""
    vals, vecs = np.linalg.eigh(m)
    vals, vecs = np.maximum(vals[..., None, ::-1], 0.0), vecs[..., ::-1]
    return (vecs * vals) @ vecs.conj().swapaxes(-1, -2)


@lru_cache(maxsize=32)
def neutral_process(layout: SpaceLayout) -> ProcessMatrix:
    """Maximally mixed valid process on the layout (in every order subspace);
    used as the padding component when a decomposition weight hits 0 or 1.
    One instance per layout, so its coefficients are computed once."""
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
    the relative reconstruction error of the claimed mixture, and it is
    that error alone when the search stopped at a positive definite affine
    point, which lies in both sets, or at the split on W's face. A
    decomposition certified without a search step has ``iterations`` 0 and
    that error alone as ``residual``: one certified from a construction, by
    the search on the line through its start (at the start split itself,
    with q = 1/2, or at the line's midpoint) or on a line climbed off it,
    or on the face of a rank-1 W.
    A witness found on the face of a rank-1 W has ``iterations`` 0 and the
    face's distance to the order splits, relative to max(1, ||W||), as
    ``residual`` (see :func:`separability_heuristic`).

    ``exit``, one of EXITS, names what decided: W's own start split, the pencil's
    midpoint or a climbed line, a face split or witness, the loop's witness, early
    stop or converged exit, ``inconclusive`` at the loop's fixed point or step
    cap, or :func:`certify_decomposition`. Report bytes leave it out."""

    certificate: tuple[float, ProcessMatrix, ProcessMatrix] | None
    residual: float
    iterations: int
    witness: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    witness_value: float | None = None
    exit: str = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.exit not in EXITS:
            raise ValueError(f"unknown exit {self.exit!r}")

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


def _frobenius(m: np.ndarray) -> float:
    """np.linalg.norm(m) of a float64 or complex128 array, by its same dot products."""
    x = m.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return sqrt(re.dot(re) + im.dot(im))
    return sqrt(x.dot(x))


def _cholesky_exists(mats: np.ndarray) -> bool:
    """Whether every matrix of a Hermitian stack has a Cholesky factor: is
    positive definite up to :func:`rounding_bound` of the matrix. Every
    positivity gate of the certificate checks is this test of its matrices
    shifted by the gate's allowance (Rump, BIT 46, 2006); unshifted, it is
    the search's filter :func:`_positive_definite`."""
    try:
        np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        return False
    return True


def certify_decomposition(
    w: ProcessMatrix, q: float, w_ab: ProcessMatrix, w_ba: ProcessMatrix
) -> SeparabilityReport | None:
    """Re-validate a claimed decomposition W = q W_AB + (1-q) W_BA from
    scratch, whatever proposed it, by :func:`_certified_stack` on the parts'
    :attr:`_own` and :attr:`_coef`: the certificate, with these parts, or None."""
    if w_ab.layout != w.layout or w_ba.layout != w.layout:
        return None
    return _certified_stack(w, q, np.array([w_ab._own, w_ba._own]), "decomposition", (w_ab, w_ba))


def _certified_stack(
    w: ProcessMatrix, q: float, own: np.ndarray, exit: str, parts: tuple[ProcessMatrix, ...] | None = None
) -> SeparabilityReport | None:
    """The one checker of a decomposition W = q X + (1-q) Y, given the stack
    ``own`` = (X, Y) in the parts' arithmetic: :class:`ProcessMatrix`'s
    structural checks once (ValueError), then q in [0, 1], each part PSD
    (one Cholesky factorization of the stack + tau I), of trace d_O and in
    its order subspace (the masks nest, (1 - a)(1 - b) <= 1 - a, so validity
    follows), each within its :func:`rounding_bound` tau, and W reproduced
    within tau(dim, 1) relative to max(1, ||W||). Coefficients: the given
    ``parts``' :attr:`_coef` if they share a dtype, else one
    :meth:`HSBasis.to_coef` of the stack. Without ``parts``, the parts are
    built once every gate has passed, as read-only complex128 views of the
    stack with those coefficients cached. Certificate (``iterations`` 0) or None.
    Norms are np.linalg.norm's own sums, and the gates compare Python floats."""
    m, lay, n, basis = w.matrix, w.layout, w.layout.dim, hs_basis(w.layout)
    _structure_checked(own, lay, 3)
    if not 0.0 <= q <= 1.0:
        return None
    taus = [rounding_bound(n, sqrt(x)) for x in np.add.reduce((own.conj() * own).real, axis=(1, 2)).tolist()]
    if not _cholesky_exists(own + np.array(taus)[:, None, None] * basis.eye):
        return None
    d_o = w.expected_trace
    if any(abs(t - d_o) > tau for t, tau in zip(own.trace(axis1=1, axis2=2).real.tolist(), taus)):
        return None
    if parts is not None and parts[0]._own.dtype == parts[1]._own.dtype:
        coefs = np.array([p._coef for p in parts])
    else:  # the stack's, also for a real part next to a complex one
        coefs = basis.to_coef(own)
        coefs.flags.writeable = False
    # the basis is orthogonal: a distance to a subspace is the norm of the masked-out coefficients
    off = basis.off_orders * coefs
    if any(sqrt(x) > tau for x, tau in zip(np.add.reduce((off * off).reshape(2, -1), axis=1).tolist(), taus)):
        return None
    recon = _frobenius(q * own[0] + (1 - q) * own[1] - m) / max(1.0, w._norm)
    if recon > rounding_bound(n, 1.0):
        return None
    if parts is None:
        parts = _views(np.asarray(own, dtype=np.complex128), lay)
        for part, mat, coef in zip(parts, own, coefs):
            # a part's own arithmetic is the stack's, unless a complex part has no imaginary part
            if own.dtype == np.float64 or mat.imag.any():
                vars(part).update(_own=mat, _coef=coef)
    return SeparabilityReport((q, *parts), recon, 0, exit=exit)


def _certified_split(w: ProcessMatrix, mats: np.ndarray, exit: str) -> SeparabilityReport | None:
    """The certificate of the decomposition built from an order split of W,
    the stack (X, Y) of its matrices in the search's dtype, or None.

    q comes from the trace of X. The parts are divided by their weights,
    made Hermitian and renormalized to trace d_O as one stack, which
    :func:`_certified_stack` checks as it stands. A part of weight below
    1e-6, a summand of W's split, must pass one Cholesky factorization of
    part + tau I, tau W's :func:`rounding_bound`; the kept part is then
    checked next to the neutral process. The certificate names ``exit``.
    A kept part's trace is positive: every caller's X + Y is W up to
    rounding and W is valid, so tr X + tr Y = d_O >= 1 within tau <
    MAX_DIM^3 eps_mach < 1e-10. Divided by a weight of at least 1e-6, a
    part has trace d_O within 1e-4; kept alone, above d_O - 1e-10."""
    lay, d_o = w.layout, w.expected_trace
    q = min(max(float(mats[0].trace().real) / d_o, 0.0), 1.0)
    weights = [x for x in (q, 1.0 - q) if x >= 1e-6]
    if len(weights) < 2:
        kept = np.array((q, 1.0 - q)) >= 1e-6
        if not _cholesky_exists(mats[~kept] + w._rounding * hs_basis(lay).eye):
            return None
        mats = mats[kept]
    stack = mats / np.array(weights)[:, None, None]
    # conj() of a real stack is the stack itself; numpy buffers the overlap
    stack += stack.conj().mT
    stack *= 0.5
    stack *= (d_o / stack.trace(axis1=1, axis2=2).real)[:, None, None]
    if len(weights) == 2:
        return _certified_stack(w, q, stack, exit)
    parts = tuple(ProcessMatrix(stack[0], lay) if keep else neutral_process(lay) for keep in kept)
    return _certified_stack(w, q, np.array([part._own for part in parts]), exit, parts)


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
    when tr(S W) lies below that bound by more than a rounding allowance:
    when delta_X = -tr(S W)/d_O - allowance - ||R_X|| is positive and
    lambda_min(P_X) > -delta_X for both orders. Both are read from one
    :meth:`HSBasis.to_coef` of (S - P_AB, S - P_BA) and one Cholesky
    factorization of (P_AB + delta_AB I, P_BA + delta_BA I), up to a
    backward error that the allowance, :func:`rounding_bound` of
    ||P_AB|| + ||P_BA||, covers. S is cast and checked once, as
    :func:`witness_value` does. Returns tr(S W)/||S|| or None."""
    lay, basis, parts = w.layout, hs_basis(w.layout), np.array((p_ab, p_ba))
    coefs = basis.to_coef(s - parts)
    # the basis is orthogonal: ||R_X|| is the norm of its masked coefficients
    inside = basis.orders * coefs
    slack = rounding_bound(lay.dim, _frobenius(p_ab) + _frobenius(p_ba))
    s = as_matrix(s)
    value = _witness_value(w.matrix, s)
    bound = -value / w.expected_trace - slack
    delta = [bound - _frobenius(r) for r in inside]
    if all(x > 0.0 for x in delta) and _cholesky_exists(parts + np.array(delta)[:, None, None] * basis.eye):
        # the reported value divides by the complex128 norm of S, which report bytes pin
        return value / _frobenius(s)
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


def _positive_definite(mats: np.ndarray) -> bool:
    """The search's filter: whether every matrix of a Hermitian stack is
    positive definite, by one batched Cholesky factorization, before the
    certificate check: W's own start split in :func:`_line_split`, and the
    one candidate of each step in the loop."""
    return _cholesky_exists(mats)


def _line_split(w: ProcessMatrix) -> SeparabilityReport | None:
    """The certificate of an order split of W on the line
    X = A + t S, Y = B + (1 - t) S through the search's start (t = 1/2), or
    on a line climbed off it, or None.

    A, B and S are W's AB-only, BA-only and shared coefficients, so every
    point of the line is an exact order split. The start split
    (A + S/2, B + S/2) goes first, as it stands, to :func:`_certified_split`
    when one batched Cholesky factorization finds both parts positive
    definite, with no eigenvalue problem solved. When it is not, or its
    certificate is refused, the line is solved, and climbed. Every shared
    H, a matrix both order masks keep, moves A and B along the order splits
    of W; with S = L L^dagger positive definite, X(t) = A + H + t S is PSD
    exactly when t >= t_lo = lambda_max(-L^-1 (A + H) L^-dagger) and
    Y(t) = B - H + (1 - t) S exactly when
    t <= t_hi = 1 - lambda_max(-L^-1 (B - H) L^-dagger), two
    symmetric-definite generalized eigenvalue problems (Golub and Van Loan,
    Matrix Computations, sec. 8.7) solved by one eigvalsh per iterate. At
    the midpoint of a nonempty interval both parts are >= (t_hi - t_lo)/2 S,
    and that split goes untested, as it stands, to :func:`_certified_split`,
    whose check gates positivity: exit ``pencil-midpoint`` at iterate 0,
    H = 0, the start line's own pencil, and ``climbed-line`` after a step.

    The length of the interval,

        l(H) = 1 + lambda_min(L^-1 (A + H) L^-dagger) + lambda_min(L^-1 (B - H) L^-dagger),

    is concave, and a positive-definite split exists exactly where l > 0
    (Lewis and Overton, Acta Numerica 5, 1996). Only before a step is one
    eigh solved: with x, y the least eigenvectors of the two whitened
    parts, u = L^-dagger x and v = L^-dagger y, the shared part g of
    u u^dagger - v v^dagger is a supergradient with slope
    u^dagger g u - v^dagger g v = ||g||^2, and the step H <- H - 2 l / slope g
    aims the linear model at +|l|. The climb stops, with None, as soon as
    the slope is not positive or l did not rise, and after SEARCH_STEPS
    steps. None also when S has no Cholesky factor or the split does not
    certify."""
    basis = hs_basis(w.layout)
    mats = basis.to_mat(basis.lines * w._coef)
    start = mats[:2] + 0.5 * mats[2]
    if _positive_definite(start):
        cert = _certified_split(w, start, "start-split")
        if cert is not None:
            return cert
    try:
        inv = np.linalg.inv(np.linalg.cholesky(mats[2]))
    except np.linalg.LinAlgError:
        return None
    whitened = cur = inv @ mats[:2] @ inv.conj().T
    moved, exit, last, h = mats[:2], "pencil-midpoint", -inf, 0.0
    for step in range(SEARCH_STEPS + 1):
        least = np.linalg.eigvalsh(-cur)[:, -1]
        t_lo, t_hi = float(least[0]), 1.0 - float(least[1])
        if t_lo < t_hi:
            t = 0.5 * (t_lo + t_hi)
            return _certified_split(w, moved + np.array((t, 1.0 - t))[:, None, None] * mats[2], exit)
        margin = t_hi - t_lo
        if margin <= last or step == SEARCH_STEPS:
            return None
        u, v = np.linalg.eigh(cur)[1][:, :, 0] @ inv.conj()
        g = basis.to_mat(basis.shared * basis.to_coef(np.outer(u, u.conj()) - np.outer(v, v.conj())))
        slope = float(np.real(u.conj() @ g @ u - v.conj() @ g @ v))
        if slope <= 0.0:
            return None
        h = h - 2.0 * margin / slope * g
        sign = np.array((1.0, -1.0))[:, None, None]
        cur = whitened + sign * (inv @ h @ inv.conj().T)
        moved, exit, last = mats[:2] + sign * h, "climbed-line", margin


@lru_cache(maxsize=32)
def _hermitian_basis(r: int, real: bool) -> np.ndarray:
    """Read-only stack of an orthonormal basis of the r x r real symmetric
    matrices (``real``) or of the r x r Hermitian ones."""
    eye = np.eye(r)
    i, j = np.triu_indices(r, 1)
    e = eye[i][:, :, None] * eye[j][:, None, :]
    stacks = [eye[:, :, None] * eye[:, None, :], (e + e.swapaxes(1, 2)) / np.sqrt(2.0)]
    if not real:
        stacks.append(1j * (e - e.swapaxes(1, 2)) / np.sqrt(2.0))
    out = np.concatenate(stacks).astype(np.float64 if real else np.complex128)
    out.flags.writeable = False
    return out


def _range_basis(w: ProcessMatrix) -> np.ndarray:
    """Orthonormal basis of range(W), one column per eigenvalue above
    ``w._rounding``, from one eigh in the search's arithmetic."""
    m = w._own
    rank = int(np.count_nonzero(w._eigenvalues > w._rounding))
    return np.linalg.eigh(m)[1][:, len(m) - rank :]


def _least_squares_face(w: ProcessMatrix) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The face problem of :func:`_face_solve` by one least-squares solve
    over the coordinates x of X on range(W): rho, the basis V of range(W),
    the residual coefficients (-R_AB, -R_BA) at the least-norm optimum x*
    and its split (V X' V^dagger, V Y' V^dagger)."""
    lay, cw, v = w.layout, w._coef, _range_basis(w)
    basis = hs_basis(lay)
    # only the coefficients an order leaves out enter the problem: on qubit
    # parties 204 per order, of 256 without F and 4,096 with it
    off_ab, off_ba = basis.ab == 0.0, basis.ba == 0.0
    herm = _hermitian_basis(v.shape[1], not np.iscomplexobj(v))
    phi = basis.to_coef(v @ herm @ v.conj().T)
    lhs = np.concatenate((phi[..., off_ab], phi[..., off_ba]), axis=-1).reshape(len(herm), -1)
    rhs = np.concatenate((np.zeros_like(cw[..., off_ab]), cw[..., off_ba]), axis=-1).ravel()
    x = np.linalg.lstsq(lhs.T, rhs)[0]
    fx = np.tensordot(x, phi, 1)
    residuals = np.stack((off_ab * fx, off_ba * (cw - fx)))
    rho = float(np.hypot(np.linalg.norm(residuals[0]), np.linalg.norm(residuals[1])))
    x_face = np.tensordot(x, herm, 1)
    return rho, v, residuals, v @ np.stack((x_face, v.conj().T @ w._own @ v - x_face)) @ v.conj().T


def _pure_weight(a: float, b: float) -> float:
    """The weight s of the best split (s W, (1 - s) W) of a pure W whose
    squared distances to the AB and BA subspaces are a and b: s = b/(a + b)
    minimizes s^2 a + (1 - s)^2 b, and s = 0, the least-norm answer, when
    a + b = 0."""
    return b / (a + b) if a + b > 0.0 else 0.0


def _pure_face(w: ProcessMatrix) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The face problem of :func:`_face_solve` for a pure W, in closed form,
    with what :func:`_least_squares_face` returns. Below W lie only its
    multiples, so X = s W and Y = (1 - s) W, and with a = ||(1 - AB) c_W||^2
    and b = ||(1 - BA) c_W||^2 read off W's coefficients c_W,
    rho^2 = s^2 a + (1 - s)^2 b at s = :func:`_pure_weight` (a, b), and the
    residuals are s (1 - AB) c_W and (1 - s) (1 - BA) c_W. V is W W e_j
    normalized, j the index of W's largest diagonal entry: every nonzero
    column of W = lambda u u^dagger is a multiple of u, and the power step
    damps what lies below the rank cut. No eigenvalue problem and no
    least-squares solve."""
    m, basis = w._own, hs_basis(w.layout)
    off = basis.off_orders * w._coef
    a, b = np.add.reduce((off * off).reshape(2, -1), axis=1).tolist()
    s = _pure_weight(a, b)
    rho = sqrt(s * s * a + (1.0 - s) * (1.0 - s) * b)
    u = m @ m[:, int(np.argmax(m.diagonal().real))]
    weights = np.array((s, 1.0 - s))
    return rho, (u / _frobenius(u))[:, None], off * weights[:, None, None, None], weights[:, None, None] * m


def _lifted_witness(
    w: ProcessMatrix, v: np.ndarray, rho: float, residuals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The witness (R_AB + M, M, M + D) of :func:`_face_solve`, lifted off
    the face with range basis V (n x r) from its residual coefficients. It
    applies Pi_ker = 1 - V V^dagger by rank-r updates, never as a matrix:
    Pi_ker D Pi_ker = D - V (V^dagger D) - (D V) V^dagger + V (V^dagger D V) V^dagger
    and M = (eps - t) V V^dagger + t 1, each O(n^2 r)."""
    basis = hs_basis(w.layout)
    r_ab, r_ba = -basis.to_mat(residuals)
    d, vh = r_ab - r_ba, v.conj().T
    vd, dv = vh @ d, d @ v
    d_ker = d - v @ vd - (dv - v @ (vd @ v)) @ vh
    eps = rho**2 / (2.0 * float(np.trace(w._own).real))
    t = np.linalg.norm(vd) ** 2 / eps + np.linalg.norm(d_ker)
    m = v @ ((eps - t) * vh) + t * basis.eye
    return r_ab + m, m, m + d


def _face_solve(
    w: ProcessMatrix,
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray] | None, np.ndarray | None]:
    """The best order split of W on its face: a witness when the face admits
    none, the best split of a pure W and the least-norm one otherwise.

    Every part X of a decomposition satisfies X <= W, so it lies on the face
    of W, the matrices supported on range(W) (facial reduction: Permenter
    and Parrilo, Math. Program. 171, 2018). With V an orthonormal basis of
    range(W), the unknowns are the coordinates x of X on the face,
    X = V H(x) V^dagger, and with Phi(x) its coefficients

        rho^2 = min ||(1 - AB) Phi(x)||^2 + ||(1 - BA) (W - Phi(x))||^2,

    zero exactly when W = X + Y with X in AB and Y in BA on the face, PSD or
    not. It counts as zero at or below W's rank cut ``w._rounding``.

    A pure W (rank 1) has one unknown, X = s W, and :func:`_pure_face`
    solves it in closed form, with V read off W itself. Any other W has
    r^2 or r(r+1)/2 unknowns (r = rank W, the latter for a real W), over an
    orthonormal basis H_k of the r x r Hermitian (real symmetric) matrices,
    which :func:`_least_squares_face` solves by one eigh for V and one
    least-squares solve.

    When rho is above the cut no such split exists, and the residuals at the
    optimum give a witness of the form of Araujo et al. (NJP 17, 102001,
    2015). With R_AB = -(1 - AB) X* and R_BA = -(1 - BA) (W - X*)
    as matrices, the optimality condition says that D = R_AB - R_BA vanishes
    on the face. With
    M = eps Pi_range + t Pi_ker, eps = rho^2 / (2 tr W) and
    t = ||V^dagger D||^2 / eps + ||Pi_ker D Pi_ker|| (a Schur-complement
    bound that makes M + D PSD),

        (S, P_AB, P_BA) = (R_AB + M, M, M + D)

    has S - P_AB outside AB, S - P_BA outside BA and
    tr(S W) = -rho^2 / 2 + (t - eps) tr(Pi_ker W). :func:`_lifted_witness`
    builds it for every rank.

    When rho is at rounding, the split at the optimum goes to
    :func:`_certified_split`, which checks it as it stands: (s W, (1 - s) W)
    for a pure W; otherwise X' = H(x*) and Y' = V^dagger W V - X' at the
    least-norm x*, mapped back to (V X' V^dagger, V Y' V^dagger), the
    unique split at nullity 0, one point of the line or plane of splits
    otherwise.

    Returns rho, the witness or None and the split, a stack in the search's
    dtype, or None: one of the two, which :func:`_certify_witness` or
    :func:`_certified_split` still has to accept."""
    pure = w._eigenvalues[-2] <= w._rounding
    rho, v, residuals, split = (_pure_face if pure else _least_squares_face)(w)
    if rho <= w._rounding:
        return rho, None, split
    return rho, _lifted_witness(w, v, rho, residuals), None


def _face_decision(
    w: ProcessMatrix, iterations: int, residual: float | None = None
) -> SeparabilityReport | None:
    """The search's report when the face of a rank-deficient W decides it,
    or None (see :func:`_face_solve`).

    A witness that :func:`_certify_witness` accepts gives ``nonseparable``
    with ``residual``, by default the face's distance to the order splits,
    rho / max(1, ||W||); a split that :func:`_certified_split` accepts,
    ``separable`` with its reconstruction error as ``residual``."""
    rho, witness, split = _face_solve(w)
    if witness is not None:
        value = _certify_witness(w, *witness)
        if value is None:
            return None
        residual = rho / max(1.0, w._norm) if residual is None else residual
        return SeparabilityReport(None, residual, iterations, witness, value, exit="face-witness")
    cert = _certified_split(w, split, "face-split")
    return None if cert is None else replace(cert, iterations=iterations)


def separability_heuristic(w: ProcessMatrix) -> SeparabilityReport:
    """Search for a decomposition W = q W_AB + (1-q) W_BA with each part a
    valid process compatible with the corresponding order, or for a witness
    that none exists; stop at the first certificate of either kind.

    Douglas-Rachford splitting between the affine set {X in AB-subspace,
    Y in BA-subspace, X + Y = W} and the PSD cone (componentwise). The
    iterates live in :class:`HSBasis` coefficients, where the affine
    projection is elementwise; only the PSD clip works on matrices, one
    batched eigendecomposition of both halves. From z on the affine set,
    each of at most SEARCH_STEPS steps takes the affine point a = P_aff(z),
    its reflection r = 2a - z and the PSD point b = clip(r), and moves
    z += b - a. The start z = P_aff(W/2, W/2) lies on the affine set, so
    the first step clips the order split itself.

    Before that step, a full-rank W tries the line through the start,
    X = A + t S, Y = B + (1 - t) S, with A, B and S W's AB-only, BA-only
    and shared coefficients: first the start split itself (t = 1/2, q =
    1/2) when one batched Cholesky factorization finds it positive
    definite, then the midpoint of the interval of t where both parts are
    PSD, or of a line climbed off it (see :func:`_line_split`). When
    :func:`_certified_stack`, which gates positivity itself, accepts the
    split, the search stops with ``iterations`` 0 and the certificate's
    reconstruction error as ``residual``; otherwise the loop below runs
    unchanged.

    On a feasible problem z converges to a fixed point, where b = a is a
    decomposition: when ||b - a|| < SEARCH_TOL max(1, ||W||), b is projected
    onto the affine set and that split goes, as it stands, to
    :func:`_certified_split`; a fixed point only within SEARCH_TOL of the
    cone may fail it, and the verdict is then ``inconclusive``. On an
    infeasible one the steps b - a tend to the minimal displacement vector
    between the two sets (Bauschke & Moursi, "On the Douglas-Rachford
    algorithm", Math. Program. 164, 2017), and the reflected gap
    (gx, gy) = b - r, which is the clipped-off negative part of r with its
    sign flipped and so PSD, points across it. With in_AB, in_BA the order
    masks, it gives a witness S = where(in_AB, gx, where(in_BA, gy, 0)) that
    agrees with P_AB = gx on the AB subspace and with
    P_BA = where(in_AB in_BA, gx, gy) on the BA subspace. Each iteration
    tests it cheaply: tr(S W) is two dot products in coefficients, gx is PSD
    and Weyl's inequality bounds the negative part of lambda_min(P_BA) by
    ||(gx - gy) in_AB in_BA||. Only when that passes is the witness rebuilt
    as matrices and checked by :func:`_certify_witness`.

    A decomposition need not wait for the gap to fall below SEARCH_TOL.
    z - a is orthogonal to the affine set, so the affine point a = P_aff(z)
    at the top of step k >= 2 is P_aff(b) of step k - 1, the projection the
    converged path certifies. When W has full rank, one batched Cholesky
    factorization tests whether both of its parts are positive definite; if
    so, the point lies in both sets and becomes the candidate. When
    :func:`_certified_split` accepts it, the search stops with
    ``iterations`` k - 1, the clip steps taken, and the certificate's
    reconstruction error as ``residual``. A rank-deficient W is not tested:
    q X <= W makes every part of its decompositions singular.

    When W is rank-deficient (an eigenvalue at or below its
    :func:`rounding_bound`), :func:`_face_decision` asks once how W splits
    into the two orders on its face (see :func:`_face_solve`): for a W of
    rank 1 in closed form, its one unknown the weight s of X = s W and its
    range vector a column of W, with no eigenvalue problem and no
    least-squares solve; otherwise by one eigh for a basis of range(W) and
    one small least-squares solve. If it admits no split and
    :func:`_certify_witness` accepts the witness lifted off the face with
    the answer (the lift applies the kernel projector by rank-r updates,
    at O(n^2 r) for every rank), the search stops
    ``nonseparable``; if :func:`_certified_split` accepts its split,
    ``separable`` with the certificate's reconstruction error as
    ``residual``. A W of rank 1 asks before the first step, since only
    multiples of W lie below it, and a witness then reports ``iterations`` 0
    and the face's distance to the order splits as ``residual``. Any other
    rank-deficient W asks after the first step certifies nothing, and
    reports ``iterations`` 1, with the first step's gap as a witness's
    ``residual``. Otherwise the loop goes on unchanged.

    When W has no imaginary part the whole search runs in float64, with one
    coefficient part and real eigendecompositions, and complex128 otherwise.
    No verdict is lost: the masks and the basis are real and conjugation
    keeps a matrix PSD, so both sets are closed under complex conjugation.
    For a real W, ((X + conj X)/2, (Y + conj Y)/2) is then a real
    decomposition whenever (X, Y) is one, and the real part of a witness is
    again a witness. Both certificate checks re-check what the search finds
    in its arithmetic.
    """
    lay = w.layout
    report = validate_process(w)
    if not report.is_valid:
        raise ValueError(f"input is not a valid process: {report}")
    rounding = w._rounding
    deficient, pure = w._eigenvalues[0] <= rounding, w._eigenvalues[-2] <= rounding
    if not deficient:
        cert = _line_split(w)
        if cert is not None:
            return cert
    elif pure:
        # below a pure W lie only its multiples, so a step adds nothing
        decided = _face_decision(w, 0)
        if decided is not None:
            return decided

    basis = hs_basis(lay)
    in_ab, in_ba, both = basis.ab, basis.ba, basis.shared
    scale, d_o, cw = max(1.0, w._norm), w.expected_trace, w._coef
    # tr(S W) = <gx, in_ab cw> + <gy, (1 - in_ab) in_ba cw>
    cw_a, cw_b = (in_ab * cw).ravel(), ((1.0 - in_ab) * in_ba * cw).ravel()
    zx, zy = _order_split(cw, cw / 2.0, cw / 2.0, in_ab, in_ba)
    witness, value = None, None
    for used in range(1, SEARCH_STEPS + 1):
        xa, ya = _order_split(cw, zx, zy, in_ab, in_ba)
        if used > 1 and not deficient and _positive_definite(split := basis.to_mat(np.stack((xa, ya)))):
            # (xa, ya) is the affine projection of the last PSD point, and PSD
            # itself: it lies in both sets, an exact decomposition
            cert = _certified_split(w, split, "early-stop")
            if cert is not None:
                return replace(cert, iterations=used - 1)
        xr, yr = 2.0 * xa - zx, 2.0 * ya - zy
        xb, yb = basis.to_coef(_psd_clip(basis.to_mat(np.stack((xr, yr)))))
        # the basis is orthogonal: coefficient norms are Frobenius norms
        gap = float(np.hypot(np.linalg.norm(xb - xa), np.linalg.norm(yb - ya)))
        zx, zy = zx + xb - xa, zy + yb - ya
        gx, gy = xb - xr, yb - yr
        trace_sw = gx.ravel() @ cw_a + gy.ravel() @ cw_b
        if trace_sw < 0.0 and trace_sw < -np.linalg.norm(both * (gx - gy)) * d_o:
            coefs = (np.where(in_ab, gx, np.where(in_ba, gy, 0.0)), gx, np.where(both, gx, gy))
            candidate = tuple(basis.to_mat(np.stack(coefs)))
            value = _certify_witness(w, *candidate)
            if value is not None:
                witness = candidate
                break
        if gap < SEARCH_TOL * scale:
            break
        if used == 1 and deficient and not pure:
            # no part of a decomposition leaves range(W): decide on the face
            decided = _face_decision(w, used, gap / scale)
            if decided is not None:
                return decided
    residual, converged = gap / scale, gap < SEARCH_TOL * scale
    if witness is not None:
        return SeparabilityReport(None, residual, used, witness, value, exit="loop-witness")
    if converged:
        cert = _certified_split(w, basis.to_mat(np.stack(_order_split(cw, xb, yb, in_ab, in_ba))), "converged")
        if cert is not None:
            return replace(cert, residual=max(residual, cert.residual), iterations=used)
    return SeparabilityReport(None, residual, used, exit="fixed-point" if converged else "step-cap")
