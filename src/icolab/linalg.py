"""Dense complex linear algebra over small composite Hilbert spaces.

Index convention: composite spaces are big-endian — the leftmost tensor
factor is the most significant index block, so ``tensor(A, B)`` places ``A``
on the slow index exactly like ``numpy.kron``. All operators are dense
``complex128`` matrices; states are 1-d arrays. Factor bookkeeping is done
with :class:`SpaceLayout`, which names each factor and records its local
dimension.

Ambient dimensions are capped at ``MAX_DIM`` (64): the toolkit targets
desk-scale scenarios, and the cap turns silent size explosions into errors.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

MAX_DIM = 64

HERMITICITY_ATOL = 1e-9


def as_matrix(m: np.ndarray) -> np.ndarray:
    """Coerce to a 2-d complex128 array, validating finiteness."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered factorization of a composite space into named subsystems."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate subsystem labels in {self.labels}")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"factor dimensions must be positive: {self.dims}")
        if self.dim > MAX_DIM:
            raise ValueError(
                f"ambient dimension {self.dim} exceeds capacity {MAX_DIM}"
            )

    @property
    def dim(self) -> int:
        return prod(self.dims)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown subsystem label {label!r}; have {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.index(label)]


def tensor(*operands: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor most significant.

    Accepts matrices or vectors (vectors are treated as columns and returned
    flat). Raises a capacity error if the result would exceed ``MAX_DIM``
    rows or columns.
    """
    if not operands:
        raise ValueError("tensor() needs at least one operand")
    arrays = [np.asarray(op, dtype=np.complex128) for op in operands]
    all_vectors = all(a.ndim == 1 for a in arrays)
    mats = [a.reshape(-1, 1) if a.ndim == 1 else a for a in arrays]
    if any(m.ndim != 2 for m in mats):
        raise ValueError("tensor() takes matrices and vectors")
    rows = prod(m.shape[0] for m in mats)
    cols = prod(m.shape[1] for m in mats)
    if max(rows, cols) > MAX_DIM:
        raise ValueError(
            f"tensor result of shape ({rows}, {cols}) exceeds capacity {MAX_DIM}"
        )
    # One broadcast product per pair: the entrywise products np.kron forms.
    out = mats[0]
    for m in mats[1:]:
        r, c = out.shape[0] * m.shape[0], out.shape[1] * m.shape[1]
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(r, c)
    # one check for every operand: a non-finite entry times anything is non-finite (0 * inf is nan)
    if not np.isfinite(out).all():
        raise ValueError("matrix contains non-finite entries")
    return out.reshape(-1) if all_vectors else out


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(as_matrix(m)).T


def is_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> bool:
    return _is_hermitian(as_matrix(m), atol)


def _is_hermitian(a: np.ndarray, atol: float = HERMITICITY_ATOL) -> bool:
    """:func:`is_hermitian` of a matrix :func:`as_matrix` has already returned."""
    return a.shape[0] == a.shape[1] and bool(np.max(np.abs(a - a.conj().T)) <= atol)


def is_unitary(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(dagger(a) @ a - np.eye(a.shape[0]))) <= atol)


def partial_trace(
    rho: np.ndarray, layout: SpaceLayout, keep: tuple[str, ...] | list[str] | set[str]
) -> np.ndarray:
    """Reduced operator on the kept factors; trace is preserved.

    ``keep`` is a collection of labels from ``layout``; the result keeps them
    in layout order. Tracing out every factor returns a 1x1 matrix holding
    tr(rho).
    """
    rho = as_matrix(rho)
    n = len(layout.dims)
    if rho.shape != (layout.dim, layout.dim):
        raise ValueError(
            f"operator shape {rho.shape} does not match layout dimension {layout.dim}"
        )
    keep_set = set(keep)
    for lab in keep_set:
        if lab not in layout.labels:
            raise KeyError(f"unknown subsystem label {lab!r}; have {layout.labels}")
    keep_idx = [i for i, lab in enumerate(layout.labels) if lab in keep_set]
    traced_idx = [i for i in range(n) if i not in keep_idx]
    t = rho.reshape(layout.dims + layout.dims)
    for i in sorted(traced_idx, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    d_keep = prod(layout.dims[i] for i in keep_idx) if keep_idx else 1
    return t.reshape(d_keep, d_keep)


def permute_factors(
    m: np.ndarray, layout: SpaceLayout, new_order: tuple[str, ...]
) -> tuple[np.ndarray, SpaceLayout]:
    """Reorder the tensor factors of an operator (rows and columns together).

    Returns the permuted matrix and the matching layout.
    """
    m = as_matrix(m)
    if m.shape != (layout.dim, layout.dim):
        raise ValueError(
            f"operator shape {m.shape} does not match layout dimension {layout.dim}"
        )
    if sorted(new_order) != sorted(layout.labels):
        raise ValueError(f"{new_order} is not a permutation of {layout.labels}")
    perm = [layout.index(lab) for lab in new_order]
    n = len(perm)
    t = m.reshape(layout.dims + layout.dims)
    t = t.transpose(perm + [p + n for p in perm])
    new_layout = SpaceLayout(tuple(new_order), tuple(layout.dims[p] for p in perm))
    return t.reshape(layout.dim, layout.dim), new_layout


def permute_vector_factors(
    v: np.ndarray, layout: SpaceLayout, new_order: tuple[str, ...]
) -> tuple[np.ndarray, SpaceLayout]:
    """Reorder the tensor factors of a state vector."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != layout.dim:
        raise ValueError(f"vector size {v.size} does not match layout dimension {layout.dim}")
    if sorted(new_order) != sorted(layout.labels):
        raise ValueError(f"{new_order} is not a permutation of {layout.labels}")
    perm = [layout.index(lab) for lab in new_order]
    t = v.reshape(layout.dims).transpose(perm)
    new_layout = SpaceLayout(tuple(new_order), tuple(layout.dims[p] for p in perm))
    return t.reshape(-1), new_layout


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, descending) and matching eigenvector columns.

    Raises on non-Hermitian input. Eigenvectors are defined only up to phase
    and degenerate-subspace rotation; callers must not compare them entrywise.
    """
    a = as_matrix(m)
    if not _is_hermitian(a):
        raise ValueError("eig_hermitian requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    return vals[order].real, vecs[:, order]


def is_psd(m: np.ndarray, tol: float) -> bool:
    """True iff ``m`` is Hermitian and its minimum eigenvalue is >= -tol."""
    a = as_matrix(m)
    if not _is_hermitian(a):
        raise ValueError("is_psd requires a Hermitian matrix")
    return bool(np.linalg.eigvalsh(a)[0] >= -tol)


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(as_matrix(m)))


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| (v need not be normalized)."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    return np.outer(v, v.conj())


def ket(index: int, dim: int = 2) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


# Named single-qubit operators used throughout the toolkit.
I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)

NAMED_UNITARIES: dict[str, np.ndarray] = {"I": I2, "X": X, "Y": Y, "Z": Z, "H": H}

PLUS = np.array([1, 1], dtype=np.complex128) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=np.complex128) / np.sqrt(2)
