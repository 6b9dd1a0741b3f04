"""Behavior tables, CHSH evaluation, the classical bound, and the
closed-form optimal CHSH settings of a two-qubit state.

Outcomes are labeled 0 and 1 and carry eigenvalues +1 and -1, so the
correlator for one input pair is E = p00 - p01 - p10 + p11. The CHSH
functional used throughout is S = E(0,0) + E(0,1) + E(1,0) - E(1,1), with
classical bound 2 and quantum bound 2*sqrt(2).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .linalg import X, Y, Z, as_matrix, is_psd

PAULI = np.stack([X, Y, Z])

TSIRELSON = 2.0 * np.sqrt(2.0)


def bloch_observable(theta: float, phi: float) -> np.ndarray:
    """+-1-outcome qubit observable along the (theta, phi) Bloch direction."""
    n = np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    return np.einsum("i,ijk->jk", n, PAULI)


@dataclass(frozen=True)
class MeasurementSetting:
    """One party's dichotomic qubit observables, one per input value,
    parameterized by Bloch angles (theta, phi)."""

    angles: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "angles", tuple((float(t), float(p)) for t, p in self.angles)
        )

    @property
    def inputs(self) -> int:
        return len(self.angles)

    def observable(self, x: int) -> np.ndarray:
        return bloch_observable(*self.angles[x])

    def projectors(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """(P_+, P_-) for input x; outcome 0 is the +1 eigenspace."""
        o = self.observable(x)
        eye = np.eye(2)
        return (eye + o) / 2.0, (eye - o) / 2.0

    @classmethod
    def from_bloch_vectors(cls, vectors: np.ndarray) -> "MeasurementSetting":
        angles = []
        for v in np.atleast_2d(vectors):
            v = v / np.linalg.norm(v)
            angles.append((np.arccos(np.clip(v[2], -1.0, 1.0)), np.arctan2(v[1], v[0])))
        return cls(tuple(angles))

    @classmethod
    def z_x(cls) -> "MeasurementSetting":
        """Inputs 0/1 measure Z and X."""
        return cls(((0.0, 0.0), (np.pi / 2, 0.0)))

    @classmethod
    def diagonal(cls) -> "MeasurementSetting":
        """Inputs 0/1 measure (Z+X)/sqrt2 and (Z-X)/sqrt2."""
        return cls(((np.pi / 4, 0.0), (np.pi / 4, np.pi)))


@dataclass(frozen=True)
class BehaviorTable:
    """Conditional probability table p(o1, o2 | i1, i2), indexed
    [i1, i2, o1, o2]."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 4:
            raise ValueError(f"expected a 4-index table, got shape {p.shape}")
        # NaN fails every comparison below, so it must be rejected here
        if not np.isfinite(p).all():
            raise ValueError("probs contains non-finite entries")
        if p.min() < -1e-10 or p.max() > 1.0 + 1e-10:
            raise ValueError("probabilities must lie in [0, 1]")
        sums = p.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > 1e-10:
            raise ValueError("each conditional distribution must sum to 1")
        object.__setattr__(self, "probs", p)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.probs.shape

    def first_marginals(self) -> np.ndarray:
        """p(o1 | i1, i2) as an [i1, i2, o1] array."""
        return self.probs.sum(axis=3)

    def second_marginals(self) -> np.ndarray:
        """p(o2 | i1, i2) as an [i1, i2, o2] array."""
        return self.probs.sum(axis=2)


@dataclass(frozen=True)
class CHSHResult:
    """CHSH value with the correlators and settings that produced it."""

    value: float
    correlators: np.ndarray
    settings: tuple[MeasurementSetting, MeasurementSetting] | None = None

    def __post_init__(self) -> None:
        e = np.asarray(self.correlators, dtype=np.float64)
        if e.shape != (2, 2):
            raise ValueError(f"correlators must be 2x2, got {e.shape}")
        for name, arr in (("value", self.value), ("correlators", e)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "correlators", e)
        combo = e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]
        if abs(self.value - combo) > 1e-12:
            raise ValueError(
                f"reported S={self.value} differs from correlator combination {combo}"
            )


def behavior(
    rho: np.ndarray, c1: MeasurementSetting, c2: MeasurementSetting
) -> BehaviorTable:
    """Born-rule behavior table of a two-qubit state under the settings."""
    rho = as_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a two-qubit density operator, got shape {rho.shape}")
    # projectors indexed [input, outcome, 2, 2]; every cell's P_a (x) P_b at
    # once, indexed [x, y, o1, o2, 4, 4]
    pa = np.array([c1.projectors(x) for x in range(c1.inputs)])
    pb = np.array([c2.projectors(y) for y in range(c2.inputs)])
    k = pa[:, None, :, None, :, None, :, None] * pb[None, :, None, :, None, :, None, :]
    probs = _expectations(rho, k.reshape(c1.inputs, c2.inputs, 2, 2, 4, 4))
    return BehaviorTable(np.clip(probs, 0.0, 1.0))


def chsh(
    table: BehaviorTable,
    settings: tuple[MeasurementSetting, MeasurementSetting] | None = None,
) -> CHSHResult:
    """Evaluate the CHSH functional on a binary-alphabet behavior table."""
    if table.shape != (2, 2, 2, 2):
        raise ValueError(f"CHSH needs binary inputs and outputs, got shape {table.shape}")
    p = table.probs
    e = p[:, :, 0, 0] - p[:, :, 0, 1] - p[:, :, 1, 0] + p[:, :, 1, 1]
    s = e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]
    return CHSHResult(value=float(s), correlators=e, settings=settings)


def classical_chsh_bound() -> float:
    """Maximum of S over the 16 deterministic local strategies (exactly 2)."""
    best = -np.inf
    for a0, a1, b0, b1 in product((1, -1), repeat=4):
        best = max(best, a0 * b0 + a0 * b1 + a1 * b0 - a1 * b1)
    return float(best)


def _expectations(rho: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Re tr[rho K] for every 4x4 operator K in the last two axes of ``ops``."""
    return np.real(np.trace(rho @ ops, axis1=-2, axis2=-1))


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 spin correlation matrix T_ij = tr[rho (sigma_i x sigma_j)]."""
    rho = as_matrix(rho)
    k = PAULI[:, None, :, None, :, None] * PAULI[None, :, None, :, None, :]
    return _expectations(rho, k.reshape(3, 3, 4, 4))


def chsh_settings(rho: np.ndarray) -> tuple[MeasurementSetting, MeasurementSetting]:
    """Optimal CHSH settings of a two-qubit state, in closed form.

    With T = U diag(s) V^T the SVD of the correlation matrix and
    tan(theta) = s2/s1, the settings a0 = u1, a1 = u2 and
    b0,1 = cos(theta) v1 +- sin(theta) v2 reach S = 2 sqrt(s1^2 + s2^2),
    the Horodecki maximum (Phys. Lett. A 200, 340, 1995). The full SVD
    returns orthonormal U and V even when T has rank <= 1, so every
    setting is a unit Bloch vector. ``rho`` is a two-qubit density operator;
    to optimize the targets of a switch after a control outcome, condition
    first (``switch.conditioned_target_state`` or
    ``switch.condition_on_control``).
    """
    arr = as_matrix(rho)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a two-qubit density operator, got shape {np.shape(rho)}")
    if not is_psd(arr, 1e-8):
        raise ValueError("input must be positive semidefinite")

    u, s, vt = np.linalg.svd(correlation_matrix(arr))
    theta = np.arctan2(s[1], s[0])
    along, across = np.cos(theta) * vt[0], np.sin(theta) * vt[1]
    c1 = MeasurementSetting.from_bloch_vectors(u[:, :2].T)
    c2 = MeasurementSetting.from_bloch_vectors(np.stack([along + across, along - across]))
    return c1, c2


def optimize_chsh(rho: np.ndarray) -> CHSHResult:
    """Best CHSH value over measurement settings, at ``chsh_settings(rho)``.

    The returned value is recomputed from the Born-rule behavior at the
    optimal settings, so it can never exceed the quantum bound.
    """
    settings = chsh_settings(rho)
    return chsh(behavior(rho, *settings), settings=settings)
