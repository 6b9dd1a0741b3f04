"""Quantum-switch state construction: single switch, entangled double switch,
event-input reduced states, classical-order counterparts, and the control
measurement performed by the final party.

A switch runs a target system through two operations ``u_a`` and ``u_b`` in
an order selected by a control qubit: control |0> gives u_a-then-u_b with
free evolution ``v0`` in between, control |1> gives u_b-then-u_a with ``v1``
in between. States live on control (x) target with the control first
(most significant), so a switch output for target dimension d is a vector of
length 2*d.

The double switch drives two independent targets with one shared first
factor: the order control, or with ``env_flag`` a retained environment that
coherently selects the free evolution under a definite order (a different
physical story with the same algebra, reusing the control amplitudes).
``DoubleSwitchSpec.branches`` is the one place that reads ``order_mode``,
``env_flag`` and ``mixture_q``. A branch is a first-factor basis state |k>,
an order (AB or BA), the free evolution v_k, and an amplitude (superposed
branches) or a classical weight (mixed branches):

    coherent            (0, AB, alpha), (1, BA, beta)
    classical-mixture   (0, AB, q), (1, BA, 1 - q)      mixed
    definite-AB / -BA   (0, AB, 1) / (1, BA, 1)         one branch
    env_flag            (0, X, alpha), (1, X, beta)     X the definite order

``visibility`` < 1 damps superposed branches (the output is then a density
operator). They are coherent while it is above 0; at 0 they are a mixture
with weights |alpha|^2, |beta|^2. Only coherent branches of both orders make
the order indefinite.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    HERMITICITY_ATOL,
    I2,
    MINUS,
    PLUS,
    SpaceLayout,
    as_matrix,
    eig_hermitian,
    is_normalized_pair,
    is_psd,
    is_unitary,
    ket,
    partial_trace,
    projector,
    tensor,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)

ORDER_MODES = ("coherent", "classical-mixture", "definite-AB", "definite-BA")


def _check_unitary(name: str, u: np.ndarray, dim: int) -> np.ndarray:
    u = as_matrix(u)
    if u.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {u.shape}")
    if not is_unitary(u):
        raise ValueError(f"{name} is not unitary within {HERMITICITY_ATOL}")
    return u


@dataclass(frozen=True)
class SwitchSpec:
    """Full parameterization of a single quantum switch.

    ``control_amplitudes`` are the (alpha, beta) coefficients of the control
    state alpha|0> + beta|1>; the default is the balanced superposition.
    """

    u_a: np.ndarray
    u_b: np.ndarray
    v0: np.ndarray = field(default_factory=lambda: I2.copy())
    v1: np.ndarray = field(default_factory=lambda: I2.copy())
    psi_t0: np.ndarray = field(default_factory=lambda: ket(0))
    control_amplitudes: tuple[complex, complex] = (INV_SQRT2, INV_SQRT2)

    def __post_init__(self) -> None:
        psi = np.asarray(self.psi_t0, dtype=np.complex128).reshape(-1)
        object.__setattr__(self, "psi_t0", psi)
        d = psi.size
        for name in ("u_a", "u_b", "v0", "v1"):
            object.__setattr__(self, name, _check_unitary(name, getattr(self, name), d))
        if not abs(np.linalg.norm(psi) - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError("psi_t0 must be a unit vector")
        if not is_normalized_pair(*self.control_amplitudes):
            raise ValueError("control_amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")

    @property
    def target_dim(self) -> int:
        return self.psi_t0.size

    @property
    def layout(self) -> SpaceLayout:
        return SpaceLayout(("control", "target"), (2, self.target_dim))

    def branch_unitary(self, order: str, free: int) -> np.ndarray:
        """Composed target evolution for one order ("AB" or "BA") with free
        evolution v0 (``free`` 0) or v1 (1) in between."""
        v = (self.v0, self.v1)[free]
        if order == "AB":
            return self.u_b @ v @ self.u_a
        if order == "BA":
            return self.u_a @ v @ self.u_b
        raise ValueError(f"order must be 'AB' or 'BA', got {order!r}")


def switch_output(spec: SwitchSpec) -> np.ndarray:
    """Final control (x) target state vector of the switch."""
    alpha, beta = spec.control_amplitudes
    branch0 = spec.branch_unitary("AB", 0) @ spec.psi_t0
    branch1 = spec.branch_unitary("BA", 1) @ spec.psi_t0
    return alpha * tensor(ket(0), branch0) + beta * tensor(ket(1), branch1)


def event_input_state(spec: SwitchSpec, event: str) -> np.ndarray:
    """Target state immediately before the first ("E1") or second ("E2")
    operation, as a branch-weighted density operator.

    Both branches feed the initial target into whichever operation occurs
    first, so E1 is the initial state itself; E2 mixes the two half-evolved
    branch states with the control weights.
    """
    alpha, beta = spec.control_amplitudes
    if event == "E1":
        return projector(spec.psi_t0)
    if event == "E2":
        mid0 = spec.v0 @ spec.u_a @ spec.psi_t0
        mid1 = spec.v1 @ spec.u_b @ spec.psi_t0
        return abs(alpha) ** 2 * projector(mid0) + abs(beta) ** 2 * projector(mid1)
    raise ValueError(f"event must be 'E1' or 'E2', got {event!r}")


@dataclass(frozen=True)
class ControlMeasurement:
    """Projective measurement on the control factor: an orthonormal basis
    with one outcome label per basis vector."""

    basis: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        vecs = tuple(np.asarray(v, dtype=np.complex128).reshape(-1) for v in self.basis)
        object.__setattr__(self, "basis", vecs)
        if len(vecs) != len(self.labels):
            raise ValueError("one label per basis vector required")
        d = vecs[0].size
        completeness = sum(projector(v) for v in vecs)
        if not np.max(np.abs(completeness - np.eye(d))) <= 1e-10:  # NaN fails too
            raise ValueError("basis vectors must form a complete orthonormal set")

    @property
    def dim(self) -> int:
        return self.basis[0].size

    @classmethod
    def computational(cls) -> "ControlMeasurement":
        return cls((ket(0), ket(1)), ("0", "1"))

    @classmethod
    def plus_minus(cls) -> "ControlMeasurement":
        return cls((PLUS.copy(), MINUS.copy()), ("+", "-"))

    @classmethod
    def from_bloch(cls, theta: float, phi: float) -> "ControlMeasurement":
        """Basis of the +1/-1 eigenvectors of the (theta, phi) Bloch direction."""
        up = np.array(
            [np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)],
            dtype=np.complex128,
        )
        down = np.array(
            [-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)],
            dtype=np.complex128,
        )
        return cls((up, down), ("+", "-"))


def measure_control(
    state: np.ndarray, m: ControlMeasurement
) -> list[tuple[str, float, np.ndarray]]:
    """Projective control measurement on a control (x) target pure state.

    Returns one (outcome label, probability, post-measurement target state)
    triple per basis vector. Post states are unit norm whenever the outcome
    probability is above 1e-12 (below that the unnormalized residual is
    returned).
    """
    psi = np.asarray(state, dtype=np.complex128).reshape(-1)
    d_c = m.dim
    if psi.size % d_c != 0:
        raise ValueError(
            f"state of size {psi.size} is not divisible by control dimension {d_c}"
        )
    blocks = psi.reshape(d_c, -1)
    results = []
    for label, v in zip(m.labels, m.basis):
        amp = np.conj(v) @ blocks
        p = float(np.real(np.vdot(amp, amp)))
        post = amp / np.sqrt(p) if p > 1e-12 else amp
        results.append((label, p, post))
    total = sum(p for _, p, _ in results)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"outcome probabilities sum to {total}, expected 1")
    return results


def condition_on_control(
    rho: np.ndarray, m: ControlMeasurement, outcome: str, layout: SpaceLayout
) -> tuple[float, np.ndarray]:
    """Condition a control (x) rest density operator on one control outcome.

    Returns (probability, normalized post-measurement state of the rest).
    """
    rho = as_matrix(rho)
    if layout.labels[0] != "control" and layout.labels[0] != "env":
        raise ValueError(f"first factor must be the measured one, got {layout.labels}")
    v = m.basis[m.labels.index(outcome)]
    d_c = m.dim
    d_rest = layout.dim // d_c
    blocks = rho.reshape(d_c, d_rest, d_c, d_rest)
    reduced = np.einsum("i,iajk,j->ak", np.conj(v), blocks, v)
    p = float(np.real(np.trace(reduced)))
    if p <= 1e-12:
        return p, reduced
    return p, reduced / p


@dataclass(frozen=True)
class Branch:
    """One branch of a double switch (see the module docstring); ``amplitude``
    is None for mixed branches, ``weight`` is |amplitude|^2 or the mixture weight."""

    index: int
    order: str
    amplitude: complex | None
    weight: float


@dataclass(frozen=True)
class DoubleSwitchSpec:
    """Two switches driven by one shared control (or environment) qubit.

    The per-switch control amplitudes are ignored; ``control_amplitudes``
    here drives both. ``switch1.v0``/``switch1.v1`` are the free evolutions
    of target 1 in the two branches (likewise for switch 2). Whether A5
    holds, that the free evolution does not depend on the branch, is read
    off them: ``a5_satisfied``.
    """

    switch1: SwitchSpec
    switch2: SwitchSpec
    control_amplitudes: tuple[complex, complex] = (INV_SQRT2, INV_SQRT2)
    order_mode: str = "coherent"
    mixture_q: float = 0.5
    env_flag: bool = False
    visibility: float = 1.0

    def __post_init__(self) -> None:
        if self.order_mode not in ORDER_MODES:
            raise ValueError(f"order_mode must be one of {ORDER_MODES}, got {self.order_mode!r}")
        if not is_normalized_pair(*self.control_amplitudes):
            raise ValueError("control_amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
        if not 0.0 <= self.mixture_q <= 1.0:
            raise ValueError(f"mixture_q must lie in [0, 1], got {self.mixture_q}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")
        if self.env_flag and self.order_mode not in ("definite-AB", "definite-BA"):
            raise ValueError("env_flag requires a definite order_mode")

    @property
    def a5_satisfied(self) -> bool:
        """Whether v0 == v1 entrywise in both switches."""
        return all(np.array_equal(sw.v0, sw.v1) for sw in (self.switch1, self.switch2))

    @property
    def layout(self) -> SpaceLayout:
        first = "env" if self.env_flag else "control"
        return SpaceLayout(
            (first, "target1", "target2"),
            (2, self.switch1.target_dim, self.switch2.target_dim),
        )

    @property
    def branches(self) -> tuple[Branch, ...]:
        """The branches of this spec, in first-factor order."""
        a, b = self.control_amplitudes
        mode = self.order_mode
        if self.env_flag:
            return Branch(0, mode[-2:], a, abs(a) ** 2), Branch(1, mode[-2:], b, abs(b) ** 2)
        if mode == "coherent":
            return Branch(0, "AB", a, abs(a) ** 2), Branch(1, "BA", b, abs(b) ** 2)
        if mode == "classical-mixture":
            q = self.mixture_q
            return Branch(0, "AB", None, q), Branch(1, "BA", None, 1.0 - q)
        return (Branch(0, "AB", None, 1.0),) if mode == "definite-AB" else (Branch(1, "BA", None, 1.0),)

    @property
    def coherent(self) -> bool:
        """Whether the branches are superposed with visibility > 0."""
        return self.branches[0].amplitude is not None and self.visibility > 0.0

    @property
    def indefinite_order(self) -> bool:
        """Whether coherent branches run the operations in different orders."""
        return self.coherent and len({b.order for b in self.branches}) > 1

    def branch_vector(self, branch: Branch) -> np.ndarray:
        """Joint target1 (x) target2 state of one branch."""
        t1 = self.switch1.branch_unitary(branch.order, branch.index) @ self.switch1.psi_t0
        t2 = self.switch2.branch_unitary(branch.order, branch.index) @ self.switch2.psi_t0
        return tensor(t1, t2)


def double_switch_output(spec: DoubleSwitchSpec) -> np.ndarray:
    """Joint first factor (x) target1 (x) target2 state of the double switch.

    Returns a state vector for a single branch or fully visible superposed
    branches, and a density operator for mixed branches or visibility < 1.
    """
    branches = spec.branches
    kets = [tensor(ket(b.index), spec.branch_vector(b)) for b in branches]
    if len(branches) == 1:
        return kets[0]
    (b0, b1), (k0, k1) = branches, kets
    if b0.amplitude is None:
        return b0.weight * projector(k0) + b1.weight * projector(k1)
    out = b0.amplitude * k0 + b1.amplitude * k1
    if spec.visibility == 1.0:
        return out
    # damp the first factor's off-diagonal blocks
    blocks = np.outer(out, out.conj()).reshape(2, out.size // 2, 2, out.size // 2)
    blocks[0, :, 1, :] *= spec.visibility
    blocks[1, :, 0, :] *= spec.visibility
    return blocks.reshape(out.size, out.size)


def target_entanglement(rho: np.ndarray, dims: tuple[int, int]) -> float:
    """Negativity (||rho^T1||_1 - 1) / 2 across the target1 : target2 cut
    of a density operator (validated PSD and unit trace) on d1 (x) d2."""
    d1, d2 = dims
    n = d1 * d2
    arr = as_matrix(rho)
    if arr.shape != (n, n):
        raise ValueError(
            f"expected a {n}x{n} density operator for dims {tuple(dims)}, got shape {np.shape(rho)}"
        )
    if abs(np.trace(arr).real - 1.0) > 1e-8 or abs(np.trace(arr).imag) > 1e-8:
        raise ValueError("input must have unit trace")
    if not is_psd(arr, 1e-8):
        raise ValueError("input must be positive semidefinite")
    t = arr.reshape(d1, d2, d1, d2)
    pt = t.transpose(2, 1, 0, 3).reshape(n, n)
    vals, _ = eig_hermitian(pt)
    trace_norm = float(np.sum(np.abs(vals)))
    return max(0.0, (trace_norm - 1.0) / 2.0)


def _output_density(spec: DoubleSwitchSpec) -> np.ndarray:
    out = double_switch_output(spec)
    return projector(out) if out.ndim == 1 else out


def conditioned_target_state(
    spec: DoubleSwitchSpec, m: ControlMeasurement, outcome: str
) -> tuple[float, np.ndarray]:
    """Probability of the control outcome and the resulting joint target
    density operator, for any order mode."""
    return condition_on_control(_output_density(spec), m, outcome, spec.layout)


def reduced_target_state(spec: DoubleSwitchSpec) -> np.ndarray:
    """Joint target density operator with the control traced out."""
    return partial_trace(_output_density(spec), spec.layout, ("target1", "target2"))
