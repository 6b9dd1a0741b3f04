"""Correlation-level causal analysis: signaling detection, membership in the
definite-order (causal) polytope (a linear program for signaling tables
only), and the temporal-locality audit.

The audit checks the factorization conditions

    p(i | a, b, lambda_a, lambda_b, j) = p(i | a, lambda_a)
    p(j | a, b, lambda_a, lambda_b, i) = p(j | b, lambda_b)

on a finite, fully declared model. The lambda values are conditioning
contexts (descriptions of the world prior to each measurement), not jointly
sampled random variables: a model declares, for every cell
(a, b, lambda_a, lambda_b), the joint outcome law it assigns to that
context, plus the local laws p(i|a,lambda_a) and p(j|b,lambda_b) it claims
to factor through. A cell whose joint sums to 0 is declared impossible
(e.g. lambda_b records a different earlier setting) and is skipped, as are
conditionals below the 1e-12 probability floor.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import prod

import numpy as np

from .bell import BehaviorTable
from .linalg import SpaceLayout, as_matrix

CELL_FLOOR = 1e-12
AUDIT_TOL = 1e-10  # the audit passes when no screening deviation exceeds it

# the LP's largest accepted slack, and the largest no-signaling marginal dependence
CAUSAL_TOL = 1e-9

# HiGHS meets its rows to its primal feasibility tolerance (default 1e-7);
# causal_membership re-validates at 1e-8, so solve well inside that gate.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10}

MAX_ALPHABET = 4


# --- signaling ------------------------------------------------------------

@dataclass(frozen=True)
class SignalingDirections:
    a_to_b: bool
    b_to_a: bool


def marginal_dependence(t: BehaviorTable) -> tuple[float, float]:
    """(a_to_b, b_to_a): the largest change of each party's marginal over the other's input."""
    pb, pa = t.second_marginals(), t.first_marginals()  # [i1, i2, o2], [i1, i2, o1]
    return float(np.max(np.ptp(pb, axis=0))), float(np.max(np.ptp(pa, axis=1)))


def signaling_directions(t: BehaviorTable, tol: float = CAUSAL_TOL) -> SignalingDirections:
    """Which way the table signals: a_to_b iff B's marginal depends on A's
    input by more than tol (and symmetrically)."""
    a_to_b, b_to_a = marginal_dependence(t)
    return SignalingDirections(a_to_b=a_to_b > tol, b_to_a=b_to_a > tol)


# --- causal polytope membership -------------------------------------------

@dataclass(frozen=True)
class CausalDecomposition:
    """Convex split of a behavior into one-way-signaling components:
    table = q * component_ab + (1-q) * component_ba."""

    q: float
    component_ab: BehaviorTable
    component_ba: BehaviorTable

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {self.q}")

    def reconstruction(self) -> np.ndarray:
        return self.q * self.component_ab.probs + (1.0 - self.q) * self.component_ba.probs


@dataclass(frozen=True)
class NotCausal:
    """Evidence of non-membership: the minimal elementwise slack by which
    any ordered decomposition misses the table."""

    violation_margin: float


def _one_way_rows(shape: tuple[int, int, int, int], direction: str) -> np.ndarray:
    """Equality rows on one subnormalized component r[x, y, o1, o2] forcing
    it to signal one way at most: the early party's marginal and the cell
    weight must not depend on the late party's input. Each row is a
    difference against input 0 (row j of diff(k) is e_{j+1} - e_0), summed
    over the outcomes it does not constrain."""
    nx, ny, no1, no2 = shape

    def diff(k: int) -> np.ndarray:
        return np.eye(k)[1:] - np.eye(k)[:1]

    if direction == "AB":  # no signaling B -> A: A-marginal independent of y
        marginal = reduce(np.kron, (np.eye(nx), diff(ny), np.eye(no1), np.ones((1, no2))))
    elif direction == "BA":  # no signaling A -> B: B-marginal independent of x
        rows = reduce(np.kron, (diff(nx), np.eye(ny), np.ones((1, no1)), np.eye(no2)))
        # in the LP's (y, x, o2) row order: the order can change which optimum HiGHS returns
        by_x = rows.reshape(nx - 1, ny, no2, rows.shape[1])
        marginal = by_x.swapaxes(0, 1).reshape(rows.shape)
    else:
        raise ValueError(direction)
    # equal total weight in every cell (the component's subnormalization)
    cells = np.kron(diff(nx * ny), np.ones((1, no1 * no2)))
    return np.vstack([marginal, cells])


def _component_table(r: np.ndarray, shape: tuple[int, int, int, int]) -> BehaviorTable:
    """Normalize a subnormalized component cell by cell into a behavior."""
    arr = np.clip(r.reshape(shape), 0.0, None)
    sums = arr.sum(axis=(2, 3), keepdims=True)
    nx, ny, no1, no2 = shape
    uniform = np.full((no1, no2), 1.0 / (no1 * no2))
    out = np.where(sums > CELL_FLOOR, arr / np.where(sums > CELL_FLOOR, sums, 1.0), uniform)
    return BehaviorTable(out)


def causal_membership(t: BehaviorTable) -> CausalDecomposition | NotCausal:
    """Membership in the causal polytope (mixtures of one-way signaling behaviors).

    A no-signaling table (marginal dependence <= CAUSAL_TOL both ways), such
    as every table of a quantum switch (Araujo et al., NJP 17, 102001, 2015),
    is its own A-first and B-first component: every q works, and q = 1.0 is
    fixed so that no solver picks it. A signaling table goes to an LP: min
    epsilon over subnormalized components r1 (A-first) and r2 (B-first)
    with r1 + r2 matching the table within epsilon elementwise; feasibility
    at epsilon <= CAUSAL_TOL yields a decomposition, which is re-validated
    arithmetically before being returned.
    """
    shape = t.shape
    if max(shape) > MAX_ALPHABET:
        raise ValueError(
            f"alphabets up to {MAX_ALPHABET} supported, got table shape {shape}"
        )
    if max(marginal_dependence(t)) <= CAUSAL_TOL:
        return CausalDecomposition(q=1.0, component_ab=t, component_ba=t)
    # scipy.optimize takes most of a second to import; load it only here
    from scipy.optimize import linprog

    p = t.probs.reshape(-1)
    n = p.size
    ab, ba = _one_way_rows(shape, "AB"), _one_way_rows(shape, "BA")
    a_eq = np.zeros((len(ab) + len(ba), 2 * n + 1))
    a_eq[: len(ab), :n] = ab
    a_eq[len(ab) :, n : 2 * n] = ba
    b_eq = np.zeros(len(a_eq))
    # |r1 + r2 - p| <= eps, elementwise
    ident = np.hstack([np.eye(n), np.eye(n)])
    a_ub = np.vstack(
        [
            np.hstack([ident, -np.ones((n, 1))]),
            np.hstack([-ident, -np.ones((n, 1))]),
        ]
    )
    b_ub = np.concatenate([p, -p])
    cost = np.zeros(2 * n + 1)
    cost[-1] = 1.0
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    margin = float(res.x[-1])
    if margin > CAUSAL_TOL:
        return NotCausal(violation_margin=margin)
    r1 = res.x[:n].reshape(shape)
    q = float(np.clip(r1.sum() / (shape[0] * shape[1]), 0.0, 1.0))
    comp_ab = _component_table(res.x[:n], shape)
    comp_ba = _component_table(res.x[n : 2 * n], shape)
    decomp = CausalDecomposition(q=q, component_ab=comp_ab, component_ba=comp_ba)
    check = 10.0 * CAUSAL_TOL
    if np.max(np.abs(decomp.reconstruction() - t.probs)) > check:
        raise RuntimeError("solver returned a decomposition that fails re-validation")
    if q > check and signaling_directions(comp_ab, check).b_to_a:
        raise RuntimeError("A-first component signals backwards")
    if (1.0 - q) > check and signaling_directions(comp_ba, check).a_to_b:
        raise RuntimeError("B-first component signals backwards")
    return decomp


# --- lambda models and the temporal-locality audit -------------------------

@dataclass(frozen=True)
class LambdaModel:
    """Finite declared model of two timed measurements.

    Arrays:
      prior[la, lb]                weights of the lambda contexts (sum 1)
      joint[a, b, la, lb, i, j]    declared outcome law per context;
                                   an all-zero cell marks an impossible
                                   setting/context combination
      marginal_i[a, la, i]         declared local law of the first outcome
      marginal_j[b, lb, j]         declared local law of the second outcome
    """

    lambda_a: tuple[str, ...]
    lambda_b: tuple[str, ...]
    prior: np.ndarray
    joint: np.ndarray
    marginal_i: np.ndarray
    marginal_j: np.ndarray

    def __post_init__(self) -> None:
        prior = np.asarray(self.prior, dtype=np.float64)
        joint = np.asarray(self.joint, dtype=np.float64)
        mi = np.asarray(self.marginal_i, dtype=np.float64)
        mj = np.asarray(self.marginal_j, dtype=np.float64)
        n_la, n_lb = len(self.lambda_a), len(self.lambda_b)
        if prior.shape != (n_la, n_lb):
            raise ValueError(f"prior shape {prior.shape} != {(n_la, n_lb)}")
        if joint.ndim != 6 or joint.shape[2:4] != (n_la, n_lb):
            raise ValueError(f"joint must be [a,b,la,lb,i,j], got shape {joint.shape}")
        n_a, n_b, _, _, n_i, n_j = joint.shape
        if mi.shape != (n_a, n_la, n_i) or mj.shape != (n_b, n_lb, n_j):
            raise ValueError("declared marginals do not match the joint's shape")
        # NaN fails every comparison below, so it must be rejected here
        arrays = (("prior", prior), ("joint", joint), ("marginal_i", mi), ("marginal_j", mj))
        for name, arr in arrays:
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
        if prior.min() < -1e-12 or abs(prior.sum() - 1.0) > 1e-10:
            raise ValueError("prior weights must be nonnegative and sum to 1")
        if joint.min() < -1e-12:
            raise ValueError("joint entries must be nonnegative")
        sums = joint.sum(axis=(4, 5))
        good = (np.abs(sums - 1.0) <= 1e-10) | (np.abs(sums) <= 1e-10)
        if not good.all():
            raise ValueError("each cell's joint must sum to 1 (or 0 if impossible)")
        for name, m in (("marginal_i", mi), ("marginal_j", mj)):
            if m.min() < -1e-12 or np.max(np.abs(m.sum(axis=-1) - 1.0)) > 1e-10:
                raise ValueError(f"{name} rows must be normalized distributions")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "marginal_i", mi)
        object.__setattr__(self, "marginal_j", mj)

    @classmethod
    def factorized(
        cls,
        marginal_i: np.ndarray,
        marginal_j: np.ndarray,
        prior: np.ndarray,
        lambda_a: tuple[str, ...] | None = None,
        lambda_b: tuple[str, ...] | None = None,
    ) -> "LambdaModel":
        """Model whose every cell is the product of the declared local laws."""
        mi = np.asarray(marginal_i, dtype=np.float64)
        mj = np.asarray(marginal_j, dtype=np.float64)
        joint = np.einsum("axi,byj->abxyij", mi, mj)
        la = lambda_a or tuple(f"la{k}" for k in range(mi.shape[1]))
        lb = lambda_b or tuple(f"lb{k}" for k in range(mj.shape[1]))
        return cls(la, lb, prior, joint, mi, mj)


@dataclass(frozen=True)
class AuditReport:
    """Result of the temporal-locality audit."""

    passed: bool
    max_deviation: float
    worst_case: tuple | None
    product_residual: float
    cells_checked: int
    cells_skipped: int
    cell_floor: float = CELL_FLOOR

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_deviation": self.max_deviation,
            "worst_case": list(self.worst_case) if self.worst_case else None,
            "product_residual": self.product_residual,
            "cells_checked": self.cells_checked,
            "cells_skipped": self.cells_skipped,
            "cell_floor": self.cell_floor,
        }


def _screening(cells: np.ndarray, declared: np.ndarray, live: np.ndarray):
    """One screening equation on every conditional at once. ``cells`` holds
    each cell's joint with the conditioned outcome on the last axis, one
    conditional per row of the axis before it; ``declared`` is the local law
    it must equal. Returns (checkable, deviation, argmax) per conditional."""
    total = cells.sum(axis=-1)
    ok = live[..., None] & (total > CELL_FLOOR)
    diff = np.abs(cells / np.where(ok, total, 1.0)[..., None] - declared)
    return ok, diff.max(axis=-1), diff.argmax(axis=-1)


def temporal_locality_audit(m: LambdaModel) -> AuditReport:
    """Check the two screening equalities on every admissible cell, plus the
    combined product form p(i,j|...) = p(i|a,la) * p(j|b,lb).

    A context whose prior weight, cell sum or conditional is at or below
    CELL_FLOOR is skipped. ``worst_case`` is the first strictly largest
    deviation in the order a, b, lambda_a, lambda_b, then per cell the
    conditionals on j before those on i.
    """
    joint, mi, mj = m.joint, m.marginal_i, m.marginal_j
    n_j = joint.shape[5]
    live = (m.prior > CELL_FLOOR) & (joint.sum(axis=(4, 5)) > CELL_FLOOR)  # [a, b, la, lb]
    # p(i | ..., j) per j, then p(j | ..., i) per i, each row's argmax its free outcome
    ok_i, dev_i, arg_i = _screening(joint.swapaxes(4, 5), mi[:, None, :, None, None, :], live)
    ok_j, dev_j, arg_j = _screening(joint, mj[None, :, None, :, None, :], live)
    ok = np.concatenate([ok_i, ok_j], axis=-1)
    dev = np.concatenate([dev_i, dev_j], axis=-1)
    # a NaN deviation never counts as larger, as in a running strict maximum
    rank = np.where(ok & (dev > 0.0), dev, -1.0)
    worst = None
    max_dev = 0.0
    if rank.size and rank.max() > 0.0:
        a, b, la, lb, row = np.unravel_index(int(np.argmax(rank)), rank.shape)
        max_dev = float(dev[a, b, la, lb, row])
        if row < n_j:
            i, j = arg_i[a, b, la, lb, row], row
        else:
            i, j = row - n_j, arg_j[a, b, la, lb, row - n_j]
        worst = (int(a), int(b), m.lambda_a[la], m.lambda_b[lb], int(i), int(j))
    prod_form = mi[:, None, :, None, :, None] * mj[None, :, None, :, None, :]
    residual = np.abs(joint - prod_form).max(axis=(4, 5))[live]
    return AuditReport(
        passed=max_dev <= AUDIT_TOL,
        max_deviation=max_dev,
        worst_case=worst,
        product_residual=float(np.fmax.reduce(residual, initial=0.0)),
        cells_checked=int(ok.sum()),
        cells_skipped=int(live.size - live.sum()),
    )


# --- model generation from definite-order dynamics -------------------------

def _probe_projectors(layout: SpaceLayout, label: str, bases: np.ndarray) -> np.ndarray:
    """|v><v| on one factor, identity elsewhere, for each column v of each
    basis: shape [basis, column, dim, dim]."""
    pos = layout.index(label)
    left, right = np.eye(prod(layout.dims[:pos])), np.eye(prod(layout.dims[pos + 1 :]))
    # C order: each projector then meets BLAS as a lone matrix would, so the
    # batched products below round exactly as one product per projector does
    cols = np.ascontiguousarray(bases.swapaxes(1, 2))
    proj = cols[..., :, None] * np.conj(cols)[..., None, :]
    full = (
        left[:, None, None, :, None, None]
        * proj[:, :, None, :, None, None, :, None]
        * right[None, None, :, None, None, :]
    )
    return full.reshape(bases.shape[:2] + (layout.dim, layout.dim))


def _probe_law(proj: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Born probabilities [basis, outcome, *state axes] of each probe basis on
    each (unnormalized) state in ``states`` [*state axes, dim]."""
    extra = (None,) * (states.ndim - 1)
    amp = np.matmul(proj[(slice(None), slice(None)) + extra], states[..., None])[..., 0]
    return np.vecdot(amp, amp).real


def lambda_model_from_definite_order(
    initial_state: np.ndarray,
    layout: SpaceLayout,
    measured: str,
    probes_a: list[np.ndarray],
    probes_b: list[np.ndarray],
    evolutions: list[tuple[float, np.ndarray]] | None = None,
) -> LambdaModel:
    """Build the lambda model of a definite-order two-measurement circuit
    with lambda set to the full pre-measurement state description.

    The circuit: the world starts in ``initial_state``; the first
    measurement probes the ``measured`` factor in basis probes_a[a]
    (columns) giving outcome i; the world then evolves by one unitary from
    ``evolutions`` (classical weights; use a single controlled unitary for
    a coherent environment); the second measurement probes the same factor
    in basis probes_b[b] giving j.

    lambda_a enumerates the possible worlds before the first measurement
    (one per evolution branch, since that configuration already exists);
    lambda_b enumerates full post-collapse evolved states, indexed by
    (branch, a, i) — it therefore contains the first party's setting and
    outcome, which is exactly what screens them off from j. Declared cell
    joints are the products of the declared local laws; cells whose
    lambda_b context contradicts the actual setting or branch are marked
    impossible. Before returning, the model's forward statistics are
    checked against a direct state-vector simulation and a mismatch raises.
    """
    psi = np.asarray(initial_state, dtype=np.complex128).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("initial_state must be a unit vector")
    if psi.size != layout.dim:
        raise ValueError(f"state size {psi.size} does not match layout dim {layout.dim}")
    d_m = layout.dim_of(measured)
    if evolutions is None:
        evolutions = [(1.0, np.eye(layout.dim))]
    weights = np.array([w for w, _ in evolutions], dtype=np.float64)
    if weights.min() < 0 or abs(weights.sum() - 1.0) > 1e-10:
        raise ValueError("evolution weights must be a distribution")
    bases_a = [as_matrix(p) for p in probes_a]
    bases_b = [as_matrix(p) for p in probes_b]
    for basis in bases_a + bases_b:
        if basis.shape != (d_m, d_m):
            raise ValueError("each probe basis must be square on the measured factor")
        if np.max(np.abs(np.conj(basis).T @ basis - np.eye(d_m))) > 1e-9:
            raise ValueError("probe basis columns must be orthonormal")
    us = np.array([as_matrix(u) for _, u in evolutions])
    n_a, n_b, n_e = len(bases_a), len(bases_b), len(evolutions)
    n_i = n_j = d_m
    n_lb = n_e * n_a * n_i
    proj_a = _probe_projectors(layout, measured, np.array(bases_a))
    proj_b = _probe_projectors(layout, measured, np.array(bases_b))

    # first-measurement law and collapsed, evolved context states, indexed
    # like lambda_b: (branch, a, i)
    branch = np.matmul(proj_a, psi)  # [a, i, dim]
    p_i = np.vecdot(branch, branch).real
    reach = p_i > CELL_FLOOR
    unit = branch / np.sqrt(np.where(reach, p_i, 1.0))[..., None]
    post = np.matmul(us[:, None, None], unit[None, ..., None])[..., 0]  # [e, a, i, dim]
    reach_k = np.broadcast_to(reach, (n_e, n_a, n_i)).reshape(-1)
    marginal_i = np.repeat(p_i[:, None, :], n_e, axis=1)

    lambda_a = tuple(f"branch{e}:pre-measurement state" for e in range(n_e))
    lambda_b = tuple(
        f"branch{e}:post a={a},i={i} evolved state"
        for e in range(n_e)
        for a in range(n_a)
        for i in range(n_i)
    )

    # unreachable contexts get the uniform law (any law works)
    law_b = _probe_law(proj_b, post.reshape(n_lb, -1)).transpose(0, 2, 1)  # [b, k, j]
    marginal_j = np.where(reach_k[None, :, None], law_b, 1.0 / n_j)

    weighted = weights[:, None, None] * p_i[None] / n_a  # [e, a, i]
    prior = np.zeros((n_e, n_e, n_a * n_i))
    prior[np.arange(n_e), np.arange(n_e)] = weighted.reshape(n_e, -1)
    prior = prior.reshape(n_e, n_lb)
    prior /= prior.sum()

    # a cell is possible when its context k = (e, a, i) has the cell's branch
    # and setting and a reachable first outcome
    key_e, key_a, _ = np.unravel_index(np.arange(n_lb), (n_e, n_a, n_i))
    possible = (
        (key_a[None, None, :] == np.arange(n_a)[:, None, None])
        & (key_e[None, None, :] == np.arange(n_e)[None, :, None])
        & reach_k
    )  # [a, e, k]
    products = marginal_i[:, None, :, None, :, None] * marginal_j[None, :, None, :, None, :]
    joint = np.where(possible[:, None, :, :, None, None], products, 0.0)

    # forward consistency: the model must reproduce the circuit exactly
    mid = np.matmul(us[:, None, None], branch[None, ..., None])[..., 0]  # [e, a, i, dim]
    direct = np.einsum("e,beaij->abij", weights, _probe_law(proj_b, mid).transpose(0, 2, 3, 4, 1))
    own = prior.reshape(n_e, n_e, n_a, n_i)[np.arange(n_e), np.arange(n_e)]  # [e, a, i]
    forward = np.einsum(
        "eai,beaij->abij", own * n_a, marginal_j.reshape(n_b, n_e, n_a, n_i, n_j)
    )
    if np.max(np.abs(forward - direct)) > 1e-12:
        raise RuntimeError("generated model fails forward consistency against the circuit")
    return LambdaModel(lambda_a, lambda_b, prior, joint, marginal_i, marginal_j)

