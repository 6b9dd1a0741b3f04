"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the underlying
definitions (state-vector chains, Kraus sums, Horodecki criterion, vertex
enumeration) and avoids calling into icolab, so agreement between the two
routes is meaningful evidence.
"""
from __future__ import annotations

from itertools import product

import numpy as np
from scipy.optimize import linprog


def kron(*ops):
    out = np.array([[1.0 + 0.0j]]) if np.asarray(ops[0]).ndim == 2 else np.array([1.0 + 0.0j])
    for op in ops:
        out = np.kron(out, np.asarray(op, dtype=np.complex128))
    return out


def dm(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=np.complex128).ravel()
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# switch circuits


def switch_control_statistics(u_a, u_b, v, psi, alpha, beta, basis):
    """P(outcome) for measuring the control of a single quantum switch in the
    given orthonormal basis (columns), by direct state-vector simulation."""
    branch_ab = np.asarray(u_b) @ np.asarray(v) @ np.asarray(u_a) @ np.asarray(psi)
    branch_ba = np.asarray(u_a) @ np.asarray(v) @ np.asarray(u_b) @ np.asarray(psi)
    state = alpha * kron(np.array([1.0, 0.0]), branch_ab) + beta * kron(
        np.array([0.0, 1.0]), branch_ba
    )
    basis = np.asarray(basis, dtype=np.complex128)
    d_t = branch_ab.size
    probs = []
    for k in range(basis.shape[1]):
        proj = kron(dm(basis[:, k]), np.eye(d_t))
        probs.append(float(np.real(np.vdot(state, proj @ state))))
    return np.array(probs)


def double_switch_conditioned(u_a, u_b, v, psi, alpha, beta, control_vec):
    """(probability, normalized joint target state) after projecting the
    control of a coherent double switch onto ``control_vec``."""
    t_ab = np.asarray(u_b) @ np.asarray(v) @ np.asarray(u_a) @ np.asarray(psi)
    t_ba = np.asarray(u_a) @ np.asarray(v) @ np.asarray(u_b) @ np.asarray(psi)
    state = alpha * kron(np.array([1.0, 0.0]), t_ab, t_ab) + beta * kron(
        np.array([0.0, 1.0]), t_ba, t_ba
    )
    c = np.asarray(control_vec, dtype=np.complex128)
    c = c / np.linalg.norm(c)
    d_t = t_ab.size**2
    amp = (kron(c.conj().reshape(1, 2), np.eye(d_t)) @ state).ravel()
    p = float(np.real(np.vdot(amp, amp)))
    return p, amp / np.sqrt(p)


# ---------------------------------------------------------------------------
# entanglement and CHSH


def negativity(rho, d1, d2):
    r = np.asarray(rho, dtype=np.complex128).reshape(d1, d2, d1, d2)
    pt = r.transpose(2, 1, 0, 3).reshape(d1 * d2, d1 * d2)
    vals = np.linalg.eigvalsh(pt)
    return (np.abs(vals).sum() - 1.0) / 2.0


_PAULI = [
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
]


def correlation_matrix(rho):
    """T_ij = Re tr[rho (sigma_i (x) sigma_j)], one Kronecker product per entry."""
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            t[i, j] = np.real(np.trace(np.asarray(rho) @ kron(_PAULI[i], _PAULI[j])))
    return t


def born_table(rho, proj_a, proj_b):
    """Born-rule table [x, y, o1, o2] = Re tr[rho (P^x_o1 (x) P^y_o2)], cell by
    cell, from each party's projectors given as proj[input][outcome]; clipped
    to [0, 1] like the package's tables."""
    probs = np.empty((len(proj_a), len(proj_b), 2, 2))
    for x, y, o1, o2 in product(range(len(proj_a)), range(len(proj_b)), range(2), range(2)):
        probs[x, y, o1, o2] = np.real(np.trace(np.asarray(rho) @ kron(proj_a[x][o1], proj_b[y][o2])))
    return np.clip(probs, 0.0, 1.0)


def horodecki_chsh_max(rho):
    """Maximal CHSH value of a two-qubit state: 2 sqrt(t1^2 + t2^2) with
    t1 >= t2 the two largest singular values of the correlation matrix."""
    s = np.linalg.svd(correlation_matrix(rho), compute_uv=False)
    return 2.0 * np.sqrt(s[0] ** 2 + s[1] ** 2)


def chsh_from_observables(rho, obs_a, obs_b):
    e = np.empty((2, 2))
    for x in range(2):
        for y in range(2):
            e[x, y] = np.real(np.trace(np.asarray(rho) @ kron(obs_a[x], obs_b[y])))
    return e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]


# ---------------------------------------------------------------------------
# sequential (definite-order) circuit statistics


def kraus_from_choi(choi, d_in, d_out, tol=1e-12):
    """Kraus operators of a CP map from its Choi matrix (column-stacking
    convention: C = sum_ij |i><j| (x) K|i><j|K^dag summed over Kraus)."""
    c = np.asarray(choi, dtype=np.complex128)
    vals, vecs = np.linalg.eigh(c)
    ops = []
    for lam, v in zip(vals, vecs.T):
        if lam > tol:
            ops.append(np.sqrt(lam) * v.reshape(d_in, d_out).T)
    return ops


def apply_kraus(rho, ops):
    return sum(k @ rho @ k.conj().T for k in ops)


def sequential_statistics(pre, mid_kraus, instr_a, instr_b):
    """p(a, b) for state -> instrument A -> channel -> instrument B, with
    instruments given as lists (per outcome) of Kraus-operator lists."""
    probs = np.empty((len(instr_a), len(instr_b)))
    for oa, ka in enumerate(instr_a):
        rho_a = apply_kraus(np.asarray(pre, dtype=np.complex128), ka)
        rho_mid = apply_kraus(rho_a, mid_kraus)
        for ob, kb in enumerate(instr_b):
            probs[oa, ob] = np.real(np.trace(apply_kraus(rho_mid, kb)))
    return probs


def switch_instrument_statistics(alpha, beta, v0, v1, psi, instr_a, instr_b, future_basis):
    """p(a, b, k) for the quantum switch with instruments inserted at both
    slots and the control measured in ``future_basis`` afterwards, by a
    Kraus-sum state-vector simulation.

    Branch AB applies A's Kraus then v0 then B's; branch BA applies B's then
    v1 then A's; the unnormalized outcome vector sums coherently over the
    control superposition and the probability sums incoherently over Kraus
    indices.
    """
    v0 = np.asarray(v0, dtype=np.complex128)
    v1 = np.asarray(v1, dtype=np.complex128)
    psi = np.asarray(psi, dtype=np.complex128)
    basis = np.asarray(future_basis, dtype=np.complex128)
    probs = np.zeros((len(instr_a), len(instr_b), basis.shape[1]))
    for oa, ob in product(range(len(instr_a)), range(len(instr_b))):
        for ka, kb in product(instr_a[oa], instr_b[ob]):
            branch_ab = kb @ v0 @ ka @ psi
            branch_ba = ka @ v1 @ kb @ psi
            vec = alpha * kron(np.array([1.0, 0.0]), branch_ab) + beta * kron(
                np.array([0.0, 1.0]), branch_ba
            )
            for k in range(basis.shape[1]):
                proj = kron(dm(basis[:, k]), np.eye(psi.size))
                probs[oa, ob, k] += float(np.real(np.vdot(vec, proj @ vec)))
    return probs


def measure_reprepare_kraus(povm_effect, reprep_state, tol=1e-12):
    """Kraus list of rho -> tr(E rho) sigma."""
    e_vals, e_vecs = np.linalg.eigh(np.asarray(povm_effect, dtype=np.complex128))
    s_vals, s_vecs = np.linalg.eigh(np.asarray(reprep_state, dtype=np.complex128))
    ops = []
    for mu, ev in zip(e_vals, e_vecs.T):
        if mu <= tol:
            continue
        for lam, sv in zip(s_vals, s_vecs.T):
            if lam <= tol:
                continue
            ops.append(np.sqrt(mu * lam) * np.outer(sv, ev.conj()))
    return ops


# ---------------------------------------------------------------------------
# process-matrix subspaces by trace-and-replace


def reset_factors(w, layout, labels):
    """Trace out the factors named in ``labels`` and put back identity/d in
    place: X -> (I_X / d_X) (x) tr_X[W]. ``layout`` needs ``labels`` and
    ``dims``; the factors are big-endian like ``numpy.kron``."""
    dims = tuple(layout.dims)
    n = len(dims)
    t = np.asarray(w, dtype=np.complex128).reshape(dims + dims)
    for lab in labels:
        k = list(layout.labels).index(lab)
        reduced = np.expand_dims(np.trace(t, axis1=k, axis2=n + k), (k, n + k))
        eye = np.eye(dims[k]).reshape([dims[k] if i in (k, n + k) else 1 for i in range(2 * n)])
        t = reduced * eye / dims[k]
    return t.reshape(np.shape(w))


def validity_projection(w, layout):
    """Projection onto the valid bipartite processes (no future factor), as
    the inclusion-exclusion sum of resets."""
    r = lambda labs: reset_factors(w, layout, labs)  # noqa: E731
    return (
        r(("A_O",))
        + r(("B_O",))
        - r(("A_O", "B_O"))
        - r(("B_I", "B_O"))
        + r(("A_O", "B_I", "B_O"))
        - r(("A_I", "A_O"))
        + r(("A_I", "A_O", "B_O"))
    )


def order_projection(w, layout, order):
    """Projection onto the processes of one causal order ("AB" or "BA"):
    a channel with memory from the first party to the second (and on to the
    future factor "F" when there is one)."""
    first_o, second_i, second_o = ("A_O", "B_I", "B_O") if order == "AB" else ("B_O", "A_I", "A_O")
    w = np.asarray(w, dtype=np.complex128)
    r = lambda x, labs: reset_factors(x, layout, labs)  # noqa: E731
    inner = w - r(w, (first_o,))
    if "F" in layout.labels:
        # P = id - R_F(id - R_so) - R_F R_so R_si (id - R_fo)
        return w - r(w - r(w, (second_o,)), ("F",)) - r(inner, ("F", second_o, second_i))
    # P = R_so [id - R_si (id - R_fo)]
    return r(w, (second_o,)) - r(inner, (second_o, second_i))


def witness_margin(w, layout, s, p_ab, p_ba, tol=1e-9):
    """Check a causal nonseparability witness S with its parts P_AB, P_BA
    (Araujo et al., NJP 17, 102001, 2015) by the reset projectors above:
    S - P_X must have no component in order X's subspace (up to tol ||S||).
    Returns tr(S W) + max(eps_AB, eps_BA) d_O, eps_X the negative part of
    lambda_min(P_X): negative when S certifies W nonseparable, and +inf when
    the decomposition of S fails."""
    s = np.asarray(s, dtype=np.complex128)
    eps = 0.0
    for p, order in ((p_ab, "AB"), (p_ba, "BA")):
        if np.linalg.norm(order_projection(s - p, layout, order)) > tol * np.linalg.norm(s):
            return np.inf
        eps = max(eps, -float(np.linalg.eigvalsh(p)[0]))
    d_o = dict(zip(layout.labels, layout.dims))
    return float(np.real(np.trace(s @ w))) + eps * d_o["A_O"] * d_o["B_O"]


# ---------------------------------------------------------------------------
# causal polytope by vertex enumeration (1-bit alphabets)


def causal_polytope_vertices():
    """All deterministic one-way behaviors at binary alphabets: o1 = f(x),
    o2 = g(x, y) for order A<B, mirrored for B<A. 128 vertices (with the
    both-way-compatible ones listed twice)."""
    vertices = []
    for f0, f1 in product(range(2), repeat=2):
        for g in product(range(2), repeat=4):
            table = np.zeros((2, 2, 2, 2))
            for x, y in product(range(2), repeat=2):
                o1 = (f0, f1)[x]
                o2 = g[2 * x + y]
                table[x, y, o1, o2] = 1.0
            vertices.append(table.ravel())
    for f0, f1 in product(range(2), repeat=2):
        for g in product(range(2), repeat=4):
            table = np.zeros((2, 2, 2, 2))
            for x, y in product(range(2), repeat=2):
                o2 = (f0, f1)[y]
                o1 = g[2 * y + x]
                table[x, y, o1, o2] = 1.0
            vertices.append(table.ravel())
    return np.array(vertices).T  # shape (16, 128)


_VERTICES = causal_polytope_vertices()


def causal_polytope_member(table, tol=1e-9):
    """Hull membership of a binary behavior table via LP feasibility over the
    enumerated vertices. With its default options HiGHS reports some
    near-deterministic no-signaling tables (entries down to 1e-17) as
    infeasible; at a primal feasibility tolerance of 1e-10 it finds their
    decomposition, which the reconstruction bound below still checks."""
    p = np.asarray(table, dtype=np.float64).ravel()
    n = _VERTICES.shape[1]
    a_eq = np.vstack([_VERTICES, np.ones((1, n))])
    b_eq = np.concatenate([p, [1.0]])
    res = linprog(
        c=np.zeros(n),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * n,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10},
    )
    if res.status == 0:
        recon = _VERTICES @ res.x
        return bool(np.max(np.abs(recon - p)) <= max(tol, 1e-7))
    return False
