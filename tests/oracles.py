"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the underlying
definitions (state-vector chains, Kraus sums, Horodecki criterion, vertex
enumeration) and avoids calling into icolab, so agreement between the two
routes is meaningful evidence.
"""
from __future__ import annotations

from functools import lru_cache
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


def process_born_table(w, chois_a, chois_b, d_f=1):
    """Generalized Born rule cell by cell on a process matrix:
    [i_a, i_b, o_a, o_b] = Re tr[tr_F(W) (M_a (x) M_b)^T], with a trailing
    future factor of dimension ``d_f`` traced out first and each party's
    Choi matrices given as chois[input][outcome]; clipped to [0, 1] like
    the package's tables."""
    n = len(w) // d_f
    w = np.trace(np.asarray(w).reshape(n, d_f, n, d_f), axis1=1, axis2=3)
    probs = np.empty((len(chois_a), len(chois_b), len(chois_a[0]), len(chois_b[0])))
    for ia, ib, oa, ob in product(*(range(k) for k in probs.shape)):
        # tr[W (Ma (x) Mb)^T] = elementwise sum of W * (Ma (x) Mb)
        probs[ia, ib, oa, ob] = np.real(np.sum(w * kron(chois_a[ia][oa], chois_b[ib][ob])))
    return np.clip(probs, 0.0, 1.0)


def process_born_table_with_future(w, chois_a, chois_b, povm):
    """[i_a, i_b, o_a, o_b, k] = Re tr[W ((M_a (x) M_b)^T (x) P_k)] cell by
    cell, with ``povm`` the P_k on the trailing future factor; clipped to
    [0, 1]."""
    probs = np.empty(
        (len(chois_a), len(chois_b), len(chois_a[0]), len(chois_b[0]), len(povm))
    )
    for ia, ib, oa, ob, k in product(*(range(n) for n in probs.shape)):
        op = kron(kron(chois_a[ia][oa], chois_b[ib][ob]).T, povm[k])
        probs[ia, ib, oa, ob, k] = np.real(np.trace(np.asarray(w) @ op))
    return np.clip(probs, 0.0, 1.0)


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


def certificate_candidate(x, y, layout):
    """The separability search's candidate builder as it was before the
    search built its candidate from coefficients: from the matrices X, Y of
    the search's terminal affine point, q = tr X / d_O clamped to [0, 1].
    Each part of weight at least 1e-6 is divided by its weight, projected
    onto its order subspace by resets, made Hermitian and renormalized to
    trace d_O; no part is lifted. Returns (q, X', Y') with None for a part
    too light to keep, which the caller pads, or None when a part has
    trace <= 0."""
    d = dict(zip(layout.labels, layout.dims))
    expected = d["A_O"] * d["B_O"]
    q = min(max(float(np.real(np.trace(x)) / expected), 0.0), 1.0)
    parts = []
    for comp, weight, order in ((x, q, "AB"), (y, 1.0 - q, "BA")):
        if weight < 1e-6:
            parts.append(None)
            continue
        mat = order_projection(comp / weight, layout, order)
        mat = 0.5 * (mat + np.conj(mat).T)
        tr = float(np.real(np.trace(mat)))
        if tr <= 0:
            return None
        parts.append(mat * (expected / tr))
    return q, parts[0], parts[1]


def line_split_interval(w, layout, shift=0.0):
    """The order splits X = A + t S, Y = B + (1 - t) S of a bipartite W (no
    future factor) along one line, by the reset projectors above: S is W's
    projection onto both order subspaces, A = P_AB W - S + H and
    B = P_BA W - S - H, with H the matrix ``shift`` (0 by default).
    With S positive definite and S^(-1/2) from its eigendecomposition, X is
    PSD exactly for t >= t_lo = lambda_max(-S^(-1/2) A S^(-1/2)) and Y exactly
    for t <= t_hi = 1 - lambda_max(-S^(-1/2) B S^(-1/2)). Returns (t_lo, t_hi, S)
    as floats and a matrix, or None when S is not positive definite."""
    w = np.asarray(w, dtype=np.complex128)
    p_ab, p_ba = (order_projection(w, layout, order) for order in ("AB", "BA"))
    s = order_projection(p_ab, layout, "BA")
    s = 0.5 * (s + s.conj().T)
    vals, vecs = np.linalg.eigh(s)
    if vals[0] <= len(s) * np.finfo(float).eps * vals[-1]:
        return None
    root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    worst = [np.linalg.eigvalsh(-root @ (p - s + sign * shift) @ root)[-1] for p, sign in ((p_ab, 1.0), (p_ba, -1.0))]
    return float(worst[0]), 1.0 - float(worst[1]), s


def decomposition_defects(w, layout, q, w_ab, w_ba):
    """How far a decomposition W = q W_AB + (1-q) W_BA is from holding, by
    partial traces alone: the largest of each part's Hermiticity defect,
    negative eigenvalue, trace error and distance from its order subspace,
    and separately the relative reconstruction error."""
    d = dict(zip(layout.labels, layout.dims))
    worst = 0.0 if 0.0 <= q <= 1.0 else np.inf
    for part, order in ((w_ab, "AB"), (w_ba, "BA")):
        part = np.asarray(part, dtype=np.complex128)
        worst = max(
            worst,
            np.abs(part - part.conj().T).max(),
            -np.linalg.eigvalsh(part)[0],
            abs(np.real(np.trace(part)) - d["A_O"] * d["B_O"]),
            np.abs(order_projection(part, layout, order) - part).max(),
        )
    recon = np.linalg.norm(q * w_ab + (1 - q) * w_ba - w) / max(1.0, np.linalg.norm(w))
    return float(worst), float(recon)


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


def _face_split_system(w, layout, real=False):
    """The least-squares system of the order split of W on its face, as
    :func:`face_split_residual` describes it: the range basis V, the
    Hermitian basis, the columns and the target. ``real`` takes V from the
    real part of W and keeps the real symmetric basis elements only."""
    w = np.asarray(w, dtype=np.complex128)
    n = len(w)
    vals, vecs = np.linalg.eigh(w.real if real else w)
    v = vecs[:, vals > n * np.finfo(float).eps * vals[-1]]
    r = v.shape[1]
    herms = []
    for i in range(r):
        for j in range(i, r):
            e = np.zeros((r, r), dtype=np.complex128)
            e[i, j] = 1.0
            herms.append(e + e.T if i != j else e)
            if i != j and not real:
                herms.append(1j * (e - e.T))
    off_ab = lambda x: x - order_projection(x, layout, "AB")  # noqa: E731
    off_ba = lambda x: x - order_projection(x, layout, "BA")  # noqa: E731
    flat = lambda a, b: np.concatenate([a.ravel(), b.ravel()]).view(np.float64)  # noqa: E731
    columns = []
    for h in herms:
        x = v @ h @ v.conj().T
        columns.append(flat(off_ab(x), -off_ba(x)))
    target = flat(np.zeros_like(w), -off_ba(w))
    return v, np.array(herms), np.array(columns).T, target


def face_split_residual(w, layout):
    """Least-squares residual of the order split of W on its face: the
    smallest sqrt(||X - P_AB X||^2 + ||Y - P_BA Y||^2) over Hermitian X and
    Y = W - X supported on range(W), with the reset projectors above. range(W)
    is spanned by the eigenvectors of the eigenvalues above dim eps_mach
    lambda_max, and X runs over V H V^dagger for each Hermitian H of a basis
    of the r x r complex Hermitian matrices, one column per basis element.
    Zero (to rounding) exactly when such a split exists, PSD or not."""
    _, _, a, target = _face_split_system(w, layout)
    coef = np.linalg.lstsq(a, target, rcond=None)[0]
    return float(np.linalg.norm(a @ coef - target))


def face_split_margin(w, layout):
    """Best least eigenvalue of the two parts of an order split of W on its
    face, over the splits of :func:`face_split_residual`'s system when they
    form a point or a line: X = V H(c0 + t n) V^dagger and Y = W - X, with c0
    the least-squares coefficients and n the null direction of the columns
    (singular values below 1e-10 of the largest). The parts' eigenvalues are
    taken on range(W), where both live, so min(lambda_min(H), lambda_min(V^dagger
    W V - H)) is concave in t; it is maximized by bisection on the sign of its
    slope, read off the active part's least eigenvector. A real W is searched
    over real splits only: the conjugate of a split is a split with the same
    eigenvalues, so by concavity their real part is as good. Nonnegative (to
    rounding) exactly when a PSD split exists on the face."""
    real = not np.asarray(w).imag.any()
    v, herms, a, target = _face_split_system(w, layout, real)
    coef = np.linalg.lstsq(a, target, rcond=None)[0]
    _, sing, vt = np.linalg.svd(a, full_matrices=False)
    null = vt[sing < 1e-10 * sing[0]]
    if len(null) > 1:
        raise ValueError(f"the face splits form a {len(null)}-dimensional set, not a line")
    w_r = v.conj().T @ np.asarray(w, dtype=np.complex128) @ v
    h0 = np.tensordot(coef, herms, axes=1)
    hn = np.tensordot(null[0], herms, axes=1) if len(null) else np.zeros_like(h0)

    def least(t):
        """min of both parts' least eigenvalues at t, and its slope there"""
        x = h0 + t * hn
        (lx, vx), (ly, vy) = (np.linalg.eigh(m) for m in (x, w_r - x))
        if lx[0] <= ly[0]:
            return lx[0], float(np.real(vx[:, 0].conj() @ hn @ vx[:, 0]))
        return ly[0], -float(np.real(vy[:, 0].conj() @ hn @ vy[:, 0]))

    lo, hi = -1.0, 1.0
    while least(lo)[1] < 0.0:
        lo *= 2.0
    while least(hi)[1] > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if least(mid)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    return float(max(least(lo)[0], least(hi)[0]))


def psd_clip(m):
    """Positive part of a Hermitian matrix from one eigendecomposition of
    the whole matrix, eigenvalues in descending order."""
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    vecs = vecs[:, order]
    return (vecs * np.clip(vals[order], 0.0, None)) @ np.conj(vecs).T


# ---------------------------------------------------------------------------
# definite-order lambda models and the temporal-locality audit, cell by cell

CELL_FLOOR = 1e-12


def _probe_projector(dims, pos, v):
    """|v><v| on factor ``pos``, identity on the others."""
    return kron(*(dm(v) if k == pos else np.eye(d) for k, d in enumerate(dims)))


def definite_order_lambda_arrays(psi, dims, pos, probes_a, probes_b, evolutions):
    """(prior, marginal_i, marginal_j, joint) of the definite-order lambda
    model of a two-measurement circuit on factor ``pos`` of a space with
    factor dimensions ``dims``, built context by context: probe, collapse,
    renormalize, evolve (one unitary per weighted branch), probe again.

    Contexts lambda_b are ordered (branch, first setting, first outcome); a
    cell whose context contradicts the setting, or whose first outcome is
    impossible, is all-zero. Raises if the model's forward statistics miss
    a direct simulation of the circuit by more than 1e-12."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    d_m = dims[pos]
    bases_a = [np.asarray(p, dtype=np.complex128) for p in probes_a]
    bases_b = [np.asarray(p, dtype=np.complex128) for p in probes_b]
    weights = np.array([w for w, _ in evolutions], dtype=np.float64)
    us = [np.asarray(u, dtype=np.complex128) for _, u in evolutions]
    n_a, n_b, n_e = len(bases_a), len(bases_b), len(evolutions)
    n_i = n_j = d_m
    proj_a = [[_probe_projector(dims, pos, ba[:, i]) for i in range(d_m)] for ba in bases_a]
    proj_b = [[_probe_projector(dims, pos, bb[:, j]) for j in range(d_m)] for bb in bases_b]

    marginal_i = np.zeros((n_a, n_e, n_i))
    post = {}
    for a in range(n_a):
        for i in range(n_i):
            branch = proj_a[a][i] @ psi
            p_i = float(np.real(np.vdot(branch, branch)))
            for e in range(n_e):
                marginal_i[a, e, i] = p_i
                post[(e, a, i)] = None if p_i <= CELL_FLOOR else us[e] @ (branch / np.sqrt(p_i))

    keys = [(e, a, i) for e in range(n_e) for a in range(n_a) for i in range(n_i)]
    n_lb = len(keys)
    marginal_j = np.zeros((n_b, n_lb, n_j))
    for k, key in enumerate(keys):
        for b in range(n_b):
            if post[key] is None:
                marginal_j[b, k] = 1.0 / n_j
                continue
            for j in range(n_j):
                amp = proj_b[b][j] @ post[key]
                marginal_j[b, k, j] = float(np.real(np.vdot(amp, amp)))

    prior = np.zeros((n_e, n_lb))
    for k, (e, a, i) in enumerate(keys):
        prior[e, k] = weights[e] * marginal_i[a, e, i] / n_a
    prior /= prior.sum()

    joint = np.zeros((n_a, n_b, n_e, n_lb, n_i, n_j))
    for a in range(n_a):
        for k, (e, a_k, i_k) in enumerate(keys):
            if a_k != a or post[(e, a_k, i_k)] is None:
                continue
            for b in range(n_b):
                joint[a, b, e, k] = np.outer(marginal_i[a, e], marginal_j[b, k])

    for a in range(n_a):
        for b in range(n_b):
            direct = np.zeros((n_i, n_j))
            for e in range(n_e):
                for i in range(n_i):
                    mid = us[e] @ (proj_a[a][i] @ psi)
                    for j in range(n_j):
                        amp = proj_b[b][j] @ mid
                        direct[i, j] += weights[e] * float(np.real(np.vdot(amp, amp)))
            forward = np.zeros((n_i, n_j))
            for k, (e, a_k, i_k) in enumerate(keys):
                if a_k == a:
                    forward[i_k] += prior[e, k] * n_a * marginal_j[b, k]
            if np.max(np.abs(forward - direct)) > 1e-12:
                raise RuntimeError("lambda model fails forward consistency")
    return prior, marginal_i, marginal_j, joint


def temporal_locality_audit(prior, joint, marginal_i, marginal_j):
    """(max_deviation, worst, product_residual, cells_checked, cells_skipped)
    of the screening conditions p(i|a,b,la,lb,j) = p(i|a,la) and
    p(j|a,b,la,lb,i) = p(j|b,lb), one conditional at a time.

    A context with prior weight, cell sum or conditional at or below
    CELL_FLOOR is skipped. ``worst`` is the index tuple (a, b, la, lb, i, j)
    of the first strictly largest deviation, visiting a, b, la, lb in turn
    and, per cell, the conditionals on j before those on i; None when every
    deviation is 0."""
    n_a, n_b, n_la, n_lb, n_i, n_j = joint.shape
    max_dev, worst, checked, skipped, residual = 0.0, None, 0, 0, 0.0
    for a, b, la, lb in product(range(n_a), range(n_b), range(n_la), range(n_lb)):
        cell = joint[a, b, la, lb]
        if prior[la, lb] <= CELL_FLOOR or cell.sum() <= CELL_FLOOR:
            skipped += 1
            continue
        rows = []
        for j in range(n_j):
            pj = cell[:, j].sum()
            if pj > CELL_FLOOR:
                diff = np.abs(cell[:, j] / pj - marginal_i[a, la])
                k = int(np.argmax(diff))
                rows.append((float(diff[k]), (a, b, la, lb, k, j)))
        for i in range(n_i):
            pi = cell[i, :].sum()
            if pi > CELL_FLOOR:
                diff = np.abs(cell[i, :] / pi - marginal_j[b, lb])
                k = int(np.argmax(diff))
                rows.append((float(diff[k]), (a, b, la, lb, i, k)))
        for dev, where in rows:
            checked += 1
            if dev > max_dev:
                max_dev, worst = dev, where
        prod_form = np.outer(marginal_i[a, la], marginal_j[b, lb])
        residual = max(residual, float(np.max(np.abs(cell - prod_form))))
    return max_dev, worst, residual, checked, skipped


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


def one_way_rows(shape, direction):
    """Equality rows on one subnormalized component r[x, y, o1, o2], by
    nested loops: the early party's marginal and the cell weight must not
    depend on the late party's input. Shape (rows, prod(shape))."""
    nx, ny, no1, no2 = shape
    n = nx * ny * no1 * no2
    rows = []

    def idx(x, y, o1, o2):
        return ((x * ny + y) * no1 + o1) * no2 + o2

    if direction == "AB":  # no signaling B -> A: A-marginal independent of y
        for x in range(nx):
            for y in range(1, ny):
                for o1 in range(no1):
                    row = np.zeros(n)
                    for o2 in range(no2):
                        row[idx(x, y, o1, o2)] += 1.0
                        row[idx(x, 0, o1, o2)] -= 1.0
                    rows.append(row)
    else:  # no signaling A -> B: B-marginal independent of x
        for y in range(ny):
            for x in range(1, nx):
                for o2 in range(no2):
                    row = np.zeros(n)
                    for o1 in range(no1):
                        row[idx(x, y, o1, o2)] += 1.0
                        row[idx(0, y, o1, o2)] -= 1.0
                    rows.append(row)
    # equal total weight in every cell
    for x in range(nx):
        for y in range(ny):
            if x == 0 and y == 0:
                continue
            row = np.zeros(n)
            for o1 in range(no1):
                for o2 in range(no2):
                    row[idx(x, y, o1, o2)] += 1.0
                    row[idx(0, 0, o1, o2)] -= 1.0
            rows.append(row)
    return np.array(rows).reshape(-1, n)


# ---------------------------------------------------------------------------
# retired scenario build


def scenario_process_parts(spec):
    """The retired three-process build of a scenario's process matrix: one
    switch process per branch that runs that branch's order only, a coherent
    switch process, and their mixtures by ``mix``. Returns the matrices of
    (W, W_AB, W_BA), the last two None when W is coherent at visibility 1;
    W_AB and W_BA are the two ordered parts when W mixes two orders, and
    the definite or same-order process with the neutral process otherwise.

    Unlike the rest of this module it calls into icolab, for the unchanged
    ``quantum_switch_process`` and ``mix``: what it pins is that the build
    from branch vectors reproduces the old arithmetic bit for bit."""
    from icolab.process import mix, neutral_process, quantum_switch_process

    sw = spec.switch1
    common = {"target_dim": sw.target_dim, "psi_t0": sw.psi_t0}
    branches = spec.branches
    vs = [(sw.v0, sw.v1)[b.index] for b in branches]
    ordered = [
        quantum_switch_process((1.0, 0.0) if b.order == "AB" else (0.0, 1.0), v0=v, v1=v, **common)
        for b, v in zip(branches, vs)
    ]

    def one_order(w, order):
        neutral = neutral_process(w.layout).matrix
        return (w.matrix, neutral) if order == "AB" else (neutral, w.matrix)

    if len(branches) == 1:
        return (ordered[0].matrix, *one_order(ordered[0], branches[0].order))
    b0, b1 = branches
    mixed = mix(ordered[0], ordered[1], b0.weight)
    if b0.order == b1.order:
        return (mixed.matrix, *one_order(mixed, b0.order))
    both = (ordered[0].matrix, ordered[1].matrix)
    if b0.amplitude is None:
        return (mixed.matrix, *both)
    w = quantum_switch_process((b0.amplitude, b1.amplitude), v0=vs[0], v1=vs[1], **common)
    if spec.visibility == 1.0:
        return w.matrix, None, None
    return (mix(w, mixed, spec.visibility).matrix, *(both if spec.visibility == 0.0 else (None, None)))


# ---------------------------------------------------------------------------
# the retired certificate checkers
#
# The decomposition and witness checkers of icolab.process as they stood
# before they were rewritten to reach the same gates in fewer numpy calls,
# kept verbatim, with the helpers whose code has changed since. Unlike the
# oracles above they call into icolab, for the unchanged basis, masks,
# constructors and report type: what they pin is that the rewrite returns
# the same report, bit for bit, and raises where they raise.


def _rounding_bound(n, norm):
    """tau = n^2 eps_mach max(1, ||M||_F), elementwise."""
    return n * n * float(np.finfo(np.float64).eps) * np.maximum(1.0, norm)


def _structure_checked(m: np.ndarray, layout: SpaceLayout, ndim: int) -> np.ndarray:
    """``m``, made read-only, once it passes :class:`ProcessMatrix`'s checks on
    ``layout`` (party labels, ``ndim`` axes ending in (dim, dim), finite,
    Hermitian within HERMITICITY_ATOL) in its own dtype, a stack at once."""
    from icolab.process import HERMITICITY_ATOL, PARTY_LABELS

    if layout.labels[:4] != PARTY_LABELS or layout.labels[4:] not in ((), ("F",)):
        raise ValueError(f"layout must be {PARTY_LABELS} with optional trailing 'F', got {layout.labels}")
    if m.ndim != ndim or m.shape[-2:] != (layout.dim, layout.dim):
        raise ValueError(f"matrix shape {m.shape} does not match layout dimension {layout.dim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    skew = m - m.conj().swapaxes(-1, -2)
    if skew.any() and not np.max(np.abs(skew)) <= HERMITICITY_ATOL:
        raise ValueError("process matrix must be Hermitian")
    m.flags.writeable = False
    return m


def _views(stack: np.ndarray, layout: SpaceLayout) -> tuple[ProcessMatrix, ...]:
    """Read-only views, with no copy or check, of a checked complex128 stack."""
    from icolab.process import ProcessMatrix

    stack.flags.writeable = False
    parts = tuple(object.__new__(ProcessMatrix) for _ in stack)
    for part, m in zip(parts, stack):
        vars(part).update(matrix=m, layout=layout)
    return parts


@lru_cache(maxsize=32)
def _off_order_masks(layout):
    """Read-only stack (1 - AB, 1 - BA) of the masks of what each order
    leaves out, with a parts axis, to broadcast over two parts' coefficients,
    built here from the chain-rule masks, not read from the frame."""
    from icolab.process import hs_basis

    basis = hs_basis(layout)
    out = 1.0 - np.stack((basis.order_mask("AB"), basis.order_mask("BA")))[:, None]
    out.flags.writeable = False
    return out


def _cholesky_exists(mats):
    """Whether every matrix of a Hermitian stack has a Cholesky factor."""
    try:
        np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        return False
    return True


def certified_stack(
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
    stack with those coefficients cached. Certificate (``iterations`` 0) or None."""
    from icolab.process import SeparabilityReport, hs_basis

    m, lay = w.matrix, w.layout
    _structure_checked(own, lay, 3)
    if not 0.0 <= q <= 1.0:
        return None
    taus = _rounding_bound(lay.dim, np.linalg.norm(own, axis=(-2, -1)))
    if not _cholesky_exists(own + taus[:, None, None] * np.eye(lay.dim)):
        return None
    if (np.abs(np.real(np.trace(own, axis1=-2, axis2=-1)) - w.expected_trace) > taus).any():
        return None
    if parts is not None and parts[0]._own.dtype == parts[1]._own.dtype:
        coefs = np.array([p._coef for p in parts])
    else:  # the stack's, also for a real part next to a complex one
        coefs = hs_basis(lay).to_coef(own)
        coefs.flags.writeable = False
    # the basis is orthogonal: a distance to a subspace is the norm of the masked-out coefficients
    if (np.linalg.norm((_off_order_masks(lay) * coefs).reshape(2, -1), axis=1) > taus).any():
        return None
    # frobenius without its input checks: the stack is finite
    recon = float(np.linalg.norm(q * own[0] + (1 - q) * own[1] - m)) / max(1.0, w._norm)
    if recon > _rounding_bound(lay.dim, 1.0):
        return None
    if parts is None:
        parts = _views(np.asarray(own, dtype=np.complex128), lay)
        for part, mat, coef in zip(parts, own, coefs):
            # a part's own arithmetic is the stack's, unless a complex part has no imaginary part
            if own.dtype == np.float64 or mat.imag.any():
                vars(part).update(_own=mat, _coef=coef)
    return SeparabilityReport((q, *parts), recon, 0, exit=exit)


def certified_split(w: ProcessMatrix, mats: np.ndarray, exit: str) -> SeparabilityReport | None:
    """The certificate of the decomposition built from an order split of W,
    the stack (X, Y) of its matrices in the search's dtype, or None.

    q comes from the trace of X. The parts are divided by their weights,
    made Hermitian and renormalized to trace d_O as one stack, which
    :func:`certified_stack` checks as it stands. A part of weight below
    1e-6, a summand of W's split, must pass one Cholesky factorization of
    part + tau I, tau W's :func:`rounding_bound`; the kept part is then
    checked next to the neutral process. The certificate names ``exit``.
    A kept part's trace is positive: every caller's X + Y is W up to
    rounding and W is valid, so tr X + tr Y = d_O >= 1 within tau <
    MAX_DIM^3 eps_mach < 1e-10. Divided by a weight of at least 1e-6, a
    part has trace d_O within 1e-4; kept alone, above d_O - 1e-10."""
    from icolab.process import ProcessMatrix, neutral_process

    lay, d_o = w.layout, w.expected_trace
    q = min(max(float(np.real(np.trace(mats[0]))) / d_o, 0.0), 1.0)
    weights = np.array((q, 1.0 - q))
    kept = weights >= 1e-6
    if not kept.all():
        if not _cholesky_exists(mats[~kept] + w._rounding * np.eye(lay.dim)):
            return None
        mats, weights = mats[kept], weights[kept]
    stack = mats / weights[:, None, None]
    stack = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    stack *= (d_o / np.real(np.trace(stack, axis1=-2, axis2=-1)))[:, None, None]
    if kept.all():
        return certified_stack(w, q, stack, exit)
    parts = tuple(ProcessMatrix(stack[0], lay) if keep else neutral_process(lay) for keep in kept)
    return certified_stack(w, q, np.array([part._own for part in parts]), exit, parts)


def witness_value(w, s):
    """tr(S W) for a Hermitian witness S on the process's space, with the
    input checks of the retired ``icolab.process.witness_value``."""
    from icolab.linalg import HERMITICITY_ATOL, as_matrix

    m = w.matrix
    s = as_matrix(s)
    if s.shape != m.shape:
        raise ValueError(f"witness shape {s.shape} does not match process {m.shape}")
    if not (s.shape[0] == s.shape[1] and bool(np.max(np.abs(s - s.conj().T)) <= HERMITICITY_ATOL)):
        raise ValueError("witness must be Hermitian")
    return float(np.real(np.trace(s @ m)))


def certify_witness(
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
    ||P_AB|| + ||P_BA||, covers. Returns tr(S W)/||S|| or None."""
    from icolab.linalg import frobenius
    from icolab.process import hs_basis

    lay, parts = w.layout, np.stack((p_ab, p_ba))
    basis = hs_basis(lay)
    coefs = basis.to_coef(s - parts)
    # the basis is orthogonal: ||R_X|| is the norm of its masked coefficients
    inside = [np.linalg.norm(basis.order_mask(x) * coef) for coef, x in zip(coefs, ("AB", "BA"))]
    slack = _rounding_bound(lay.dim, np.linalg.norm(p_ab) + np.linalg.norm(p_ba))
    value = witness_value(w, s)
    delta = -value / w.expected_trace - slack - np.array(inside)
    if (delta > 0.0).all() and _cholesky_exists(parts + delta[:, None, None] * np.eye(lay.dim)):
        # the reported value divides by the complex128 norm of S, which report bytes pin
        return value / frobenius(s)
    return None
