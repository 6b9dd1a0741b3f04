import ast
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from icolab import process
from icolab.linalg import (
    HERMITICITY_ATOL,
    Z,
    SpaceLayout,
    frobenius,
    ket,
    partial_trace,
    projector,
    tensor,
)
from icolab.process import (
    EPS_MACH,
    PARTY_LABELS,
    SEARCH_TOL,
    Instrument,
    ProcessMatrix,
    apply_choi,
    born_probabilities,
    born_probabilities_with_future,
    choi_of_kraus,
    choi_of_unitary,
    _certified_stack,
    _certify_witness,
    _order_split,
    _psd_clip,
    certify_decomposition,
    depolarizing_choi,
    hs_basis,
    identity_choi,
    mix,
    neutral_process,
    order_projection,
    ordered_process,
    process_stack,
    quantum_switch_process,
    rounding_bound,
    separability_heuristic,
    standard_layout,
    validate_process,
    validity_projection,
    vec,
    witness_value,
)
from icolab.sampling import (
    haar_unitary,
    random_density,
    random_hermitian,
    random_instrument,
    random_povm,
    random_valid_process,
)
from icolab.scenarios import BUILTIN_SCENARIOS, ScenarioConfig, _scenario_process, run_scenario

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _report_bytes():
    """tools/report_bytes.py, whose seeded search inputs these tests draw,
    so that its --searches record and the tests search the same processes."""
    path = Path(__file__).resolve().parents[1] / "tools" / "report_bytes.py"
    spec = importlib.util.spec_from_file_location("report_bytes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT_BYTES = _report_bytes()
coherent_process = REPORT_BYTES.coherent_process
phase_rotated = REPORT_BYTES.phase_rotated
pure_ordered_process = REPORT_BYTES.pure_ordered_process
undamped_ordered_mixtures = REPORT_BYTES.undamped_ordered_mixtures
lightly_damped_mixtures = REPORT_BYTES.lightly_damped_mixtures
product_processes = REPORT_BYTES.product_processes


# ---------------------------------------------------------------------------
# Choi conventions


def test_vec_convention():
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    # |u>> = sum_j |j> (x) u|j>: index (j, i) holds u[i, j]
    assert np.allclose(vec(u), [1.0, 3.0, 2.0, 4.0])


def test_choi_of_unitary_acts_correctly():
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = haar_unitary(rng, 3)
        rho = random_density(rng, 3)
        out = apply_choi(choi_of_unitary(u), rho)
        assert np.abs(out - u @ rho @ u.conj().T).max() < 1e-12


def test_choi_of_kraus_matches_sum():
    rng = np.random.default_rng(1)
    ks = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    s = sum(k.conj().T @ k for k in ks)
    w = np.linalg.inv(np.linalg.cholesky(s)).conj().T
    ks = [k @ w for k in ks]  # now trace preserving
    rho = random_density(rng, 2)
    out = apply_choi(choi_of_kraus(ks), rho)
    assert np.abs(out - sum(k @ rho @ k.conj().T for k in ks)).max() < 1e-12


def test_identity_and_depolarizing_choi():
    rho = random_density(np.random.default_rng(2), 2)
    assert np.abs(apply_choi(identity_choi(2), rho) - rho).max() < 1e-12
    out = apply_choi(depolarizing_choi(2, 0.3), rho)
    assert np.abs(out - (0.7 * rho + 0.3 * np.eye(2) / 2)).max() < 1e-12


def test_choi_of_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        choi_of_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_kraus_from_choi_oracle_roundtrip():
    # sanity for the test oracle itself: Kraus extracted from a Choi matrix
    # reproduce the channel action
    rng = np.random.default_rng(3)
    u = haar_unitary(rng, 2)
    ks = oracles.kraus_from_choi(choi_of_unitary(u), 2, 2)
    rho = random_density(rng, 2)
    assert np.abs(oracles.apply_kraus(rho, ks) - u @ rho @ u.conj().T).max() < 1e-10


# ---------------------------------------------------------------------------
# instruments


def test_instrument_unitary_is_tp():
    ins = Instrument.unitary(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert ins.n_inputs == 1 and ins.n_outcomes == 1


def test_instrument_rejects_non_tp():
    half = choi_of_unitary(np.eye(2)) / 2
    with pytest.raises(ValueError):
        Instrument(((half,),), 2, 2)


def test_measure_reprepare_chois():
    e0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e1 = np.eye(2) - e0
    sigma = projector(np.array([INV_SQRT2, INV_SQRT2]))
    ins = Instrument.measure_reprepare([[e0, e1]], [[sigma, sigma]])
    assert ins.n_inputs == 1 and ins.n_outcomes == 2
    assert np.abs(ins.chois[0][0] - tensor(e0.T, sigma)).max() < 1e-12


# ---------------------------------------------------------------------------
# validity


def test_neutral_process_is_valid():
    lay = standard_layout(2)
    rep = validate_process(neutral_process(lay))
    assert rep.is_valid
    assert rep.subspace_residual < 1e-12


def test_neutral_process_needs_one_check_per_layout():
    # the neutral process pads every one-order decomposition; it is one
    # shared instance per layout, valid, and a fixed point of both order
    # projections, so a single validity check serves every run
    for lay in (standard_layout(2), standard_layout(2, 4)):
        w = neutral_process(lay)
        assert neutral_process(lay) is w
        assert lay.dim in (16, 64)
        assert validate_process(w).is_valid
        for order in ("AB", "BA"):
            assert frobenius(order_projection(w.matrix, lay, order) - w.matrix) < 1e-12


def test_process_matrix_keeps_a_read_only_copy():
    lay = standard_layout(2)
    m = np.eye(16, dtype=np.complex128) / 4.0
    w = ProcessMatrix(m, lay)
    assert w.matrix is not m
    with pytest.raises(ValueError):
        w.matrix[0, 1] = 5.0
    m[0, 1] = 5.0  # the caller's array stays writable, and w does not see the write
    assert w.matrix[0, 1] == 0.0
    assert validate_process(w).is_valid
    assert validate_process(w) is validate_process(w)


def test_random_valid_processes_validate():
    rng = np.random.default_rng(4)
    for _ in range(10):
        w = random_valid_process(rng)
        assert validate_process(w).is_valid


def test_generic_hermitian_fails_validation():
    rng = np.random.default_rng(5)
    lay = standard_layout(2)
    h = random_hermitian(rng, lay.dim)
    h = h @ h  # PSD
    h *= 4.0 / np.trace(h).real
    rep = validate_process(ProcessMatrix(h, lay))
    assert not rep.is_valid
    assert rep.subspace_residual > 1e-3


def test_negative_matrix_fails_psd():
    lay = standard_layout(2)
    m = neutral_process(lay).matrix.copy()
    m[0, 0] = -1.0
    m[-1, -1] += 1.0 + m[0, 0]
    rep = validate_process(ProcessMatrix(0.5 * (m + m.conj().T), lay))
    assert rep.psd_margin < -0.5
    assert not rep.is_valid


def test_validity_projection_is_idempotent():
    rng = np.random.default_rng(6)
    lay = standard_layout(2)
    h = random_hermitian(rng, lay.dim)
    once = validity_projection(h, lay)
    twice = validity_projection(once, lay)
    assert frobenius(twice - once) < 1e-10
    # valid processes are fixed points
    w = random_valid_process(rng)
    assert frobenius(validity_projection(w.matrix, w.layout) - w.matrix) < 1e-9


def _switch_with_a_output_term() -> ProcessMatrix:
    # a traceless term on A_O alone: no order allows it
    term = tensor(np.eye(2), np.diag([1.0, -1.0]), np.eye(16))
    return ProcessMatrix(quantum_switch_process().matrix + 1e-2 * term, standard_layout(2, 4))


@pytest.mark.parametrize(
    "make",
    [quantum_switch_process, lambda: dephased_switch(0.5), _switch_with_a_output_term],
    ids=["switch", "switch-eta-0.5", "switch-plus-a-output-term"],
)
def test_validity_residual_with_future_is_the_traced_process_residual(make):
    w = make()
    lay4 = standard_layout(2)
    reduced = partial_trace(w.matrix, w.layout, lay4.labels)
    ref = frobenius(oracles.validity_projection(reduced, lay4) - reduced)
    ref /= np.sqrt(w.layout.dim_of("F"))
    rep = validate_process(w)
    assert abs(rep.subspace_residual - ref) <= 1e-12
    if make is _switch_with_a_output_term:
        assert rep.verdict == "invalid"
        assert rep.subspace_residual > 1e-3
    else:
        assert rep.is_valid


def tau_of(m: np.ndarray) -> float:
    """The rounding bound of a matrix: its dimension and Frobenius norm."""
    return float(rounding_bound(len(m), frobenius(m)))


def validity_defect(w: ProcessMatrix, gate: str) -> float:
    """W's defect at one validity gate by the oracles: its least eigenvalue's
    negative part, its trace error, or its distance to the valid span, of
    tr_F W by the reset projectors (F's share of the norm removed)."""
    m, lay = w.matrix, w.layout
    if gate == "psd":
        return -float(np.linalg.eigvalsh(m)[0])
    if gate == "trace":
        return abs(float(np.real(np.trace(m))) - w.expected_trace)
    lay4 = standard_layout(lay.dim_of("A_I"))
    reduced = partial_trace(m, lay, lay4.labels)
    d_f = lay.dim // lay4.dim
    return frobenius(oracles.validity_projection(reduced, lay4) - reduced) / np.sqrt(d_f)


@pytest.mark.parametrize("gate", ["psd", "trace", "subspace"])
@pytest.mark.parametrize("dim", [16, 64])
def test_validity_gates_decide_on_either_side_of_the_rounding_bound(dim, gate):
    # a valid W with one defect of half or of twice its rounding bound tau:
    # its least eigenvalue at -factor tau (an identity shift, in every
    # order subspace), its trace off by factor tau, or a traceless term of
    # norm factor tau outside the valid span
    w = psd_boundary_parts(dim, "complex")[0]
    lay, tau = w.layout, w._rounding
    for factor, valid in ((0.5, True), (2.0, False)):
        if gate == "psd":
            probe = with_least_eigenvalue(w, -factor * tau)
        elif gate == "trace":
            probe = ProcessMatrix(w.matrix * (1.0 + factor * tau / w.expected_trace), lay)
        else:
            probe = ProcessMatrix(w.matrix + factor * tau * unit_component(lay, 1.0 - hs_basis(lay).valid, 1), lay)
        assert validate_process(probe).is_valid is valid, factor
        assert bool(validity_defect(probe, gate) <= probe._rounding) is valid, factor


# ---------------------------------------------------------------------------
# ordered processes vs direct circuit simulation


def _random_cptp_kraus(rng, d, terms=3):
    ks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(terms)]
    s = sum(k.conj().T @ k for k in ks)
    w = np.linalg.inv(np.linalg.cholesky(s)).conj().T
    return [k @ w for k in ks]


def _random_mr_instrument(rng, d=2, outcomes=2):
    """Measure-reprepare instrument plus its oracle Kraus lists."""
    povm = random_povm(rng, d, outcomes)
    states = [random_density(rng, d) for _ in range(outcomes)]
    ins = Instrument.measure_reprepare([povm], [states])
    kraus = [oracles.measure_reprepare_kraus(e, s) for e, s in zip(povm, states)]
    return ins, kraus


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_ordered_process_matches_circuit(order):
    rng = np.random.default_rng(7)
    for _ in range(5):
        pre = random_density(rng, 2)
        mid_kraus = _random_cptp_kraus(rng, 2)
        w = ordered_process(pre, choi_of_kraus(mid_kraus), order=order)
        ins_a, kraus_a = _random_mr_instrument(rng)
        ins_b, kraus_b = _random_mr_instrument(rng)
        table = born_probabilities(w, ins_a, ins_b)
        if order == "AB":
            direct = oracles.sequential_statistics(pre, mid_kraus, kraus_a, kraus_b)
            assert np.abs(table.probs[0, 0] - direct).max() < 1e-10
        else:
            direct = oracles.sequential_statistics(pre, mid_kraus, kraus_b, kraus_a)
            assert np.abs(table.probs[0, 0] - direct.T).max() < 1e-10


def test_ordered_process_is_valid_and_one_way():
    rng = np.random.default_rng(8)
    pre = random_density(rng, 2)
    w = ordered_process(pre, choi_of_unitary(haar_unitary(rng, 2)), order="AB")
    assert validate_process(w).is_valid
    m = w.matrix
    assert frobenius(order_projection(m, w.layout, "AB") - m) < 1e-10
    # a unitary mid channel signals A -> B, so the BA subspace rejects it
    assert frobenius(order_projection(m, w.layout, "BA") - m) > 1e-2


def test_ordered_process_input_validation():
    with pytest.raises(ValueError):
        ordered_process(np.eye(2), identity_choi(2))  # trace 2
    with pytest.raises(ValueError):
        ordered_process(np.eye(2) / 2, identity_choi(2) / 2)  # not TP


def test_order_projection_is_idempotent():
    rng = np.random.default_rng(9)
    for lay in (standard_layout(2), standard_layout(2, 4)):
        h = random_hermitian(rng, lay.dim)
        for order in ("AB", "BA"):
            once = order_projection(h, lay, order)
            assert frobenius(order_projection(once, lay, order) - once) < 1e-10


# ---------------------------------------------------------------------------
# Hilbert-Schmidt masks against the reset formulas in oracles.py

MASK_LAYOUT_DIMS = [(2, 2, 2, 2), (2, 2, 2, 2, 4), (3, 3, 2, 2), (2, 2, 2, 2, 2), (2, 1, 2, 2, 3)]


def _layout(dims):
    return SpaceLayout(PARTY_LABELS + ("F",) * (len(dims) - 4), dims)


@pytest.mark.parametrize("dims", MASK_LAYOUT_DIMS, ids=lambda d: "x".join(map(str, d)))
def test_mask_projectors_match_reset_oracle(dims):
    rng = np.random.default_rng(len(dims) * 10 + dims[0])
    lay = _layout(dims)
    for _ in range(3):
        h = random_hermitian(rng, lay.dim)
        for order in ("AB", "BA"):
            ref = oracles.order_projection(h, lay, order)
            assert np.abs(order_projection(h, lay, order) - ref).max() <= 1e-12
        if "F" not in lay.labels:
            ref = oracles.validity_projection(h, lay)
            assert np.abs(validity_projection(h, lay) - ref).max() <= 1e-12


@pytest.mark.parametrize("dims", MASK_LAYOUT_DIMS, ids=lambda d: "x".join(map(str, d)))
def test_masks_are_commuting_zero_one_projectors(dims):
    rng = np.random.default_rng(len(dims) * 10 + dims[0] + 1)
    lay = _layout(dims)
    basis = hs_basis(lay)
    a, b = basis.order_mask("AB"), basis.order_mask("BA")
    # every array of the frame is read-only and has the bits of its defining expression
    frame = {
        "ab": a, "ba": b, "shared": a * b, "valid": a + b - a * b,
        "orders": np.stack((a, b))[:, None], "off_orders": 1.0 - np.stack((a, b))[:, None],
        "lines": np.stack((a - a * b, b - a * b, a * b))[:, None], "eye": np.eye(lay.dim),
    }
    for name, expected in frame.items():
        got = getattr(basis, name)
        assert not got.flags.writeable and got.dtype == np.float64, name
        assert got.shape == expected.shape and np.array_equal(got, expected), name
    assert np.array_equal(basis.lines.sum(axis=0)[0], basis.valid)
    masks = [a, b, basis.shared] + ([basis.valid] if "F" not in lay.labels else [])
    for m in masks:
        assert m.shape == basis.shape
        assert set(np.unique(m)) <= {0.0, 1.0}
        assert np.array_equal(m * m, m)
    # The reset projectors behind the two order masks commute; that is what
    # makes the elementwise pseudo-inverse of P_A + P_B exact.
    h = random_hermitian(rng, lay.dim)
    ab = oracles.order_projection(oracles.order_projection(h, lay, "BA"), lay, "AB")
    ba = oracles.order_projection(oracles.order_projection(h, lay, "AB"), lay, "BA")
    assert np.abs(ab - ba).max() <= 1e-12
    assert np.abs(hs_basis(lay).project(h, a * b) - ab).max() <= 1e-12


def test_basis_change_is_orthogonal_and_invertible():
    rng = np.random.default_rng(40)
    for dims in MASK_LAYOUT_DIMS:
        lay = _layout(dims)
        basis = hs_basis(lay)
        h = random_hermitian(rng, lay.dim)
        c = basis.to_coef(h)
        assert np.linalg.norm(c) == pytest.approx(frobenius(h), rel=1e-13)
        assert np.abs(basis.to_mat(c) - h).max() <= 1e-13
        assert hs_basis(lay) is basis


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 2, 2, 2, 4)], ids=["2x2x2x2", "2x2x2x2x4"])
def test_order_split_gives_ordered_parts_summing_to_w(dims):
    rng = np.random.default_rng(41)
    lay = _layout(dims)
    w = random_valid_process(rng).matrix if len(dims) == 4 else quantum_switch_process().matrix
    basis = hs_basis(lay)
    a, b = basis.ab, basis.ba
    x0 = basis.to_coef(random_hermitian(rng, lay.dim))
    y0 = basis.to_coef(random_hermitian(rng, lay.dim))
    xc, yc = _order_split(basis.to_coef(w), x0, y0, a, b)
    x, y = basis.to_mat(xc), basis.to_mat(yc)
    assert np.abs(x + y - w).max() <= 1e-12
    assert np.abs(oracles.order_projection(x, lay, "AB") - x).max() <= 1e-12
    assert np.abs(oracles.order_projection(y, lay, "BA") - y).max() <= 1e-12


# ---------------------------------------------------------------------------
# quantum switch process


def test_switch_process_is_valid_rank_one():
    w = quantum_switch_process()
    rep = validate_process(w)
    assert rep.is_valid
    m = w.matrix
    assert np.trace(m).real == pytest.approx(4.0, abs=1e-12)
    vals = np.linalg.eigvalsh(m)
    assert vals[-1] == pytest.approx(4.0, abs=1e-9)
    assert np.abs(vals[:-1]).max() < 1e-9


def test_switch_process_checks_its_amplitudes_without_overflow():
    # squaring 1e200 overflows, and so does |z| for z = 1.7e308 (1 + i)
    for amps in ((1e200, 1e200), (complex(1.7e308, 1.7e308), 0.0), (float("nan"), 1.0)):
        with pytest.raises(ValueError, match="control_amplitudes"):
            quantum_switch_process(amps)
    # the allowance on |alpha|^2 + |beta|^2 - 1 is still 1e-9
    quantum_switch_process((np.sqrt(0.3), 1j * np.sqrt(0.7 + 9e-10)))
    with pytest.raises(ValueError, match="control_amplitudes"):
        quantum_switch_process((np.sqrt(0.3), 1j * np.sqrt(0.7 + 1.1e-9)))


def test_switch_process_statistics_match_kraus_simulation():
    rng = np.random.default_rng(10)
    v0, v1 = haar_unitary(rng, 2), haar_unitary(rng, 2)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    w = quantum_switch_process((INV_SQRT2, INV_SQRT2), v0=v0, v1=v1, psi_t0=psi)
    ins_a, kraus_a = _random_mr_instrument(rng)
    ins_b, kraus_b = _random_mr_instrument(rng)
    # measure the control (F_c) in the +/- basis, ignore the exiting target
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    povm = [tensor(projector(p), np.eye(2)) for p in (plus, minus)]
    probs = born_probabilities_with_future(w, ins_a, ins_b, povm)
    direct = oracles.switch_instrument_statistics(
        INV_SQRT2, INV_SQRT2, v0, v1, psi, kraus_a, kraus_b, np.stack([plus, minus], axis=1)
    )
    assert np.abs(probs[0, 0] - direct).max() < 1e-10


def test_switch_process_definite_amplitudes_reduce_to_ordered():
    rng = np.random.default_rng(11)
    psi = ket(0)
    w_ab = quantum_switch_process((1.0, 0.0), psi_t0=psi)
    ref = ordered_process(projector(psi), identity_choi(2), order="AB")
    ins_a, _ = _random_mr_instrument(rng)
    ins_b, _ = _random_mr_instrument(rng)
    t1 = born_probabilities(w_ab, ins_a, ins_b)
    t2 = born_probabilities(ref, ins_a, ins_b)
    assert np.abs(t1.probs - t2.probs).max() < 1e-10


def test_born_probabilities_normalize():
    rng = np.random.default_rng(12)
    for _ in range(10):
        w = random_valid_process(rng)
        a = random_instrument(rng)
        b = random_instrument(rng)
        table = born_probabilities(w, a, b)
        assert np.abs(table.probs.sum(axis=(2, 3)) - 1.0).max() < 1e-10


BORN_PROCESSES = {
    "no-future": lambda rng: random_valid_process(rng),
    "switch": lambda rng: quantum_switch_process(
        (0.6, 0.8j), v0=haar_unitary(rng, 2), v1=haar_unitary(rng, 2)
    ),
    "ordered-future": lambda rng: ordered_process(
        random_density(rng, 2), choi_of_unitary(haar_unitary(rng, 2)), post="future"
    ),
}

# (inputs of A, inputs of B, outcomes of A, outcomes of B): no two equal,
# so a swapped axis changes the shape
BORN_SHAPES = [(2, 3, 3, 2), (3, 2, 2, 3), (3, 2, 3, 2)]


@pytest.mark.parametrize("name", sorted(BORN_PROCESSES))
def test_born_probabilities_match_the_per_cell_oracle(name):
    rng = np.random.default_rng(21)
    w = BORN_PROCESSES[name](rng)
    d_f = w.layout.dim_of("F") if "F" in w.layout.labels else 1
    for n_a, n_b, k_a, k_b in BORN_SHAPES:
        a = random_instrument(rng, inputs=n_a, outcomes=k_a)
        b = random_instrument(rng, inputs=n_b, outcomes=k_b)
        got = born_probabilities(w, a, b).probs
        assert got.shape == (n_a, n_b, k_a, k_b)
        want = oracles.process_born_table(w.matrix, a.chois, b.chois, d_f)
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("name", ["switch", "ordered-future"])
def test_born_probabilities_with_future_match_the_per_cell_oracle(name):
    rng = np.random.default_rng(22)
    w = BORN_PROCESSES[name](rng)
    for (n_a, n_b, k_a, k_b), n_k in zip(BORN_SHAPES, (2, 3, 4)):
        a = random_instrument(rng, inputs=n_a, outcomes=k_a)
        b = random_instrument(rng, inputs=n_b, outcomes=k_b)
        povm = random_povm(rng, w.layout.dim_of("F"), n_k)
        got = born_probabilities_with_future(w, a, b, povm)
        assert got.shape == (n_a, n_b, k_a, k_b, n_k)
        want = oracles.process_born_table_with_future(w.matrix, a.chois, b.chois, povm)
        assert np.abs(got - want).max() <= 1e-12


def test_future_povm_must_be_positive_semidefinite():
    # sums to the identity, but its negative probabilities would be clipped away
    w = quantum_switch_process()
    a = Instrument.unitary(np.eye(2))
    bad = [np.diag([2.0, 2.0, -1.0, -1.0]), np.diag([-1.0, -1.0, 2.0, 2.0])]
    with pytest.raises(ValueError, match="positive semidefinite"):
        born_probabilities_with_future(w, a, a, bad)
    with pytest.raises(ValueError, match="sum to identity"):
        born_probabilities_with_future(w, a, a, [np.eye(4) / 2])


def test_witness_value_is_linear():
    rng = np.random.default_rng(13)
    w1 = random_valid_process(rng)
    w2 = random_valid_process(rng)
    s = random_hermitian(rng, w1.layout.dim)
    v_mix = witness_value(mix(w1, w2, 0.25), s)
    assert v_mix == pytest.approx(
        0.25 * witness_value(w1, s) + 0.75 * witness_value(w2, s), abs=1e-10
    )


# ---------------------------------------------------------------------------
# causal separability


def test_separability_recovers_mixture_weight():
    w_ab = quantum_switch_process((1.0, 0.0))
    w_ba = quantum_switch_process((0.0, 1.0))
    for q in (0.0, 0.3, 0.5, 0.7, 1.0):
        rep = separability_heuristic(mix(w_ab, w_ba, q))
        assert rep.separable, f"q={q} should be separable"
        assert rep.iterations < 100, q
        assert rep.certificate[0] == pytest.approx(q, abs=1e-6)
        q_hat, part_ab, part_ba = rep.certificate
        assert validate_process(part_ab).is_valid
        assert validate_process(part_ba).is_valid
        recon = q_hat * part_ab.matrix + (1 - q_hat) * part_ba.matrix
        assert frobenius(recon - mix(w_ab, w_ba, q).matrix) < 1e-4
        assert rep.verdict == "separable" and rep.witness is None


def test_switch_process_is_not_separable():
    rep = separability_heuristic(quantum_switch_process())
    assert not rep.separable
    assert rep.residual > 1e-3


def ocb_process(noise: float = 0.0) -> ProcessMatrix:
    """The Oreshkov-Costa-Brukner process (Nat. Commun. 3, 1092, 2012) with
    white noise."""
    x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    terms = tensor(np.eye(2), z, z, np.eye(2)) + tensor(z, np.eye(2), x, z)
    return ProcessMatrix((np.eye(16) + (1.0 - noise) * terms / np.sqrt(2.0)) / 4.0, standard_layout(2))


def dephased_switch(eta: float) -> ProcessMatrix:
    ordered = mix(quantum_switch_process((1.0, 0.0)), quantum_switch_process((0.0, 1.0)), 0.5)
    return mix(quantum_switch_process(), ordered, eta)


NONSEPARABLE = {
    "switch": quantum_switch_process,
    "ocb": ocb_process,
    "switch-eta-0.5": lambda: dephased_switch(0.5),
}


@pytest.mark.parametrize("name", list(NONSEPARABLE))
def test_witness_passes_the_mask_free_oracle(name):
    w = NONSEPARABLE[name]()
    rep = separability_heuristic(w)
    assert rep.verdict == "nonseparable" and not rep.separable
    s, p_ab, p_ba = rep.witness
    assert oracles.witness_margin(w.matrix, w.layout, s, p_ab, p_ba) < 0.0
    value = float(np.real(np.trace(s @ w.matrix)))
    assert rep.witness_value == pytest.approx(value / frobenius(s), abs=1e-12)
    assert rep.to_json_dict()["witness_value"] == rep.witness_value


def test_witness_with_one_entry_perturbed_fails_verification():
    w = quantum_switch_process()
    rep = separability_heuristic(w)
    s, p_ab, p_ba = rep.witness
    assert _certify_witness(w, s, p_ab, p_ba) == pytest.approx(rep.witness_value, abs=1e-12)
    # move S's largest coefficient inside the AB mask by ||S||, in the
    # direction that does not lower tr(S W): S - P_AB then has a part in the
    # AB subspace, so S is no longer a witness of the stated form
    basis = hs_basis(w.layout)
    a = basis.ab
    coef = basis.to_coef(s)
    k = np.unravel_index(np.argmax(np.abs(coef) * a), coef.shape)
    bump = np.zeros_like(coef)
    bump[k] = 1.0
    h = basis.to_mat(bump)
    h = (h + h.conj().T) / 2.0
    sign = 1.0 if np.real(np.trace(h @ w.matrix)) >= 0.0 else -1.0
    s_bad = s + sign * frobenius(s) * h
    assert oracles.witness_margin(w.matrix, w.layout, s_bad, p_ab, p_ba) == np.inf
    assert _certify_witness(w, s_bad, p_ab, p_ba) is None


def test_no_witness_on_separable_inputs():
    w_ab = quantum_switch_process((1.0, 0.0))
    w_ba = quantum_switch_process((0.0, 1.0))
    for noise in (0.5, 0.8):
        rep = separability_heuristic(ocb_process(noise))
        assert rep.witness is None and rep.verdict == "separable", noise
    rep = separability_heuristic(mix(w_ab, w_ba, 0.3))
    assert rep.witness is None and rep.verdict == "separable"


def test_split_that_is_already_psd_certifies_with_no_step():
    # the search starts on the affine set at the order split of W/2, W/2,
    # the point t = 1/2 of the line the search tries first; when that split
    # is PSD the line's interval holds 1/2, and its midpoint is the
    # decomposition before any clip step
    basis = hs_basis(standard_layout(2))
    in_ab, in_ba = basis.ab, basis.ba
    for noise in (0.5, 0.8):
        w = ocb_process(noise)
        cw = basis.to_coef(w.matrix)
        for part in _order_split(cw, cw / 2.0, cw / 2.0, in_ab, in_ba):
            assert np.linalg.eigvalsh(basis.to_mat(part))[0] >= 0.0, noise
        t_lo, t_hi, _ = oracles.line_split_interval(w.matrix, w.layout)
        assert t_lo < 0.5 < t_hi, noise
        rep = separability_heuristic(w)
        assert rep.verdict == "separable" and rep.iterations == 0, noise
        assert rep.residual <= 1e-14, noise


# A hard pool near the separable boundary, where a search that stalls gives
# up although the answer is known.


@pytest.mark.parametrize("eta", [0.01, 0.02, 0.05])
def test_faint_coherent_switch_is_certified_nonseparable(eta):
    w = coherent_process(eta)
    rep = separability_heuristic(w)
    assert rep.verdict == "nonseparable"
    assert oracles.witness_margin(w.matrix, w.layout, *rep.witness) < 0.0


def test_undamped_ordered_mixture_pool_certifies_count():
    reps = [separability_heuristic(w) for w in undamped_ordered_mixtures(1, 8)]
    # each face admits one split, PSD to rounding, certified after the first step
    assert [(rep.verdict, rep.iterations) for rep in reps] == [("separable", 1)] * 8


def complex_search_inputs() -> dict[str, ProcessMatrix]:
    """Three seeded processes with complex entries: two ordered mixtures
    damped toward the neutral process, and a phase-rotated OCB process."""
    pool = {}
    for seed in (1, 4):
        w = undamped_ordered_mixtures(seed, 1)[0]
        pool[f"ordered-mixture-{seed}"] = mix(w, neutral_process(w.layout), 0.8)
    pool["ocb-rotated"] = phase_rotated(ocb_process(), 5)
    return pool


def test_real_process_is_searched_in_real_arithmetic(monkeypatch):
    w = coherent_process(1.0)
    assert not w.matrix.imag.any()
    basis = hs_basis(w.layout)
    m = w.matrix
    assert basis.to_coef(m.real).shape == (1,) + basis.shape
    assert np.array_equal(basis.to_coef(m.real)[0], basis.to_coef(m)[0])
    assert basis.to_mat(basis.to_coef(m.real)).dtype == np.float64

    seen, clips = [], recorded_clips(monkeypatch)

    def recorded(w):
        # the range vector and the split of the pure W's face
        rho, v, residuals, split = pure_face(w)
        seen.extend((v.dtype, split.dtype))
        return rho, v, residuals, split

    pure_face = process._pure_face
    monkeypatch.setattr(process, "_pure_face", recorded)
    for proc, dtype in ((w, np.float64), (phase_rotated(w, 7), np.complex128)):
        # validity is computed once per process, outside the search
        validate_process(proc)
        seen.clear()
        clips.clear()
        rep = separability_heuristic(proc)
        assert rep.verdict == "nonseparable"
        # one clip per iteration, of the stacked halves X and Y
        assert [(clip.dtype, clip.shape) for clip in clips] == [(np.dtype(dtype), (2,) + m.shape)] * rep.iterations
        assert set(seen) == {np.dtype(dtype)}
        assert {s.dtype for s in rep.witness} == {np.dtype(dtype)}


EQUIVARIANCE_POOL = [
    pytest.param(lambda eta=eta: coherent_process(eta), id=f"coherent-eta-{eta}")
    for eta in (0.01, 0.02, 0.05, 0.3, 1.0)
] + [
    pytest.param(lambda noise=noise: ocb_process(noise), id=f"ocb-noise-{noise}")
    for noise in (0.0, 0.2, 0.4, 0.6, 0.8)
]


@pytest.mark.parametrize("make", EQUIVARIANCE_POOL)
def test_real_search_agrees_with_complex_search_on_a_rotated_copy(make):
    # the rotated copy has complex entries, so its search runs in complex
    # arithmetic: an independent reference for the real search on W
    w = make()
    assert not w.matrix.imag.any()
    rotated = phase_rotated(w, 7)
    assert rotated.matrix.imag.any()
    real, ref = separability_heuristic(w), separability_heuristic(rotated)
    assert real.verdict == ref.verdict
    assert real.iterations == ref.iterations
    if ref.witness is not None:
        assert real.witness_value == pytest.approx(ref.witness_value, abs=1e-9)
    else:
        assert real.certificate[0] == pytest.approx(ref.certificate[0], abs=1e-9)


COMPLEX_SEARCHES = Path(__file__).parent / "data" / "complex_searches.json"


def test_complex_search_reports_are_pinned():
    # Any rounding change on the complex path of the search shows here.
    # Regenerate the file only with a change meant to move these bytes.
    golden = json.loads(COMPLEX_SEARCHES.read_text())
    inputs = complex_search_inputs()
    assert sorted(golden) == sorted(inputs)
    for name, w in inputs.items():
        assert w.matrix.imag.any(), name
        assert separability_heuristic(w).to_json_dict() == golden[name], name


# The face decision: a rank-deficient W is tested for an order split on
# range(W), before any step when W has rank 1 and after a first step that
# certifies nothing otherwise


FACE_INFEASIBLE = {
    "coherent": lambda: coherent_process(1.0),
    "switch": quantum_switch_process,
    "ocb": ocb_process,
    "ocb-rotated": lambda: phase_rotated(ocb_process(), 5),
}
FACE_FEASIBLE = {
    "coherent-eta-0.3": lambda: coherent_process(0.3),
    "coherent-eta-1e-3": lambda: coherent_process(1e-3),
    "switch-AB": lambda: quantum_switch_process((1.0, 0.0)),
    **{f"undamped-{k}": lambda k=k: undamped_ordered_mixtures(1, 8)[k] for k in range(8)},
}


@pytest.mark.parametrize("name", list(FACE_INFEASIBLE) + list(FACE_FEASIBLE))
def test_face_check_agrees_with_the_oracle(name):
    w = {**FACE_INFEASIBLE, **FACE_FEASIBLE}[name]()
    assert w._eigenvalues[0] <= w._rounding  # rank-deficient
    rho, witness, _ = process._face_solve(w)
    want = oracles.face_split_residual(w.matrix, w.layout)
    if name in FACE_FEASIBLE:
        assert witness is None and rho <= 1e-13 and want <= 1e-13, (rho, want)
        return
    assert rho == pytest.approx(want, rel=1e-12) and want >= 0.1
    assert _certify_witness(w, *witness) < 0.0
    assert oracles.witness_margin(w.matrix, w.layout, *witness) < 0.0


def recorded_clips(monkeypatch) -> list[np.ndarray]:
    """Patch the search's PSD clip to log each stack it clips: one per step."""
    clips = []

    def recorded(m):
        clips.append(m)
        return clip(m)

    clip = process._psd_clip
    monkeypatch.setattr(process, "_psd_clip", recorded)
    return clips


def test_coherent_preset_is_decided_on_its_face_with_no_step(monkeypatch):
    clips = recorded_clips(monkeypatch)
    # the preset's W is the pure switch process
    for w in (coherent_process(1.0), phase_rotated(coherent_process(1.0), 7), quantum_switch_process()):
        assert w._eigenvalues[-2] <= w._rounding  # rank 1
        rep = separability_heuristic(w)
        assert (rep.verdict, rep.iterations) == ("nonseparable", 0)
        # the residual is the face's distance to the order splits; the
        # witness is the lifted one
        assert rep.residual == pytest.approx(0.10825317547305481, rel=1e-9)
        rho = process._face_solve(w)[0]
        assert rep.residual == rho / max(1.0, frobenius(w.matrix))
        assert rep.witness_value == pytest.approx(-0.013932580954483985, rel=1e-9)
        assert _certify_witness(w, *rep.witness) == rep.witness_value
        assert oracles.witness_margin(w.matrix, w.layout, *rep.witness) < 0.0
    assert clips == []


def config_process(name: str) -> ProcessMatrix:
    """The W of one of tools/report_bytes.py's run configs."""
    return _scenario_process(ScenarioConfig.from_dict(REPORT_BYTES.RUN_CONFIGS[name]).spec)[0]


def switch_below_the_rank_cut() -> ProcessMatrix:
    """The pure switch mixed with the neutral process at the weight that puts
    its 63 least eigenvalues at half its rounding bound: rank 1 by the cut."""
    switch = quantum_switch_process()
    lay = switch.layout
    return mix(neutral_process(lay), switch, 0.5 * tau_of(switch.matrix) * lay.dim / switch.expected_trace)


RANK_ONE = {
    **{
        name: lambda name=name: config_process(name)
        for name in ("coherent", "coherent-fixed-settings", "coherent-custom-input")
    },
    "switch": quantum_switch_process,
    **{f"pure-{order}": lambda order=order: pure_ordered_process(order, 3) for order in ("AB", "BA")},
    "coherent-rotated": lambda: phase_rotated(coherent_process(1.0), 7),
    "switch-below-the-rank-cut": switch_below_the_rank_cut,
}


@pytest.mark.parametrize("name", list(RANK_ONE))
def test_a_pure_faces_closed_form_agrees_with_the_least_squares_solve(monkeypatch, name):
    # the general face solve, which serves faces of rank 2 or more, is the
    # reference: with the pure branch switched off it solves the same face
    # by eigh and lstsq. Same verdict and exit, rho within W's rank cut, and
    # the closed form's certificate holds by the oracles
    w = RANK_ONE[name]()
    assert w._eigenvalues[-2] <= w._rounding  # rank 1
    rho, witness, split = process._face_solve(w)
    rep = separability_heuristic(w)
    monkeypatch.setattr(process, "_pure_face", process._least_squares_face)
    ref_rho, ref_witness, ref_split = process._face_solve(w)
    ref = separability_heuristic(w)
    assert (rep.verdict, rep.exit, rep.iterations) == (ref.verdict, ref.exit, ref.iterations)
    assert rep.exit in ("face-split", "face-witness") and rep.iterations == 0
    assert abs(rho - ref_rho) <= w._rounding
    assert (witness is None, split is None) == (ref_witness is None, ref_split is None)
    if rep.witness is not None:
        assert oracles.witness_margin(w.matrix, w.layout, *rep.witness) < 0.0
        assert rep.witness_value == pytest.approx(ref.witness_value, rel=1e-12)
    else:
        q, w_ab, w_ba = rep.certificate
        worst, recon = oracles.decomposition_defects(w.matrix, w.layout, q, w_ab.matrix, w_ba.matrix)
        assert worst <= tau_of(w.matrix) and recon <= recon_gate(w.layout.dim)
        assert q == pytest.approx(ref.certificate[0], abs=1e-12)


def test_the_search_of_a_pure_w_solves_no_eigenproblem_or_least_squares(monkeypatch):
    # a pure W's face is decided in closed form, with its range vector read
    # off W itself; switched to the general solve, the same searches call
    # eigh and lstsq once each
    calls = []

    def recorded(name):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        original = getattr(np.linalg, name)
        return call

    for name in ("eigh", "lstsq"):
        monkeypatch.setattr(np.linalg, name, recorded(name))
    for make in RANK_ONE.values():
        w = make()
        validate_process(w)
        calls.clear()
        assert separability_heuristic(w).iterations == 0
        assert calls == []
    monkeypatch.setattr(process, "_pure_face", process._least_squares_face)
    for make in RANK_ONE.values():
        calls.clear()
        separability_heuristic(make())
        assert calls == ["eigh", "lstsq"]


FACE_UNIQUE = {
    **{f"undamped-{k}": lambda k=k: undamped_ordered_mixtures(1, 8)[k] for k in range(8)},
    **{f"pure-{order}": lambda order=order: pure_ordered_process(order, 3) for order in ("AB", "BA")},
}


@pytest.mark.parametrize("order, q", [("AB", 1.0), ("BA", 0.0)])
def test_pure_ordered_processes_are_certified_on_their_face_with_no_step(monkeypatch, order, q):
    clips = recorded_clips(monkeypatch)
    for seed in (3, 4):
        w = pure_ordered_process(order, seed)
        assert w._eigenvalues[-2] <= w._rounding  # rank 1
        rep = separability_heuristic(w)
        assert (rep.verdict, rep.iterations) == ("separable", 0) and rep.residual <= 1e-12
        got, w_ab, w_ba = rep.certificate
        assert got == pytest.approx(q, abs=1e-12)
        worst, recon = oracles.decomposition_defects(w.matrix, w.layout, got, w_ab.matrix, w_ba.matrix)
        assert worst <= 1e-9 and recon <= 1e-12
    assert clips == []


@pytest.mark.parametrize("name", list(FACE_UNIQUE))
def test_face_split_certificates_agree_with_the_oracle(name):
    w = FACE_UNIQUE[name]()
    rank = int(np.count_nonzero(w._eigenvalues > w._rounding))
    assert 1 <= rank < w.layout.dim
    rep = separability_heuristic(w)
    # a rank-1 W is decided with no step, any other after the first step
    assert (rep.verdict, rep.iterations) == ("separable", int(rank > 1))
    assert oracles.face_split_margin(w.matrix, w.layout) >= -1e-12
    q, w_ab, w_ba = rep.certificate
    worst, recon = oracles.decomposition_defects(w.matrix, w.layout, q, w_ab.matrix, w_ba.matrix)
    assert worst <= 1e-9 and recon <= 1e-12 and rep.residual == pytest.approx(recon, rel=1e-6)


def pure_ordered_pair(kind: str, rng: np.random.Generator) -> list[ProcessMatrix]:
    """Two ordered processes of a pure state through a unitary channel:
    the two pure-order switches (amplitudes (1, 0) and (0, 1)) with Haar
    v0, v1 and psi; one process per order with the second output routed to
    the future (rank 1) or discarded (rank 2); or two of one order, with a
    future."""
    if kind == "switch-orders":
        v0, v1, psi = haar_unitary(rng, 2), haar_unitary(rng, 2), haar_unitary(rng, 2)[:, 0]
        return [quantum_switch_process(amps, v0=v0, v1=v1, psi_t0=psi) for amps in ((1.0, 0.0), (0.0, 1.0))]
    orders, post = ("AB", "BA"), "discard" if kind == "no-future" else "future"
    if kind == "same-order":
        orders = (orders[int(rng.integers(2))],) * 2
    pairs = []
    for order in orders:
        psi = haar_unitary(rng, 2)[:, 0]
        channel = choi_of_unitary(haar_unitary(rng, 2))
        pairs.append(ordered_process(np.outer(psi, psi.conj()), channel, order, post))
    return pairs


@pytest.mark.parametrize("kind", ["switch-orders", "future", "no-future", "same-order"])
def test_separable_low_rank_mixtures_certify_as_they_stand(kind):
    # q W_1 + (1 - q) W_2 is separable by construction and rank-deficient:
    # its face decides it after at most one step, and the certificate holds
    # at tau by the mask-free oracle
    rng = np.random.default_rng(29)
    for _ in range(10):
        q = float(rng.uniform(0.05, 0.95))
        w = mix(*pure_ordered_pair(kind, rng), q)
        rep = separability_heuristic(w)
        assert rep.verdict == "separable" and rep.iterations <= 1, (kind, q, rep.iterations)
        assert not decomposition_fails_the_oracle(w, *rep.certificate), (kind, q)


def test_switch_mixed_with_its_v1_z_copy_is_decided_by_a_face_witness_after_one_step():
    w = mix(quantum_switch_process(), quantum_switch_process(v1=Z), 0.5)
    assert not w.matrix.imag.any()
    assert int(np.count_nonzero(w._eigenvalues > w._rounding)) == 2
    rep = separability_heuristic(w)
    assert (rep.verdict, rep.iterations, rep.exit) == ("nonseparable", 1, "face-witness")
    # the residual is the first step's gap
    assert rep.residual == pytest.approx(0.10578403901513452, rel=1e-9)
    assert rep.witness_value == pytest.approx(-0.005761960827119273, rel=1e-9)
    assert _certify_witness(w, *rep.witness) == rep.witness_value
    assert oracles.witness_margin(w.matrix, w.layout, *rep.witness) == pytest.approx(-0.0341, abs=1e-4)


def assert_face_decides_or_loop_converges(rep, face_decides: bool, steps: int) -> None:
    """A face split the checks accept certifies after ``steps`` steps; a
    refused one leaves the search to the loop, which converges, and whose
    fixed point, checked as it stands, does not certify a rank-deficient W."""
    if face_decides:
        assert (rep.verdict, rep.iterations, rep.exit) == ("separable", steps, "face-split")
    else:
        assert (rep.verdict, rep.exit) == ("inconclusive", "fixed-point") and rep.iterations > steps
        assert rep.residual < SEARCH_TOL


def shift_face_part(monkeypatch, shift: float) -> None:
    """A mutant of the face solve of a rank-1 W: its one unknown, the weight
    s of the AB part X' = s W, moves up by ``shift`` and so the BA part
    Y' = (1 - s) W moves down by ``shift`` W."""

    def shifted(a, b):
        return weight(a, b) + shift

    weight = process._pure_weight
    monkeypatch.setattr(process, "_pure_weight", shifted)


def test_a_face_part_below_rounding_falls_through_to_the_loop(monkeypatch):
    # the BA part of the unique split is zero, up to rounding, and so of
    # weight 0 and dropped: with its least eigenvalue shifted by half W's
    # rounding bound below 0 (W's one nonzero eigenvalue is tr W) it still
    # certifies with no step, by twice it is refused and the loop runs to
    # its fixed point, whose split, checked as it stands, is refused too
    w = pure_ordered_process("AB", 3)
    for shift, face_decides in ((0.5, True), (2.0, False)):
        monkeypatch.undo()
        shift_face_part(monkeypatch, shift * w._rounding / w.expected_trace)
        rho, witness, split = process._face_solve(w)
        assert rho <= w._rounding
        assert witness is None and split is not None
        assert bool(np.linalg.eigvalsh(split[1])[0] >= -w._rounding) is face_decides, shift
        clips = recorded_clips(monkeypatch)
        rep = separability_heuristic(w)
        assert len(clips) == rep.iterations
        assert_face_decides_or_loop_converges(rep, face_decides, 0)


def test_a_dropped_face_part_on_a_rank_2_face_is_checked_as_it_stands(monkeypatch):
    # W = p W_1 + (1 - p) W_2 of two pure AB processes has rank 2; the split
    # (W - Y, Y) with Y = s (W_1 - W_2) keeps both parts in AB, and Y, of
    # trace 0, is dropped. Y is indefinite: with its least eigenvalue at
    # half W's rounding bound below 0 the face certifies after the first
    # step, at twice it is refused and the loop runs to its fixed point,
    # whose split, checked as it stands, is refused too
    w_1, w_2 = pure_ordered_process("AB", 3), pure_ordered_process("AB", 4)
    w = mix(w_1, w_2, 0.4)
    lay, tau = w.layout, w._rounding
    assert int(np.count_nonzero(w._eigenvalues > tau)) == 2
    step = w_1.matrix - w_2.matrix
    low = float(np.linalg.eigvalsh(step)[0])
    assert low < 0.0 and np.linalg.eigvalsh(step)[-1] > 0.0
    rho = process._face_solve(w)[0]
    for factor, face_decides in ((0.5, True), (2.0, False)):
        y = factor * tau / -low * step
        split = np.stack((w.matrix - y, y))
        assert bool(np.linalg.eigvalsh(y)[0] >= -tau) is face_decides, factor
        monkeypatch.setattr(process, "_face_solve", lambda w, split=split: (rho, None, split))
        clips = recorded_clips(monkeypatch)
        rep = separability_heuristic(w)
        assert len(clips) == rep.iterations
        assert_face_decides_or_loop_converges(rep, face_decides, 1)
        if face_decides:
            q, w_ab, w_ba = rep.certificate
            worst, recon = oracles.decomposition_defects(w.matrix, lay, q, w_ab.matrix, w_ba.matrix)
            assert worst <= tau_of(w.matrix) and recon <= recon_gate(lay.dim)
        monkeypatch.undo()


def test_a_kept_face_part_below_rounding_falls_through_to_the_loop(monkeypatch):
    # the BA part of an undamped mixture's unique face split is singular on
    # range(W); moving t |k><k| to the AB part, k in its kernel there, puts
    # its least eigenvalue at -t. At half the certificate's PSD allowance,
    # the part's rounding bound, the split still certifies after the first
    # step; at twice it is refused and the loop runs to its fixed point,
    # whose split, checked as it stands, is refused too. The part is taken
    # as the check sees it: divided by its weight, renormalized to trace d_O
    w = undamped_ordered_mixtures(1, 8)[0]
    rho, witness, split = process._face_solve(w)
    v, d_o = process._range_basis(w), w.expected_trace
    k = v @ np.linalg.eigh(v.conj().T @ split[1] @ v)[1][:, 0]
    kk, weight = np.outer(k, k.conj()), np.real(np.trace(split[1])) / d_o
    for factor, face_decides in ((0.5, True), (2.0, False)):
        t = factor * tau_of(split[1] / weight) * weight
        moved = split + t * np.stack((kk, -kk))
        part = moved[1] * (d_o / np.real(np.trace(moved[1])))
        assert bool(np.linalg.eigvalsh(part)[0] >= -tau_of(part)) is face_decides, factor
        monkeypatch.setattr(process, "_face_solve", lambda w, moved=moved: (rho, witness, moved))
        clips = recorded_clips(monkeypatch)
        rep = separability_heuristic(w)
        assert len(clips) == rep.iterations
        assert_face_decides_or_loop_converges(rep, face_decides, 1)
        monkeypatch.undo()


def test_face_split_cut_decides_on_either_side_of_the_rounding_bound(monkeypatch):
    # the face solve's one unknown for a pure ordered process, moved down
    # off the optimum so that rho is half or twice W's rounding bound: the
    # first counts as the unique split, the second as no split. Neither
    # certifies: the split's BA part, (1 - s) W, is PSD and of weight 0, but it
    # lies outside BA, so padding it with the neutral process leaves a
    # reconstruction error of about 1.1 tau; the witness is refused. The
    # loop then runs to its fixed point, which certifies nothing
    w = pure_ordered_process("AB", 3)
    shift_face_part(monkeypatch, -1e-9)
    slope = process._face_solve(w)[0] / 1e-9
    for factor, split_found in ((0.5, True), (2.0, False)):
        monkeypatch.undo()
        shift_face_part(monkeypatch, -factor * w._rounding / slope)
        rho, witness, split = process._face_solve(w)
        assert rho / w._rounding == pytest.approx(factor, rel=1e-2)
        assert (split is not None) is split_found and (witness is None) is split_found
        if split_found:
            q = np.real(np.trace(split[0])) / w.expected_trace
            padded = (split[0] / q, neutral_process(w.layout).matrix)
            recon = oracles.decomposition_defects(w.matrix, w.layout, q, *padded)[1]
            assert recon > recon_gate(w.layout.dim) and process._certified_split(w, split, "face-split") is None
        assert_face_decides_or_loop_converges(separability_heuristic(w), False, 0)


def test_rank_cut_decides_on_either_side_of_the_rounding_bound():
    # the pure switch mixed with the neutral process at the weight that puts
    # its 63 least eigenvalues at half or twice its rounding bound: the
    # first has rank 1 and is decided on its face with no step, the second
    # has full rank and is decided by the loop
    switch = quantum_switch_process()
    lay = switch.layout
    assert oracles.face_split_residual(switch.matrix, lay) >= 0.1
    for factor, deficient in ((0.5, True), (2.0, False)):
        w = mix(neutral_process(lay), switch, factor * tau_of(switch.matrix) * lay.dim / switch.expected_trace)
        assert bool(w._eigenvalues[0] <= w._rounding) is deficient, factor
        assert bool(np.linalg.eigvalsh(w.matrix)[0] <= tau_of(w.matrix)) is deficient, factor
        rep = separability_heuristic(w)
        assert rep.verdict == "nonseparable" and (rep.iterations == 0) is deficient, factor
        assert rep.exit == ("face-witness" if deficient else "loop-witness"), factor
        assert oracles.witness_margin(w.matrix, lay, *rep.witness) < 0.0, factor
    # the product process, in both orders, mixed the same way: at twice the
    # bound it has full rank, and its start split (W/2, W/2) is positive
    # definite and certified with no step; at half the bound it has rank 4,
    # never reaches the line and is certified at the converged exit
    product = product_processes()["product"]
    lay = product.layout
    for factor, deficient in ((0.5, True), (2.0, False)):
        w = mix(neutral_process(lay), product, factor * tau_of(product.matrix) * lay.dim / product.expected_trace)
        assert bool(w._eigenvalues[0] <= w._rounding) is deficient, factor
        rep = separability_heuristic(w)
        assert rep.verdict == "separable" and rep.iterations == int(deficient), factor
        assert rep.exit == ("converged" if deficient else "start-split"), factor


@pytest.mark.parametrize("name", ["switch", "switch-mixed-with-its-v1-z-copy"])
def test_a_refused_face_witness_leaves_the_search_to_the_loop(monkeypatch, name):
    # with the face's witness refused, the face decides nothing and the
    # loop still finds the verdict the oracle gives: no split on the face,
    # so nonseparable, by a witness the oracle accepts
    w = quantum_switch_process()
    if name != "switch":
        w = mix(w, quantum_switch_process(v1=Z), 0.5)
    refused = []

    def refusing(*args):
        rep = face_decision(*args)
        if rep is None or rep.exit != "face-witness":
            return rep
        refused.append(rep.witness)
        return None

    face_decision = process._face_decision
    monkeypatch.setattr(process, "_face_decision", refusing)
    rep = separability_heuristic(w)
    assert len(refused) == 1 and _certify_witness(w, *refused[0]) is not None
    assert oracles.face_split_residual(w.matrix, w.layout) >= 0.1
    assert (rep.verdict, rep.exit) == ("nonseparable", "loop-witness") and rep.iterations >= 1
    assert oracles.witness_margin(w.matrix, w.layout, *rep.witness) < 0.0


def test_reports_are_unchanged_where_the_face_check_decides_nothing(monkeypatch):
    # the rank-2 coherent faces hold a line of splits (nullity 1), so the
    # face decision runs after the first step and decides nothing: its
    # split is not PSD. The 18 and 47 steps that follow show any change
    pool = [coherent_process(0.3), coherent_process(1e-3)]
    reports = [separability_heuristic(w) for w in pool]
    assert [(rep.verdict, rep.exit) for rep in reports] == [("nonseparable", "loop-witness")] * 2
    for w in pool:
        # the least-norm split of the line, which the checks refuse
        _, witness, split = process._face_solve(w)
        assert witness is None and process._certified_split(w, split, "face-split") is None
    monkeypatch.setattr(process, "_face_decision", lambda *args: None)
    for w, rep in zip(pool, reports):
        ref = separability_heuristic(w)
        assert rep.to_json_dict() == ref.to_json_dict()
        for got, want in ((rep.witness, ref.witness), (rep.certificate, ref.certificate)):
            assert (got is None) == (want is None)
            for a, b in zip(got or (), want or ()):
                a, b = (x.matrix if isinstance(x, ProcessMatrix) else x for x in (a, b))
                assert np.array_equal(a, b)


def process_family_inputs(seed: int) -> list[ProcessMatrix]:
    """The benchmark's process-family pool (perfbench/workloads.py) at a seed."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("process_family_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [inp["process"] for inp in module.ProcessFamily.make_inputs(seed)]


def test_full_rank_inputs_build_no_range_basis():
    # only the face decision builds a range basis, and it decides none of
    # these: a full-rank W never asks it, and the rest, noiseless OCB inputs,
    # are rank-deficient but decided by the first step's witness, which the
    # face is asked only after
    pool = [ocb_process(0.5), *process_family_inputs(2)[:45]]
    assert sum(w._eigenvalues[0] > w._rounding for w in pool) >= 40
    for w in pool:
        rep = separability_heuristic(w)
        if w._eigenvalues[0] <= w._rounding:
            assert (rep.exit, rep.iterations) == ("loop-witness", 1)
        assert not rep.exit.startswith("face")


# The line check and the early stop: before the first step, a full-rank W
# tries the best split on the line through the search's start; from the
# second step on, the loop stops at the first affine point whose parts are
# positive definite and certify


CERTIFIED_SPLIT = process._certified_split
LINE_EXITS = ("start-split", "pencil-midpoint", "climbed-line")


def checked_splits(monkeypatch, *refused: str) -> list[tuple[str, np.ndarray, object]]:
    """Log each split the search hands to its certificate build, as (exit,
    matrices, certificate or None), and refuse the splits of the exits named
    in ``refused`` unlogged, as if their check had failed: the search then
    goes on as it does without those exits."""
    log = []

    def recorded(w, mats, exit):
        if exit in refused:
            return None
        log.append((exit, mats, CERTIFIED_SPLIT(w, mats, exit)))
        return log[-1][2]

    monkeypatch.setattr(process, "_certified_split", recorded)
    return log


def test_checks_are_not_decided_by_the_searchs_positive_definiteness_test(monkeypatch):
    # the line and the loop hand each split their test passes to the checks
    # as it stands; with a test that passes every split, the checks' own
    # factorizations must still turn away each one that is not PSD, so no
    # report moves and every certificate holds by the oracle. The lightly
    # damped mixtures refuse their start splits; 31 reach the loop's early
    # stop after 7 to 27 steps, each testing the loop's split at every step
    pool = lightly_damped_mixtures(12345, 40)
    log = checked_splits(monkeypatch)
    reports = [separability_heuristic(w) for w in pool]
    assert "start-split" not in {exit for exit, _, _ in log}
    early = [rep for rep in reports if rep.exit == "early-stop"]
    assert len(early) >= 20 and sum(rep.iterations for rep in early) >= 100
    assert {rep.exit for rep in reports} == {"early-stop", "climbed-line"}
    monkeypatch.setattr(process, "_positive_definite", lambda mats: True)
    certified = 0
    for k, (w, rep) in enumerate(zip(pool, reports)):
        fooled = separability_heuristic(w)
        assert (fooled.verdict, fooled.iterations, fooled.exit) == (rep.verdict, rep.iterations, rep.exit), k
        assert fooled.to_json_dict() == rep.to_json_dict(), k
        if fooled.certificate is not None:
            q, w_ab, w_ba = fooled.certificate
            worst, recon = oracles.decomposition_defects(w.matrix, w.layout, q, w_ab.matrix, w_ba.matrix)
            assert worst <= 1e-12 and recon <= 1e-12, k
            certified += 1
    assert certified == len(pool)


def builder_exit_pool() -> list[ProcessMatrix]:
    """Searches that reach every exit but the step cap: W's start split, the
    pencil's midpoint, a climbed line and the loop's witness (the first 150
    process-family inputs of seed 1, noiseless OCB among them), the face
    split (the undamped mixtures of seed 1, a pure process with a future in
    each order and criterion 6's mixture of the two switch orders at
    q = 0.3, whose face splits form a line), the face witness (the switch
    process), the loop's early stop (two lightly damped mixtures), its
    converged exit (a product process) and its fixed point (the coherent
    process at visibility 1e-6, refused there)."""
    return [
        *process_family_inputs(1)[:150],
        *undamped_ordered_mixtures(1, 8),
        *(pure_ordered_process(order, 3) for order in ("AB", "BA")),
        mix(quantum_switch_process((1.0, 0.0)), quantum_switch_process((0.0, 1.0)), 0.3),
        quantum_switch_process(),
        *lightly_damped_mixtures(12345, 2),
        product_processes()["product"],
        coherent_process(1e-6),
    ]


def test_every_exit_is_named_and_its_certificate_holds_by_the_oracles(monkeypatch):
    # each report names its exit; each certificate holds by the mask-free
    # oracles: a decomposition within its parts' rounding bound, a witness
    # with a negative margin
    reached = {}
    for w in builder_exit_pool():
        rep = separability_heuristic(w)
        reached.setdefault(rep.exit, []).append((w, rep))
    parts = damped_ordered_parts()
    w = mix(*parts, 0.3)
    reached["decomposition"] = [(w, certify_decomposition(w, 0.3, *parts))]
    # no cheap input runs the loop's 2,000 steps without a certificate or its
    # fixed point: with the cap lowered to 5, the coherent process at
    # visibility 0.3 (18 steps to its witness) stops there
    monkeypatch.setattr(process, "SEARCH_STEPS", 5)
    w = coherent_process(0.3)
    reached["step-cap"] = [(w, separability_heuristic(w))]
    assert sorted(reached) == sorted(process.EXITS)
    verdicts = {"fixed-point": "inconclusive", "step-cap": "inconclusive"}
    for exit, searches in reached.items():
        for w, rep in searches:
            want = verdicts.get(exit, "nonseparable" if exit.endswith("witness") else "separable")
            assert rep.verdict == want, exit
            if rep.certificate is not None:
                assert not decomposition_fails_the_oracle(w, *rep.certificate), exit
            if rep.witness is not None:
                assert oracles.witness_margin(w.matrix, w.layout, *rep.witness) < 0.0, exit
    assert reached["step-cap"][0][1].iterations == 5
    with pytest.raises(ValueError, match="unknown exit"):
        process.SeparabilityReport(None, 0.0, 0, exit="line")


def test_every_certified_split_sums_to_w(monkeypatch):
    # each exit hands the builder an (X, Y) that sums to W, so a kept part
    # has trace d_O, or more where q is clamped: its trace is never <= 0
    log, seen = checked_splits(monkeypatch), []
    for w in builder_exit_pool():
        log.clear()
        separability_heuristic(w)
        seen += [(exit, frobenius(mats[0] + mats[1] - w.matrix) / tau_of(w.matrix)) for exit, mats, _ in log]
    exits = {exit for exit, _ in seen}
    assert exits == {*LINE_EXITS, "early-stop", "face-split", "converged"}
    # within W's rounding bound, the face solve's split cut
    assert max(ratio for _, ratio in seen) <= 1.0


def test_no_certificate_check_decomposes_a_matrix(monkeypatch):
    # every positivity gate of the two checks is a shifted Cholesky
    # factorization, so no eigendecomposition runs inside either of them.
    # The search hands its splits to _certified_stack, the one decomposition
    # checker, which certify_decomposition wraps: the count is taken there,
    # and a call made while either check runs counts as inside
    checks, inside, running = [], [], []

    def counted(name, original):
        def call(*args):
            checks.append(name)
            running.append(name)
            try:
                return original(*args)
            finally:
                running.pop()

        return call

    def recorded(fn, original):
        def call(*args, **kwargs):
            inside.extend((fn, name) for name in running)
            return original(*args, **kwargs)

        return call

    for name in ("_certified_stack", "_certify_witness"):
        monkeypatch.setattr(process, name, counted(name, getattr(process, name)))
    for fn in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, fn, recorded(fn, getattr(np.linalg, fn)))
    for w in (*builder_exit_pool(), dephased_switch(0.5)):
        separability_heuristic(w)
    for name in BUILTIN_SCENARIOS:
        run_scenario(ScenarioConfig.from_dict({"scenario": name}))
    assert checks.count("_certified_stack") >= 100 and checks.count("_certify_witness") >= 10
    assert inside == []


def test_full_rank_ordered_mixtures_stop_at_the_first_positive_definite_split(monkeypatch):
    # the climb off the start line would certify the searches the loop stops
    # early, so it is switched off: the line and the loop's early stop remain
    log = checked_splits(monkeypatch, "climbed-line")
    inputs = complex_search_inputs()
    pool = [inputs["ordered-mixture-1"], inputs["ordered-mixture-4"], *process_family_inputs(1)[:60:3]]
    on_line, early = 0, 0
    for w in pool:
        assert w._eigenvalues[0] > w._rounding  # full rank
        log.clear()
        rep = separability_heuristic(w)
        assert rep.verdict == "separable"
        # every search ends at its first positive definite split: on the
        # line with no step, or in the loop
        if rep.exit in LINE_EXITS:
            assert rep.iterations == 0
            on_line += 1
        else:
            assert rep.exit == "early-stop" and rep.iterations >= 1
            early += 1
        # one split reaches the builder, the start split the line's test
        # passed, the pencil's untested or the one the loop's test passed,
        # and it is positive definite
        assert [exit for exit, _, _ in log] == [rep.exit]
        assert np.linalg.eigvalsh(log[0][1])[:, 0].min() > 0.0
        q, w_ab, w_ba = rep.certificate
        worst, recon = oracles.decomposition_defects(w.matrix, w.layout, q, w_ab.matrix, w_ba.matrix)
        assert worst <= 1e-9 and recon <= 1e-13 and rep.residual <= 1e-13
    assert on_line >= 12 and early >= 6


def test_positive_definiteness_is_never_tested_on_rank_deficient_or_first_step_searches(monkeypatch):
    # every split the search's positive-definiteness test passes goes to the
    # checks, so the log names each one by its exit; ``tested`` counts the tests
    log, tested, positive_definite = checked_splits(monkeypatch), [], process._positive_definite
    monkeypatch.setattr(process, "_positive_definite", lambda mats: tested.append(mats) or positive_definite(mats))
    deficient = [
        coherent_process(0.3),
        coherent_process(1e-3),
        quantum_switch_process(),
        ocb_process(),
        undamped_ordered_mixtures(1, 1)[0],
    ]
    assert all(w._eigenvalues[0] <= w._rounding for w in deficient)
    # only the rank-2 coherent processes run past the first step; none is
    # decided on the line or by the loop's early stop
    reports = [separability_heuristic(w) for w in deficient]
    assert [rep.iterations > 1 for rep in reports] == [True, True, False, False, False]
    assert [rep.exit for rep in reports] == ["loop-witness"] * 2 + ["face-witness", "loop-witness", "face-split"]
    # the face splits of the rank-2 coherent processes are refused
    assert [(exit, cert is not None) for exit, _, cert in log] == [("face-split", False)] * 2 + [("face-split", True)]
    assert tested == []
    # full rank and nonseparable: the line's test refuses its start split,
    # its interval is empty, and the first step decides with no test of the
    # loop's; no split reaches the checks
    for w in (ocb_process(0.2), phase_rotated(ocb_process(0.2), 5)):
        assert w._eigenvalues[0] > w._rounding
        t_lo, t_hi, _ = oracles.line_split_interval(w.matrix, w.layout)
        assert t_lo >= t_hi
        log.clear()
        tested.clear()
        assert process._line_split(w) is None and log == [] and len(tested) == 1
        tested.clear()
        rep = separability_heuristic(w)
        assert (rep.verdict, rep.iterations, rep.exit) == ("nonseparable", 1, "loop-witness") and log == []
        assert len(tested) == 1
    # full rank and separable at the start: one test, of its start split,
    # and no step
    for w in (ocb_process(0.5), ocb_process(0.8), phase_rotated(ocb_process(0.5), 5)):
        log.clear()
        tested.clear()
        rep = separability_heuristic(w)
        assert (rep.iterations, rep.exit) == (0, "start-split") and [exit for exit, _, _ in log] == ["start-split"]
        assert len(tested) == 1
    # an ordered mixture whose start line is empty: the start split is
    # refused, the climb off the line hands its split to the checks
    # untested, and with the climb off the loop's tests start at step 2 and
    # it stops early
    w = complex_search_inputs()["ordered-mixture-4"]
    log.clear()
    tested.clear()
    rep = separability_heuristic(w)
    assert (rep.iterations, rep.exit) == (0, "climbed-line") and [exit for exit, _, _ in log] == ["climbed-line"]
    assert len(tested) == 1
    log = checked_splits(monkeypatch, "climbed-line")
    tested.clear()
    rep = separability_heuristic(w)
    assert rep.exit == "early-stop" and rep.iterations > 1 and {exit for exit, _, _ in log} == {"early-stop"}
    # the line's one test, then the loop's at the top of steps 2 to k + 1
    assert log[-1][2] is not None and len(tested) == 1 + rep.iterations


@pytest.mark.parametrize("seed", [2, 3])
def test_early_stop_keeps_every_verdict_and_never_adds_a_step(monkeypatch, seed):
    # with the climb off the start line on, no input of the pool reaches the
    # loop's early stop; switched off, the searches it decides do
    checked_splits(monkeypatch, "climbed-line")
    pool = process_family_inputs(seed)[:150]
    reports = [separability_heuristic(w) for w in pool]
    on_line = [rep.exit in LINE_EXITS for rep in reports]
    early = [rep.exit == "early-stop" for rep in reports]
    assert sum(on_line) >= 90 and sum(early) >= 10 and not all(on_line)
    # the line check decides nothing: every search it does not decide
    # reports the same bytes, and each one it decides took a step there
    checked_splits(monkeypatch, *LINE_EXITS)
    for w, rep, line in zip(pool, reports, on_line):
        ref = separability_heuristic(w)
        assert rep.verdict == ref.verdict
        if line:
            assert rep.iterations == 0 < ref.iterations
        else:
            assert rep.to_json_dict() == ref.to_json_dict()
    # no early stop either: it never adds a step
    checked_splits(monkeypatch, *LINE_EXITS, "early-stop")
    for w, rep, stopped in zip(pool, reports, early):
        ref = separability_heuristic(w)
        assert rep.verdict == ref.verdict
        if stopped:
            assert rep.iterations <= ref.iterations
        elif rep.iterations:
            assert rep.to_json_dict() == ref.to_json_dict()


def line_pool() -> dict[str, ProcessMatrix]:
    """Twenty seeded full-rank inputs of the kinds the benchmark searches:
    ordered mixtures damped by white noise, random valid processes and OCB
    processes with white noise."""
    rng, pool = np.random.default_rng(29), {}
    for k, w in enumerate(undamped_ordered_mixtures(29, 7)):
        pool[f"damped-{k}"] = mix(w, neutral_process(w.layout), 1.0 - rng.uniform(0.05, 0.5))
        pool[f"random-valid-{k}"] = random_valid_process(rng, 2, rng.uniform(0.4, 0.7))
    for k in range(6):
        pool[f"ocb-{k}"] = ocb_process(rng.uniform(0.05, 0.6))
    return pool


def test_line_interval_and_certificates_agree_with_the_reset_oracle():
    # on the start line A and B are traceless and tr S = d_O, so the
    # certificate's q is the line's t: 1/2 where the oracle's interval holds
    # it, W's own start split (A + S/2, B + S/2), positive definite and
    # certified as it stands with no step, the line's exit before its pencil;
    # the interval's midpoint elsewhere
    certified, started = 0, 0
    for name, w in line_pool().items():
        cert = process._line_split(w)
        t_lo, t_hi, s = oracles.line_split_interval(w.matrix, w.layout)
        if cert is None:
            assert t_lo >= t_hi, name
            continue
        certified += 1
        q, w_ab, w_ba = cert.certificate
        rep = separability_heuristic(w)
        assert rep.iterations == 0 and rep.certificate[0] == q and rep.exit == cert.exit, name
        # an empty start line certifies only off a climbed line, which the
        # climb's own tests check
        if t_lo < 0.5 < t_hi:
            assert abs(q - 0.5) <= 1e-12 and rep.exit == "start-split", name
            started += 1
            # at t = 1/2 both parts keep the distance to the nearer end times S
            delta = min(0.5 - t_lo, t_hi - 0.5)
        else:
            assert rep.exit != "start-split", name
            if t_lo < t_hi:
                assert abs(q - 0.5 * (t_lo + t_hi)) <= 1e-10, name
            # at the midpoint both parts keep half the interval's length times S
            delta = 0.5 * (t_hi - t_lo)
        for weight, part in ((q, w_ab), (1.0 - q, w_ba)):
            assert np.linalg.eigvalsh(weight * part.matrix - delta * s)[0] >= -1e-12, name
        worst, recon = oracles.decomposition_defects(w.matrix, w.layout, q, w_ab.matrix, w_ba.matrix)
        assert worst <= min(tau_of(w_ab.matrix), tau_of(w_ba.matrix)) and recon <= 1e-13, name
        assert rep.residual <= recon_gate(w.layout.dim), name
    assert 8 <= certified < len(line_pool()) and 10 <= started < certified and len(line_pool()) - started >= 4


def test_a_start_split_inside_its_interval_is_certified_before_the_pencil(monkeypatch):
    # where the oracle's interval holds t = 1/2, W's own start split
    # (A + S/2, B + S/2) is positive definite and certifies as it stands:
    # q = 1/2, no step, and no inverse or eigenvalue problem in the line;
    # the inputs whose start split is refused solve the pencil, and climb
    # off the line (an eigh before each step) only where its interval is empty
    calls = []

    def spied(name):
        def call(original, *args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return call

    for name in ("inv", "eigvalsh", "eigh"):
        in_the_line(monkeypatch, name, spied(name))
    started, solved = 0, 0
    for name, w in line_pool().items():
        t_lo, t_hi, _ = oracles.line_split_interval(w.matrix, w.layout)
        calls.clear()
        rep = separability_heuristic(w)
        if not t_lo < 0.5 < t_hi:
            assert rep.exit != "start-split" and calls[:2] == ["inv", "eigvalsh"], name
            assert ("eigh" in calls) is (t_lo >= t_hi), name
            solved += 1
            continue
        started += 1
        assert (rep.verdict, rep.iterations, rep.exit) == ("separable", 0, "start-split") and calls == [], name
        q, w_ab, w_ba = rep.certificate
        assert abs(q - 0.5) <= 1e-12, name
        worst, recon = oracles.decomposition_defects(w.matrix, w.layout, q, w_ab.matrix, w_ba.matrix)
        assert worst <= min(tau_of(w_ab.matrix), tau_of(w_ba.matrix)), name
        assert recon <= recon_gate(w.layout.dim) and rep.residual <= recon_gate(w.layout.dim), name
    assert started >= 10 and solved >= 4


def test_a_refused_start_split_never_reaches_the_certificate_build(monkeypatch):
    # the line tests its start split once; a split the test passes is the
    # first the builder gets, and one it refuses never reaches the builder,
    # which gets at most the pencil's or the climbed split
    log = checked_splits(monkeypatch)
    pool = {**line_pool(), "ocb-0.2": ocb_process(0.2), "phase-rotated": phase_rotated(ocb_process(0.2), 5)}
    refused = 0
    for name, w in pool.items():
        t_lo, t_hi, _ = oracles.line_split_interval(w.matrix, w.layout)
        log.clear()
        process._line_split(w)
        exits = [exit for exit, _, _ in log]
        if t_lo < 0.5 < t_hi:
            assert exits[0] == "start-split", name
            continue
        refused += 1
        assert exits in ([], ["pencil-midpoint"], ["climbed-line"]), name
    assert refused >= 6


# The climb: where the start line holds no PSD split, supergradient steps on
# the concave interval length move the line by a shared H before any step


def in_the_line(monkeypatch, name: str, fake) -> None:
    """Make ``np.linalg.<name>`` ``fake(original, *args, **kwargs)`` while the
    search's line (:func:`process._line_split`, and the climb off it) runs,
    and only then. W's eigenvalues are cached once its validity is."""
    line, original = process._line_split, getattr(np.linalg, name)

    def patched(w):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(np.linalg, name, lambda *args, **kwargs: fake(original, *args, **kwargs))
            return line(w)

    monkeypatch.setattr(process, "_line_split", patched)


def recorded_climbs(monkeypatch) -> list[float]:
    """Log the interval length t_hi - t_lo that each eigvalsh of the line
    reads, one per iterate: the start line's pencil, then one entry per
    climbing step."""
    margins = []

    def recorded(eigvalsh, a, *args, **kwargs):
        out = eigvalsh(a, *args, **kwargs)
        margins.append(1.0 - out[1, -1] - out[0, -1])
        return out

    in_the_line(monkeypatch, "eigvalsh", recorded)
    return margins


def climbing_mixtures() -> dict[str, ProcessMatrix]:
    """Two ordered mixtures whose start line holds no PSD split: the real part
    of a process-family input of seed 1, itself an ordered mixture (the
    mixture of W and its conjugate), and a complex input."""
    w = process_family_inputs(1)[111]
    return {
        "real": ProcessMatrix(w.matrix.real, w.layout),
        "complex": complex_search_inputs()["ordered-mixture-4"],
    }


def test_every_ordered_mixture_certifies_off_its_start_line(monkeypatch):
    # every full-rank ordered mixture of the pool is certified with no loop
    # step, on its start line (its start split or the pencil's midpoint) or
    # by one or two climbing steps off it, and each certificate holds by the
    # oracle within the rounding bound
    margins = recorded_climbs(monkeypatch)
    pool = process_family_inputs(1)[::3]
    steps = []
    for k, w in enumerate(pool):
        assert w._eigenvalues[0] > w._rounding, k
        margins.clear()
        rep = separability_heuristic(w)
        assert rep.exit in LINE_EXITS and rep.iterations == 0, (k, rep.exit)
        steps.append(max(len(margins) - 1, 0))
        assert (rep.exit == "climbed-line") is (steps[-1] > 0), k
        q, w_ab, w_ba = rep.certificate
        worst, recon = oracles.decomposition_defects(w.matrix, w.layout, q, w_ab.matrix, w_ba.matrix)
        assert worst <= min(tau_of(w_ab.matrix), tau_of(w_ba.matrix)), k
        assert recon <= recon_gate(w.layout.dim) and rep.residual <= recon_gate(w.layout.dim), k
    # 105 on the start line, 34 after one step and one after two
    assert len(pool) == 140 and steps.count(0) >= 90 and steps.count(1) >= 30 and set(steps) <= {0, 1, 2}


@pytest.mark.parametrize("name", ["real", "complex"])
def test_climbed_midpoint_keeps_half_its_interval_of_s_by_the_reset_oracle(monkeypatch, name):
    # the certified split (X, Y) lies on the line (A + H + t S, B - H + (1 - t) S)
    # at t = 0 with H = X - A; by the oracle's projectors H is shared, the
    # start line's interval is empty, t = 0 is the midpoint of H's interval
    # and both parts are at least half its length times S
    w = climbing_mixtures()[name]
    margins = recorded_climbs(monkeypatch)
    lay = w.layout
    validate_process(w)
    cert = process._line_split(w)
    assert cert.exit == "climbed-line"
    t_lo, t_hi, s = oracles.line_split_interval(w.matrix, lay)
    # the climb starts from the start line's own interval, which is empty
    assert t_lo >= t_hi and margins[0] == pytest.approx(t_hi - t_lo, abs=1e-10)
    assert margins[0] < 0.0 < margins[-1] and len(margins) == {"real": 2, "complex": 3}[name]
    q, w_ab, w_ba = cert.certificate
    x, y = q * w_ab.matrix, (1.0 - q) * w_ba.matrix
    a = oracles.order_projection(w.matrix, lay, "AB") - s
    h = x - a
    for order in ("AB", "BA"):
        assert np.abs(oracles.order_projection(h, lay, order) - h).max() <= 1e-12
    lo, hi, _ = oracles.line_split_interval(w.matrix, lay, h)
    assert lo < hi and abs(lo + hi) <= 1e-10
    assert hi - lo == pytest.approx(margins[-1], abs=1e-10)
    for part in (x, y):
        assert np.linalg.eigvalsh(part - 0.5 * (hi - lo) * s)[0] >= -1e-12
    worst, recon = oracles.decomposition_defects(w.matrix, lay, q, w_ab.matrix, w_ba.matrix)
    assert worst <= 1e-9 and recon <= recon_gate(lay.dim)


def test_a_witness_input_climbs_one_step_and_keeps_its_report(monkeypatch):
    # on OCB with white noise the start split is refused and the interval
    # only shrinks: the climb stops after one step, hands no split to the
    # checks, and the first loop step finds the same witness as with the
    # whole line switched off
    log, margins = checked_splits(monkeypatch), recorded_climbs(monkeypatch)
    pool = (ocb_process(0.2), phase_rotated(ocb_process(0.2), 5))
    reports = []
    for w in pool:
        margins.clear()
        reports.append(separability_heuristic(w))
        assert len(margins) == 2 and margins[1] < margins[0] < 0.0, margins
        assert reports[-1].exit == "loop-witness"
    assert log == []
    monkeypatch.setattr(process, "_line_split", lambda w: None)
    for w, rep in zip(pool, reports):
        ref = separability_heuristic(w)
        assert rep.to_json_dict() == ref.to_json_dict() and ref.verdict == "nonseparable"
        assert all(np.array_equal(a, b) for a, b in zip(rep.witness, ref.witness))


@pytest.mark.parametrize("name", ["real", "complex"])
@pytest.mark.parametrize("stub", ["no-slope", "no-rise"])
def test_a_climb_with_no_slope_or_no_rise_leaves_the_search_to_the_loop(monkeypatch, name, stub):
    # "no-slope" gives both parts the same least eigenvector, so the
    # supergradient and its slope are 0; "no-rise" repeats the start's
    # interval after the step, so it does not grow. Either stops the climb
    # at once, and the search reports what the loop alone reports
    w = climbing_mixtures()[name]
    calls, firsts = [], []

    def stubbed(fn, original, a, *args, **kwargs):
        calls.append(fn)
        if fn == "eigvalsh":
            firsts.append(a)
            return original(firsts[0] if stub == "no-rise" else a, *args, **kwargs)
        vals, vecs = original(a, *args, **kwargs)
        return (vals, np.stack((vecs[0], vecs[0]))) if stub == "no-slope" else (vals, vecs)

    # the loop's report alone, with the climbed line's splits refused
    checked_splits(monkeypatch, "climbed-line")
    ref = separability_heuristic(w)
    monkeypatch.undo()
    for fn in ("eigvalsh", "eigh"):
        in_the_line(monkeypatch, fn, lambda *args, fn=fn, **kwargs: stubbed(fn, *args, **kwargs))
    rep = separability_heuristic(w)
    # an eigh before the step the slope refuses; after the step, the
    # unrisen interval's eigvalsh
    assert calls == {"no-slope": ["eigvalsh", "eigh"], "no-rise": ["eigvalsh", "eigh", "eigvalsh"]}[stub]
    assert rep.to_json_dict() == ref.to_json_dict() and ref.verdict == "separable" and ref.iterations >= 1
    assert rep.exit == ref.exit == "early-stop"


def test_the_line_solves_one_eigvalsh_per_iterate_and_an_eigh_only_before_a_step(monkeypatch):
    # every full-rank input whose start split is refused inverts S's
    # Cholesky factor once and reads each iterate's interval by one eigvalsh
    # of -L^-1 (A + H, B - H) L^-dagger; one eigh, of that same iterate, runs
    # only before a step: ["inv", "eigvalsh", *["eigh", "eigvalsh"] * steps].
    # The pencil's midpoint takes no step, a climbed line one or two, and a
    # climb whose interval did not grow stops with no eigh after its last
    # step (a slope that is not positive, the one stop with a last eigh, is
    # stubbed in the test above)
    calls, log = [], checked_splits(monkeypatch)

    def spied(name):
        def call(original, a, *args, **kwargs):
            calls.append((name, a))
            return original(a, *args, **kwargs)

        return call

    for name in ("inv", "eigvalsh", "eigh"):
        in_the_line(monkeypatch, name, spied(name))
    tally = {}
    for k, w in enumerate([*process_family_inputs(1), *climbing_mixtures().values()]):
        if w._eigenvalues[0] <= w._rounding:
            continue
        calls.clear()
        log.clear()
        process._line_split(w)
        names, handed = [name for name, _ in calls], [exit for exit, _, _ in log]
        if handed[:1] == ["start-split"] and log[0][2] is not None:
            assert names == [], k
            continue
        steps = names.count("eigh")
        assert names == ["inv", "eigvalsh", *["eigh", "eigvalsh"] * steps], k
        solved = [a for name, a in calls if name == "eigvalsh"]
        for before, (_, a) in zip(solved, calls[2::2]):
            # the eigh before a step solves the iterate whose interval was just read
            assert np.array_equal(a, -before), k
        assert not any(np.array_equal(a, solved[0]) for a in solved[1:]), k
        exit = next((exit for exit in handed if exit != "start-split"), None)
        tally[exit, steps] = tally.get((exit, steps), 0) + 1
    # seed 1: 92 pencil midpoints, 35 climbed lines (one after two steps)
    # and 25 noisy OCB inputs whose interval shrank after one step; then the
    # real climbing mixture after one step and the complex one after two
    assert tally[("pencil-midpoint", 0)] >= 80 and tally[(None, 1)] >= 20, tally
    assert tally[("climbed-line", 1)] >= 30 and tally[("climbed-line", 2)] >= 2, tally
    assert set(tally) == {("pencil-midpoint", 0), ("climbed-line", 1), ("climbed-line", 2), (None, 1)}, tally


def test_a_shared_part_with_no_cholesky_factor_leaves_the_line_to_the_loop(monkeypatch):
    # the shared part S of a full-rank W is positive definite, so only a
    # failed factorization of S reaches the line's exit before its pencil;
    # with every factorization in the line refused, the start split's test
    # too, the loop then reaches the verdict the oracles give: separable
    # where the line holds a PSD split, nonseparable by a witness they accept
    def refused(cholesky, a, *args, **kwargs):
        raise np.linalg.LinAlgError("no factor")

    in_the_line(monkeypatch, "cholesky", refused)
    verdicts = []
    for w in (ocb_process(0.5), phase_rotated(ocb_process(0.5), 5), ocb_process(0.2)):
        lay = w.layout
        assert process._line_split(w) is None
        rep = separability_heuristic(w)
        t_lo, t_hi, _ = oracles.line_split_interval(w.matrix, lay)
        verdicts.append(rep.verdict)
        if t_lo < t_hi:
            # the first step clips nothing off the PSD start split: the loop converges
            assert (rep.verdict, rep.iterations, rep.exit) == ("separable", 1, "converged")
            q, w_ab, w_ba = rep.certificate
            worst, recon = oracles.decomposition_defects(w.matrix, lay, q, w_ab.matrix, w_ba.matrix)
            assert worst <= 1e-9 and recon <= recon_gate(w.layout.dim)
        else:
            assert (rep.verdict, rep.exit) == ("nonseparable", "loop-witness")
            assert oracles.witness_margin(w.matrix, lay, *rep.witness) < 0.0
    assert verdicts == ["separable", "separable", "nonseparable"]


@pytest.mark.parametrize("name", ["real", "complex"])
def test_the_certificate_gate_alone_refuses_a_line_split_that_is_not_psd(monkeypatch, name):
    # t = 1/2 lies above this input's interval, so its start split is
    # refused, and the line hands its pencil's split to the checks untested:
    # a pencil eigvalsh that raises both ends of the interval by its length
    # puts the midpoint above the true t_hi, where Y is not PSD, so only the
    # positivity gate of _certified_stack, the checker the line's split goes
    # to, stands between that split and a certificate; it refuses, and the
    # loop decides as it does with the line switched off
    w = complex_search_inputs()["ordered-mixture-1"]
    if name == "real":
        # the mixture of W and its conjugate: again a full-rank ordered mixture
        w = ProcessMatrix(w.matrix.real, w.layout)
    lay = w.layout
    t_lo, t_hi, _ = oracles.line_split_interval(w.matrix, lay)
    assert t_lo < t_hi < 1.0 - 1.5 * (t_hi - t_lo)

    def shifted(eigvalsh, a, *args, **kwargs):
        # t_lo is the first part's largest value, 1 - t_hi the second's
        return eigvalsh(a, *args, **kwargs) + np.array((1.0, -1.0))[:, None] * (t_hi - t_lo)

    validate_process(w)
    in_the_line(monkeypatch, "eigvalsh", shifted)
    log = checked_splits(monkeypatch)
    assert process._line_split(w) is None
    ((exit, split, cert),) = log
    assert (exit, cert) == ("pencil-midpoint", None)
    assert np.linalg.eigvalsh(split[1])[0] < 0.0
    rep = separability_heuristic(w)
    checked_splits(monkeypatch, *LINE_EXITS)
    ref = separability_heuristic(w)
    assert rep.to_json_dict() == ref.to_json_dict() and rep.verdict == "separable"
    assert rep.exit == ref.exit == "early-stop"


@pytest.mark.parametrize("name", list(product_processes()), ids=["plain", "phase-rotated", "future"])
def test_a_singular_psd_start_split_is_certified_at_the_converged_exit(name):
    # W = |0><0| (x) 1 (x) |0><0| (x) 1 (rank 4), its phase-rotated copy and
    # its copy with a future: the start split is PSD but singular, so the
    # first step's gap is 0, the loop ends at once and its converged exit
    # certifies it
    w = product_processes()[name]
    assert w._eigenvalues[0] <= w._rounding
    rep = separability_heuristic(w)
    assert (rep.verdict, rep.iterations, rep.exit) == ("separable", 1, "converged")
    q, w_ab, w_ba = rep.certificate
    worst, recon = oracles.decomposition_defects(w.matrix, w.layout, q, w_ab.matrix, w_ba.matrix)
    assert worst <= min(tau_of(w_ab.matrix), tau_of(w_ba.matrix))
    assert recon <= recon_gate(w.layout.dim) and rep.residual <= recon_gate(w.layout.dim)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 0.9), st.floats(0.05, 0.5))
def test_damped_ordered_mixtures_are_separable_and_the_line_never_adds_a_step(seed, q, noise):
    rng = np.random.default_rng(seed)

    def channel() -> np.ndarray:
        iso = haar_unitary(rng, 4)[:, :2]
        return choi_of_kraus([iso[:2], iso[2:]])

    w_ab = ordered_process(random_density(rng, 2), channel(), "AB")
    w_ba = ordered_process(random_density(rng, 2), channel(), "BA")
    w = mix(mix(w_ab, w_ba, q), neutral_process(w_ab.layout), 1.0 - noise)
    rep = separability_heuristic(w)
    assert rep.verdict == "separable"
    with pytest.MonkeyPatch.context() as patch:
        checked_splits(patch, *LINE_EXITS)
        ref = separability_heuristic(w)
    assert ref.verdict == rep.verdict and ref.iterations >= rep.iterations


def certificate_pool() -> dict[str, ProcessMatrix]:
    """The undamped pool at seed 1, the complex search inputs, and a seeded
    slice of the kinds the benchmark searches: ordered mixtures damped by
    white noise, random valid processes and OCB processes with white noise
    (the first one noiseless)."""
    pool = {f"undamped-{k}": w for k, w in enumerate(undamped_ordered_mixtures(1, 8))}
    pool.update(complex_search_inputs())
    rng = np.random.default_rng(23)
    for k, w in enumerate(undamped_ordered_mixtures(23, 5)):
        pool[f"damped-{k}"] = mix(w, neutral_process(w.layout), 1.0 - rng.uniform(0.3, 0.35))
        pool[f"random-valid-{k}"] = random_valid_process(rng, 2, rng.uniform(0.4, 0.7))
        pool[f"ocb-{k}"] = ocb_process(rng.uniform() if k else 0.0)
    return pool


def retired_split(w, mats, exit):
    """The certificate of the oracle's candidate builder on the matrices
    (X, Y) of an order split the search certifies, padded as the search
    pads; it names the checker's exit, not the search's."""
    lay = w.layout
    out = oracles.certificate_candidate(*mats, lay)
    if out is None:
        return None
    q, *parts = out
    return certify_decomposition(
        w, q, *(neutral_process(lay) if m is None else ProcessMatrix(m, lay) for m in parts)
    )


def parts_built_one_at_a_time(w, mats):
    """The certificate of an order split (X, Y) as the search built it before
    its stack went straight to the checker: each part built as a
    ProcessMatrix of its own, then :func:`certify_decomposition`, with a
    dropped part factored and padded as the search pads."""
    lay, d_o = w.layout, w.expected_trace
    q = min(max(float(np.real(np.trace(mats[0]))) / d_o, 0.0), 1.0)
    weights = np.array((q, 1.0 - q))
    kept = weights >= 1e-6
    if not kept.all():
        try:
            np.linalg.cholesky(mats[~kept] + w._rounding * np.eye(lay.dim))
        except np.linalg.LinAlgError:
            return None
        mats, weights = mats[kept], weights[kept]
    stack = mats / weights[:, None, None]
    stack = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    stack *= (d_o / np.real(np.trace(stack, axis1=-2, axis2=-1)))[:, None, None]
    parts = [ProcessMatrix(mat, lay) for mat in stack]
    return certify_decomposition(w, q, *(parts.pop(0) if keep else neutral_process(lay) for keep in kept))


def test_every_search_split_certifies_as_with_parts_built_one_at_a_time(monkeypatch):
    # the search's splits go straight to the stack checker, which builds the
    # parts only once every gate has passed; built one at a time and checked
    # by certify_decomposition, as before, each split gets the same report
    # (or None), the same q and bit for bit the same part matrices, at every
    # exit. Each certificate's parts are read-only and keep the coefficients
    # their own arithmetic gives. Each exit hands the builder an (X, Y) that
    # sums to W within W's rounding bound, the face solve's split cut, so a
    # kept part has trace d_O, or more where q is clamped: never <= 0
    log, exits, ratios = checked_splits(monkeypatch), set(), []
    # builder_exit_pool() holds the first 150 process-family inputs of seed 1
    pool = [*builder_exit_pool(), *lightly_damped_mixtures(12345, 40), *product_processes().values()]
    for w in pool:
        log.clear()
        separability_heuristic(w)
        for exit, mats, got in log:
            ratios.append(frobenius(mats[0] + mats[1] - w.matrix) / tau_of(w.matrix))
            want = parts_built_one_at_a_time(w, mats.copy())
            assert (got is None) == (want is None)
            if got is None:
                continue
            assert got.to_json_dict() == want.to_json_dict() and got.certificate[0] == want.certificate[0]
            for part, ref in zip(got.certificate[1:], want.certificate[1:]):
                assert part.matrix.tobytes() == ref.matrix.tobytes() and not part.matrix.flags.writeable
                assert part._own.dtype == ref._own.dtype and np.array_equal(part._coef, ref._coef)
            assert got.exit == exit and want.exit == "decomposition"
            exits.add(exit)
    assert exits == {*LINE_EXITS, "early-stop", "face-split", "converged"} and max(ratios) <= 1.0


def test_candidate_from_coefficients_agrees_with_the_retired_builder(monkeypatch):
    # every search of the pool runs again with the oracle's builder at each
    # exit that certifies a split. Neither builder lifts a part: both take
    # the split as it stands
    pool = certificate_pool()
    new = {name: separability_heuristic(w) for name, w in pool.items()}
    monkeypatch.setattr(process, "_certified_split", retired_split)
    old = {name: separability_heuristic(w) for name, w in pool.items()}
    verdicts = [rep.verdict for rep in new.values()]
    assert verdicts.count("separable") >= 15 and verdicts.count("nonseparable") >= 2
    assert {name for name, rep in new.items() if rep.exit == "face-split"} == {f"undamped-{k}" for k in range(8)}
    for name, w in pool.items():
        a, b = new[name], old[name]
        assert (a.verdict, a.iterations, a.witness_value) == (b.verdict, b.iterations, b.witness_value), name
        assert abs(a.residual - b.residual) <= 1e-14, name
        if a.certificate is None:
            continue
        assert a.certificate[0] == b.certificate[0], name
        for rep in (a, b):
            q, w_ab, w_ba = rep.certificate
            worst, recon = oracles.decomposition_defects(w.matrix, w.layout, q, w_ab.matrix, w_ba.matrix)
            assert worst <= 1e-9 and recon <= rep.residual, name


def test_each_matrix_is_converted_to_coefficients_once(monkeypatch):
    # W's coefficients serve its validity check and the search; the two
    # certificate parts' serve their validity and order-subspace checks, from
    # one conversion of their stack
    matrices = []

    def recorded(basis, m):
        matrices.append(m)
        return to_coef(basis, m)

    to_coef = process.HSBasis.to_coef
    monkeypatch.setattr(process.HSBasis, "to_coef", recorded)
    w = ProcessMatrix(ocb_process(0.5).matrix, standard_layout(2))
    assert validate_process(w).is_valid
    rep = separability_heuristic(w)
    assert rep.verdict == "separable"
    assert [m.shape for m in matrices] == [(16, 16), (2, 16, 16)]
    assert np.array_equal(matrices[0], w.matrix.real)
    q, w_ab, w_ba = rep.certificate
    assert np.array_equal(matrices[1], np.stack((w_ab.matrix.real, w_ba.matrix.real)))


def test_each_certified_split_is_converted_to_matrices_once(monkeypatch):
    # the line's split is formed from the (A, B, S) matrices of its pencil
    # (the start splits of both inputs are refused) and goes to the builder
    # untested, the loop's is the one its test passed, and the builder takes
    # either as it stands: the check gates both parts by Cholesky, so with
    # W's validity warm the line's, one per iterate, are the only eigvalsh
    # of the search
    passed, converted, eigvals = [], [], []

    def recorded_test(mats):
        ok = positive_definite(mats)
        if ok:
            passed.append(mats)
        return ok

    def recorded_to_mat(basis, c):
        converted.append(to_mat(basis, c))
        return converted[-1]

    def recorded_eigvalsh(a, *args, **kwargs):
        eigvals.append((a.size // a.shape[-1] ** 2, len(passed)))
        return eigvalsh(a, *args, **kwargs)

    positive_definite, to_mat, eigvalsh = process._positive_definite, process.HSBasis.to_mat, np.linalg.eigvalsh
    monkeypatch.setattr(process, "_positive_definite", recorded_test)
    monkeypatch.setattr(process.HSBasis, "to_mat", recorded_to_mat)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded_eigvalsh)
    inputs = complex_search_inputs()
    # certified on the line through the start, on the line two climbing steps
    # off it (each converts its supergradient), and, with the climbed line's
    # split refused, by the loop's early stop
    cases = (("ordered-mixture-1", 0, 0, 0, ()), ("ordered-mixture-4", 0, 2, 0, ()))
    cases += (("ordered-mixture-4", 7, 2, 1, ("climbed-line",)),)
    for name, iterations, climb, tests_passed, refused in cases:
        w = inputs[name]
        assert validate_process(w).is_valid
        for log in (passed, converted, eigvals):
            log.clear()
        with pytest.MonkeyPatch.context() as patch:
            checked_splits(patch, *refused)
            rep = separability_heuristic(w)
        assert (rep.verdict, rep.iterations, len(passed)) == ("separable", iterations, tests_passed), name
        # the pencil's and one per climbing step, of the stack (A, B) in
        # S's frame, before any split passed
        assert eigvals == [(2, 0)] * (1 + climb), name
        if iterations == 0:
            assert [m.shape for m in converted] == [(3, 16, 16)] + [(16, 16)] * climb, name
        else:
            assert sum(np.array_equal(m, passed[0]) for m in converted) == 1, name


# The clip: one batched eigendecomposition of both halves of a step


def test_dense_ordered_mixture_is_one_sector_clipped_whole():
    # bit for bit against the oracle on dense 16 x 16 matrices, real and complex
    w = undamped_ordered_mixtures(1, 1)[0]
    rng = np.random.default_rng(2)
    for m in (w.matrix - 0.3 * np.eye(16), random_hermitian(rng, 16), random_hermitian(rng, 16).real):
        assert np.array_equal(_psd_clip(m), oracles.psd_clip(m))


def test_sector_clip_matches_the_full_clip_on_the_coherent_search(monkeypatch):
    # the clip of the stacks that the coherent searches at 0.3 (real and
    # phase-rotated) and OCB at 0.2 take, against the oracle's clip of each
    # matrix; these W are block-diagonal over several phase-symmetry sectors
    clips = recorded_clips(monkeypatch)
    pool = (coherent_process(0.3), phase_rotated(coherent_process(0.3), 7), ocb_process(0.2))
    iterations = sum(separability_heuristic(w).iterations for w in pool)
    # one stacked clip of both halves per iteration
    assert len(clips) == iterations
    assert {stack.shape for stack in clips} == {(2, 64, 64), (2, 16, 16)}
    for stack in clips:
        for m, got in zip(stack, _psd_clip(stack)):
            assert frobenius(got - oracles.psd_clip(m)) <= 1e-13 * frobenius(m)


def test_stacked_clip_equals_the_clip_of_each_matrix(monkeypatch):
    # bit for bit, on the stacks the coherent searches clip, real and complex
    clips = recorded_clips(monkeypatch)
    # the rank-2 coherent process still steps (a rank-1 one is decided with no clip)
    for w in (coherent_process(0.3), phase_rotated(coherent_process(0.3), 7)):
        separability_heuristic(w)
    assert {m.dtype for m in clips} == {np.dtype(np.float64), np.dtype(np.complex128)}
    for stack in clips:
        got = _psd_clip(stack)
        assert got.dtype == stack.dtype
        for m, row in zip(stack, got):
            assert np.array_equal(row, _psd_clip(m))


def test_hs_basis_converts_a_stack_item_by_item():
    rng = np.random.default_rng(3)
    for layout in (standard_layout(2), standard_layout(2, 4), SpaceLayout(PARTY_LABELS, (2, 3, 3, 2))):
        basis = hs_basis(layout)
        n = layout.dim
        for dtype in (np.float64, np.complex128):
            stack = np.array([random_hermitian(rng, n) for _ in range(3)])
            stack = stack if dtype == np.complex128 else stack.real.copy()
            coef = basis.to_coef(stack)
            assert coef.shape == (3, 2 if dtype == np.complex128 else 1) + basis.shape
            assert all(np.array_equal(c, basis.to_coef(m)) for c, m in zip(coef, stack))
            back = basis.to_mat(coef)
            assert back.dtype == dtype and back.shape == stack.shape
            assert all(np.array_equal(b, basis.to_mat(c)) for b, c in zip(back, coef))


def test_psd_margin_is_the_least_eigenvalue_of_the_complex_matrix():
    rng = np.random.default_rng(5)
    pool = [coherent_process(1.0), phase_rotated(coherent_process(1.0), 7), ocb_process(0.3)]
    pool += [quantum_switch_process(), *undamped_ordered_mixtures(2, 2)]
    pool += [random_valid_process(rng, 2, 0.5) for _ in range(3)]
    for name in ("classical-order-baseline", "a5-violated-definite-order"):
        pool.append(_scenario_process(ScenarioConfig.from_dict({"scenario": name}).spec)[0])
    for w in pool:
        want = np.linalg.eigvalsh(w.matrix.astype(np.complex128))[0]
        assert abs(validate_process(w).psd_margin - want) <= 1e-13


def test_certify_decomposition_gates():
    w_ab = quantum_switch_process((1.0, 0.0))
    w_ba = quantum_switch_process((0.0, 1.0))
    w = mix(w_ab, w_ba, 0.3)
    rep = certify_decomposition(w, 0.3, w_ab, w_ba)
    assert rep.verdict == "separable" and rep.iterations == 0 and rep.residual <= 1e-15
    assert certify_decomposition(w, 0.35, w_ab, w_ba) is None  # reconstruction
    assert certify_decomposition(w, 0.7, w_ba, w_ab) is None  # parts out of their orders
    assert certify_decomposition(w, 1.3, w_ab, w_ba) is None  # weight out of [0, 1]
    switch = quantum_switch_process()
    assert validate_process(switch).is_valid
    assert certify_decomposition(switch, 0.5, switch, switch) is None


# Gate by gate: each defect once in the AB slot and once in the BA slot, so
# a check that reads the other slot's mask or matrix lets one through

def recon_gate(dim: int) -> float:
    """certify_decomposition's reconstruction gate on ``dim`` dimensions:
    tau(dim, 1), on the error relative to max(1, ||W||)."""
    return float(rounding_bound(dim, 1.0))


DECOMPOSITION_DEFECTS = ("psd", "trace", "invalid", "other-order", "reconstruction", "layout")


def damped_ordered_parts() -> list[ProcessMatrix]:
    """A random A-first and a random B-first process, each mixed with 10% of
    the neutral process, so that its least eigenvalue is at least 0.025."""
    rng = np.random.default_rng(11)
    neutral = neutral_process(standard_layout(2))
    parts = []
    for order in ("AB", "BA"):
        iso = haar_unitary(rng, 4)[:, :2]
        raw = ordered_process(random_density(rng, 2), choi_of_kraus([iso[:2], iso[2:]]), order)
        parts.append(mix(raw, neutral, 0.9))
    return parts


def unit_component(lay: SpaceLayout, keep: np.ndarray, seed: int) -> np.ndarray:
    """A Hermitian matrix of unit norm whose coefficients lie where ``keep``
    is 1: traceless when ``keep`` leaves out the identity."""
    basis = hs_basis(lay)
    h = basis.to_mat(keep * basis.to_coef(random_hermitian(np.random.default_rng(seed), lay.dim)))
    h = 0.5 * (h + h.conj().T)
    return h / frobenius(h)


def decomposition_defect(part: ProcessMatrix, order: str, defect: str) -> ProcessMatrix:
    """The part of the given order with one defect, which the gate of
    certify_decomposition that ``defect`` names catches (the reconstruction
    defect is :func:`off_reconstruction`'s). The other gates pass it,
    except that a part outside the valid span is also outside its order
    subspace, whose gate catches it: the valid span holds both."""
    lay, m, d_o = part.layout, part.matrix, part.expected_trace
    if defect == "psd":
        # least eigenvalue at twice the part's rounding bound below 0
        return with_least_eigenvalue(part, -2.0 * tau_of(m))
    elif defect == "trace":
        m = m * (1.0 + 2.0 * tau_of(m) / d_o)
    elif defect == "invalid":
        m = m + 1e-6 * unit_component(lay, 1.0 - hs_basis(lay).valid, 1)
    elif defect == "other-order":
        own, other = hs_basis(lay).order_mask(order), hs_basis(lay).order_mask("BA" if order == "AB" else "AB")
        m = m + 1e-6 * unit_component(lay, other * (1.0 - own), 2)
    elif defect == "layout":
        # a trivial future: the same basis, masks and trace, another layout
        return ProcessMatrix(m, standard_layout(2, 1))
    return ProcessMatrix(m, lay)


def off_reconstruction(w: ProcessMatrix, q: float, parts: list, slot: int, factor: float) -> ProcessMatrix:
    """parts[slot] plus a traceless term inside its order subspace, so that
    the mixture misses W by ``factor`` times the reconstruction gate; every
    other gate passes it."""
    part, lay = parts[slot], w.layout
    h = unit_component(lay, hs_basis(lay).order_mask(("AB", "BA")[slot]), 3)
    # the identity lies in every order subspace: removing the trace keeps h inside
    h = h - np.trace(h) / lay.dim * np.eye(lay.dim)
    size = factor * recon_gate(lay.dim) * max(1.0, frobenius(w.matrix)) / (q, 1.0 - q)[slot]
    return ProcessMatrix(part.matrix + size * h / frobenius(h), lay)


def decomposition_fails_the_oracle(w: ProcessMatrix, q: float, *parts: ProcessMatrix) -> bool:
    """Whether the mask-free oracle finds a defect in a part above the
    parts' rounding bound or a reconstruction error above
    certify_decomposition's gate."""
    w_ab, w_ba = parts
    worst, recon = oracles.decomposition_defects(w.matrix, w.layout, q, w_ab.matrix, w_ba.matrix)
    return worst > max(tau_of(p.matrix) for p in parts) or recon > recon_gate(w.layout.dim)


def test_unmutated_decomposition_passes_checker_and_oracle():
    q, (w_ab, w_ba) = 0.3, damped_ordered_parts()
    assert min(np.linalg.eigvalsh(p.matrix)[0] for p in (w_ab, w_ba)) >= 0.02
    w = mix(w_ab, w_ba, q)
    assert not decomposition_fails_the_oracle(w, q, w_ab, w_ba)
    rep = certify_decomposition(w, q, w_ab, w_ba)
    assert rep is not None and rep.residual <= 1e-15


@pytest.mark.parametrize("slot", [0, 1], ids=["AB-slot", "BA-slot"])
@pytest.mark.parametrize("defect", DECOMPOSITION_DEFECTS)
def test_each_decomposition_gate_rejects_its_defect_in_either_slot(defect, slot):
    q = 0.3
    for warm in (False, True):
        parts = damped_ordered_parts()
        w = mix(*parts, q)
        if defect == "reconstruction":
            # W is kept: the mixture misses it by half the gate, which
            # certifies, or by twice it
            near = parts.copy()
            near[slot] = off_reconstruction(w, q, parts, slot, 0.5)
            assert certify_decomposition(w, q, *near) is not None, (slot, warm)
            assert not decomposition_fails_the_oracle(w, q, *near), slot
            parts[slot] = off_reconstruction(w, q, parts, slot, 2.0)
        else:
            parts[slot] = decomposition_defect(parts[slot], ("AB", "BA")[slot], defect)
            # W is rebuilt from the parts, so only the part's own gate can fail
            w = ProcessMatrix(q * parts[0].matrix + (1.0 - q) * parts[1].matrix, w.layout)
        if warm:
            # the other part's coefficients come from its cache; its
            # eigenvalues are filled too, and never read
            validate_process(parts[1 - slot])
        assert certify_decomposition(w, q, *parts) is None, (defect, slot, warm)
        if defect != "layout":
            assert decomposition_fails_the_oracle(w, q, *parts), (defect, slot)


@pytest.mark.parametrize("slot", [0, 1], ids=["AB-slot", "BA-slot"])
@pytest.mark.parametrize("defect", ["none", "psd", "trace", "invalid", "other-order"])
def test_a_complex_part_next_to_the_neutral_padding_is_gated_as_it_stands(defect, slot):
    # the neutral padding is real, one coefficient part, and a complex part
    # has two: the stacked gates read both and give the verdict the same
    # part gets next to a complex partner, which the oracle gives too
    q = 0.3
    parts = damped_ordered_parts()
    part = parts[slot]
    if defect != "none":
        part = decomposition_defect(part, ("AB", "BA")[slot], defect)
    neutral, verdicts = neutral_process(part.layout), []
    for partner in (neutral, parts[1 - slot]):
        pair = [partner, partner]
        pair[slot] = part
        arity = [len(p._coef) for p in pair]
        assert arity[slot] == 2 and arity[1 - slot] == (1 if partner is neutral else 2)
        w = ProcessMatrix(q * pair[0].matrix + (1.0 - q) * pair[1].matrix, part.layout)
        verdicts.append(certify_decomposition(w, q, *pair) is not None)
        assert verdicts[-1] != decomposition_fails_the_oracle(w, q, *pair), (defect, slot)
    assert verdicts == [defect == "none"] * 2


def psd_boundary_parts(dim: int, kind: str) -> list[ProcessMatrix]:
    """An A-first and a B-first part of least eigenvalue well above 0: on 16
    dimensions :func:`damped_ordered_parts` (complex) or their real parts,
    on 64 the switch process of one order mixed with 10% of the neutral
    process (real) or its phase-rotated copy. Conjugation and local
    unitaries keep a part PSD, of trace d_O and in its order subspace."""
    if dim == 16:
        parts = damped_ordered_parts()
        if kind == "real":
            parts = [ProcessMatrix(p.matrix.real, p.layout) for p in parts]
    else:
        lay = standard_layout(2, 4)
        parts = [mix(quantum_switch_process(amps), neutral_process(lay), 0.9) for amps in ((1, 0), (0, 1))]
        if kind == "complex":
            parts = [phase_rotated(p, 13) for p in parts]
    assert all(p.layout.dim == dim and p.matrix.imag.any() == (kind == "complex") for p in parts)
    return parts


def with_least_eigenvalue(part: ProcessMatrix, low: float) -> ProcessMatrix:
    """The part shifted by a multiple of the identity and rescaled to trace
    d_O so that its least eigenvalue is ``low``, up to eigvalsh's rounding
    dim eps_mach ||part||, a dim-th of the part's rounding bound; both keep
    it in every order subspace."""
    m, n, d_o = part.matrix, part.layout.dim, part.expected_trace
    m = m - d_o * (np.linalg.eigvalsh(m)[0] - low) / (d_o - low * n) * np.eye(n)
    m = m * (d_o / np.real(np.trace(m)))
    assert abs(np.linalg.eigvalsh(m)[0] - low) <= 1e-3 * abs(low) + n * EPS_MACH * frobenius(m)
    return ProcessMatrix(m, part.layout)


@pytest.mark.parametrize("slot", [0, 1], ids=["AB-slot", "BA-slot"])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("dim", [16, 64])
def test_psd_gate_decides_on_either_side_of_psd_atol(dim, kind, slot):
    # the allowance is the part's rounding bound tau: both parts are gated
    # by one Cholesky factorization of part + tau I, and a part's cached
    # eigenvalues are never read
    q = 0.3
    for factor, certifies in ((0.5, True), (2.0, False)):
        for warm in (False, True):
            parts = psd_boundary_parts(dim, kind)
            parts[slot] = with_least_eigenvalue(parts[slot], -factor * tau_of(parts[slot].matrix))
            w = ProcessMatrix(q * parts[0].matrix + (1.0 - q) * parts[1].matrix, parts[0].layout)
            if warm:
                for part in parts:
                    part._eigenvalues
            rep = certify_decomposition(w, q, *parts)
            assert (rep is not None) is certifies, (factor, warm)
            worst, recon = oracles.decomposition_defects(w.matrix, w.layout, q, parts[0].matrix, parts[1].matrix)
            assert bool(worst <= tau_of(parts[slot].matrix) and recon <= recon_gate(dim)) is certifies, (factor, warm)


@pytest.mark.parametrize("q", [-0.1, 1.1])
def test_decomposition_weight_outside_the_unit_interval_fails(q):
    parts = damped_ordered_parts()
    w = ProcessMatrix(q * parts[0].matrix + (1.0 - q) * parts[1].matrix, parts[0].layout)
    assert certify_decomposition(w, q, *parts) is None
    assert decomposition_fails_the_oracle(w, q, *parts)


@pytest.mark.parametrize("slot", [0, 1], ids=["AB-slot", "BA-slot"])
@pytest.mark.parametrize("gate", ["trace", "order"])
def test_decomposition_gates_decide_on_either_side_of_the_rounding_bound(gate, slot):
    # one part's trace off by, or a traceless term outside its order
    # subspace of norm, half or twice the part's rounding bound tau: the
    # first certifies and the second does not, as the oracle's defect says
    q = 0.3
    for factor, certifies in ((0.5, True), (2.0, False)):
        parts = damped_ordered_parts()
        part, order = parts[slot], ("AB", "BA")[slot]
        lay, m, d_o = part.layout, part.matrix, part.expected_trace
        if gate == "trace":
            m = m * (1.0 + factor * tau_of(m) / d_o)
            defect = abs(float(np.real(np.trace(m))) - d_o)
        else:
            m = m + factor * tau_of(m) * unit_component(lay, 1.0 - hs_basis(lay).order_mask(order), 2)
            defect = frobenius(oracles.order_projection(m, lay, order) - m)
        parts[slot] = ProcessMatrix(m, lay)
        w = ProcessMatrix(q * parts[0].matrix + (1.0 - q) * parts[1].matrix, lay)
        assert (certify_decomposition(w, q, *parts) is not None) is certifies, factor
        assert bool(defect <= tau_of(m)) is certifies, factor


# certify_decomposition tests a part against its order subspace alone, at
# the part's rounding bound tau: that implies the valid span at the same
# tau, since the masks nest, (1 - a)(1 - b) <= 1 - a, so a part's distance
# to the valid span is at most its distance to its order subspace.


def test_order_gate_at_the_largest_norm_implies_the_valid_span():
    widest = identity_channel_on_the_widest_first_output()
    lay = widest.layout
    for layout in (standard_layout(2), standard_layout(2, 4), lay):
        outside = 1.0 - hs_basis(layout).valid
        for order in ("AB", "BA"):
            assert (outside <= 1.0 - hs_basis(layout).order_mask(order)).all()
    # the ordered process of largest norm, damped so that only the subspace
    # gates can refuse it, with a term outside the valid span of half or
    # twice its tau: both gates pass the first and refuse the second
    part = mix(widest, neutral_process(lay), 0.9)
    for factor, passes in ((0.5, True), (2.0, False)):
        m = part.matrix + factor * tau_of(part.matrix) * unit_component(lay, 1.0 - hs_basis(lay).valid, 1)
        probe = ProcessMatrix(m, lay)
        assert (certify_decomposition(probe, 1.0, probe, neutral_process(lay)) is not None) is passes, factor
        assert validate_process(probe).is_valid is passes, factor


def identity_channel_on_the_widest_first_output() -> ProcessMatrix:
    """A_O sent unchanged to B_I on the layout (1, 8, 8, 1): the ordered
    process of largest norm, ||W|| = sqrt(dim / d(first input)) = 8."""
    return ProcessMatrix(identity_choi(8), SpaceLayout(PARTY_LABELS, (1, 8, 8, 1)))


def test_ordered_process_norm_is_at_most_the_comb_bound():
    rng = np.random.default_rng(17)
    pool = [(identity_channel_on_the_widest_first_output(), "AB")]
    for order in ("AB", "BA"):
        for post in ("discard", "future"):
            for _ in range(4):
                iso = haar_unitary(rng, 4)[:, :2]
                pre = random_density(rng, 2)
                pool.append((ordered_process(pre, choi_of_kraus([iso[:2], iso[2:]]), order, post), order))
            # a pure state through a unitary channel reaches the bound
            psi = haar_unitary(rng, 2)[:, 0]
            pure = ordered_process(np.outer(psi, psi.conj()), choi_of_unitary(haar_unitary(rng, 2)), order, post)
            pool.append((pure, order))
    for w, order in pool:
        bound = np.sqrt(w.layout.dim / w.layout.dim_of("A_I" if order == "AB" else "B_I"))
        assert frobenius(w.matrix) <= bound * (1.0 + 1e-12), (w.layout.dims, order)
    assert frobenius(pool[0][0].matrix) == pytest.approx(8.0, rel=1e-12)
    assert frobenius(pool[-1][0].matrix) == pytest.approx(4.0, rel=1e-12)


def test_identity_channel_on_the_widest_first_output_certifies():
    w = identity_channel_on_the_widest_first_output()
    assert validate_process(w).is_valid
    rep = certify_decomposition(w, 1.0, w, neutral_process(w.layout))
    assert rep is not None and rep.verdict == "separable" and rep.residual == 0.0


@pytest.mark.parametrize("name", list(NONSEPARABLE))
def test_witness_with_a_bad_ba_half_fails_verification(name):
    w = NONSEPARABLE[name]()
    lay, d_o = w.layout, w.expected_trace
    s, p_ab, p_ba = separability_heuristic(w).witness
    assert _certify_witness(w, s, p_ab, p_ba) is not None
    value = float(np.real(np.trace(s @ w.matrix)))
    assert value < 0.0
    basis = hs_basis(lay)
    ab, ba = basis.ab, basis.ba
    mutants = {}
    # P_BA lowered along a direction outside the BA subspace (so S - P_BA
    # stays outside it) until lambda_min(P_BA) is below -2 |tr(S W)| / d_O
    vals, vecs = np.linalg.eigh(p_ba)
    v = vecs[:, :1]
    y = basis.to_mat((1.0 - ba) * basis.to_coef(v @ v.conj().T))
    y = 0.5 * (y + y.conj().T)
    dip = float(np.real(v.conj().T @ y @ v)[0, 0])
    assert dip > 0.0
    p_low = p_ba - (vals[0] + 2.0 * abs(value) / d_o) / dip * y
    assert np.linalg.eigvalsh(p_low)[0] < -abs(value) / d_o
    mutants["P_BA below the bound"] = (s, p_ab, p_low)
    # S given a component inside BA but outside AB that leaves tr(S W) as it is
    z1, z2 = (unit_component(lay, ba * (1.0 - ab), seed) for seed in (3, 4))
    z = np.real(np.trace(z2 @ w.matrix)) * z1 - np.real(np.trace(z1 @ w.matrix)) * z2
    s_in = s + 2.0 * abs(value) / d_o * z / frobenius(z)
    assert np.real(np.trace(s_in @ w.matrix)) == pytest.approx(value, abs=1e-12)
    mutants["S - P_BA inside BA"] = (s_in, p_ab, p_ba)
    # S, P_AB and P_BA shifted by c I: S - P_X stays, tr(S W) rises by c d_O
    for c, certifies in ((1.0 - 1e-8, True), (1.0 + 1e-8, False)):
        shift = c * abs(value) / d_o * np.eye(lay.dim)
        raised = (s + shift, p_ab + shift, p_ba + shift)
        assert (_certify_witness(w, *raised) is not None) is certifies, c
        if not certifies:
            mutants["tr(S W) above the bound"] = raised
    for label, (s_m, p_ab_m, p_ba_m) in mutants.items():
        assert _certify_witness(w, s_m, p_ab_m, p_ba_m) is None, label
        assert oracles.witness_margin(w.matrix, lay, s_m, p_ab_m, p_ba_m) >= 0.0, label


@pytest.mark.parametrize("name, singular", [("switch", False), ("switch-eta-0.5", True)])
def test_witness_halves_are_decomposed_only_when_they_have_no_cholesky_factor(monkeypatch, name, singular):
    # the switch's face witness has positive definite halves; the loop's
    # witness of the dephased switch has P_AB = gx, the PSD part clipped off
    # a step, which is singular. Either way the check factors both halves,
    # each shifted by its allowance, once, and decomposes neither
    w = NONSEPARABLE[name]()
    rep = separability_heuristic(w)
    s, p_ab, p_ba = rep.witness
    calls = []

    def recorded(fn, original):
        def call(a, *args, **kwargs):
            calls.append((fn, a.shape))
            return original(a, *args, **kwargs)

        return call

    for fn in ("eigvalsh", "eigh", "cholesky"):
        monkeypatch.setattr(np.linalg, fn, recorded(fn, getattr(np.linalg, fn)))
    value = _certify_witness(w, s, p_ab, p_ba)
    assert calls == [("cholesky", (2, 64, 64))]
    monkeypatch.undo()
    assert value == rep.witness_value == witness_value(w, s) / frobenius(s)
    assert bool(np.linalg.eigvalsh(p_ab)[0] <= 0.0) is singular
    assert oracles.witness_margin(w.matrix, w.layout, s, p_ab, p_ba) < 0.0


def witness_allowances(w: ProcessMatrix, s: np.ndarray, p_ab: np.ndarray, p_ba: np.ndarray) -> np.ndarray:
    """delta_X = -tr(S W)/d_O - allowance - ||R_X|| of each order X, with
    R_X the part of S - P_X in order X's subspace by the reset oracle: the
    witness certifies when both are positive and lambda_min(P_X) > -delta_X."""
    slack = rounding_bound(w.layout.dim, frobenius(p_ab) + frobenius(p_ba))
    inside = [frobenius(oracles.order_projection(s - p, w.layout, x)) for p, x in ((p_ab, "AB"), (p_ba, "BA"))]
    return -np.real(np.trace(s @ w.matrix)) / w.expected_trace - slack - np.array(inside)


def lowered_half(p: np.ndarray, lay: SpaceLayout, order: str, low: float) -> np.ndarray:
    """P_X lowered along a direction y outside order X's subspace, so that
    S - P_X keeps its part inside it, until its least eigenvalue is
    ``low``. lambda_min(P_X - c y) is concave in c and falls at c = 0, so
    bisection finds c."""
    basis = hs_basis(lay)
    v = np.linalg.eigh(p)[1][:, :1]
    y = basis.to_mat((1.0 - hs_basis(lay).order_mask(order)) * basis.to_coef(v @ v.conj().T))
    y = 0.5 * (y + y.conj().T)
    assert np.real(v.conj().T @ y @ v)[0, 0] > 0.0

    def least(c: float) -> float:
        return float(np.linalg.eigvalsh(p - c * y)[0])

    assert least(0.0) > low
    lo, hi = 0.0, 1.0
    while least(hi) > low:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if least(mid) > low else (lo, mid)
    assert least(hi) == pytest.approx(low, rel=1e-9)
    return p - hi * y


@pytest.mark.parametrize("slot", [0, 1], ids=["AB-half", "BA-half"])
@pytest.mark.parametrize("name", list(NONSEPARABLE))
def test_witness_gate_decides_on_either_side_of_each_halfs_allowance(name, slot):
    # with lambda_min(P_X) at -delta_X / 2 the witness certifies, at
    # -2 delta_X it does not, as the oracle's margin says either way
    w = NONSEPARABLE[name]()
    s, *halves = separability_heuristic(w).witness
    delta = witness_allowances(w, s, *halves)[slot]
    assert delta > 0.0
    for factor, certifies in ((0.5, True), (2.0, False)):
        probe = list(halves)
        probe[slot] = lowered_half(halves[slot], w.layout, ("AB", "BA")[slot], -factor * delta)
        assert (_certify_witness(w, s, *probe) is not None) is certifies, factor
        assert bool(oracles.witness_margin(w.matrix, w.layout, s, *probe) < 0.0) is certifies, factor


@pytest.mark.parametrize("name", list(NONSEPARABLE))
def test_witness_gate_keeps_its_rounding_allowance(name):
    # S, P_AB and P_BA raised by c I keep S - P_X and raise tr(S W) by
    # c tr W: c puts the gap -tr(S W)/d_O - max ||R_X||, which the oracle
    # needs positive, at half and at twice the allowance. The gate needs it
    # above the allowance, so it refuses the first and takes the second
    w = NONSEPARABLE[name]()
    s, p_ab, p_ba = separability_heuristic(w).witness
    eye, scale = np.eye(w.layout.dim), w.expected_trace / np.real(np.trace(w.matrix))

    def slack(c: float) -> float:
        return rounding_bound(w.layout.dim, frobenius(p_ab + c * eye) + frobenius(p_ba + c * eye))

    gap = witness_allowances(w, s, p_ab, p_ba).min() + slack(0.0)
    for factor, certifies in ((0.5, False), (2.0, True)):
        c = 0.0
        for _ in range(3):
            c = (gap - factor * slack(c)) * scale
        raised = (s + c * eye, p_ab + c * eye, p_ba + c * eye)
        assert witness_allowances(w, *raised).min() + slack(c) == pytest.approx(factor * slack(c), rel=1e-3)
        assert (_certify_witness(w, *raised) is not None) is certifies, factor
        assert oracles.witness_margin(w.matrix, w.layout, *raised) < 0.0, factor


EIGENDECOMPOSITIONS = {"eig", "eigh", "eigvals", "eigvalsh"}


def test_eigendecompositions_run_only_where_their_values_are_used():
    # W's eigenvalues (validity margin, rank cut), the line's pencil and the
    # climb off it, the range basis of a face of rank 2 or more (a pure W's
    # face reads its range vector off W) and the clip; every yes/no positivity
    # gate is a shifted Cholesky factorization instead, in the decomposition
    # checker _certified_stack that the search calls, in its wrapper
    # certify_decomposition and in the witness check
    tree = ast.parse(Path(process.__file__).read_text())
    users = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)) in EIGENDECOMPOSITIONS
    }
    assert users == {"_eigenvalues", "_line_split", "_range_basis", "_psd_clip"}
    assert not users & {"certify_decomposition", "_certified_stack", "_structure_checked", "_certify_witness"}


def test_traced_future_switch_is_separable():
    # the F-traced switch process is an even mixture of the two orders; the
    # indefiniteness lives in the correlations with the control, so tracing
    # the future must restore separability
    w = quantum_switch_process()
    lay4 = standard_layout(2)
    reduced = partial_trace(w.matrix, w.layout, lay4.labels)
    rep = separability_heuristic(ProcessMatrix(reduced, lay4))
    assert rep.separable
    assert rep.certificate[0] == pytest.approx(0.5, abs=1e-4)


def test_separability_rejects_invalid_input():
    lay = standard_layout(2)
    bad = np.eye(lay.dim)  # wrong trace
    with pytest.raises(ValueError):
        separability_heuristic(ProcessMatrix(bad, lay))


# ---------------------------------------------------------------------------
# structure


def test_process_matrix_rejects_bad_layout():
    with pytest.raises(ValueError):
        ProcessMatrix(np.eye(8), SpaceLayout(("A_I", "A_O", "B_I"), (2, 2, 2)))


def test_process_matrix_rejects_non_hermitian():
    lay = standard_layout(2)
    m = np.eye(lay.dim, dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        ProcessMatrix(m, lay)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_process_matrix_rejects_non_finite_entries(bad):
    lay = standard_layout(2)
    for entry in ((3, 3), (0, 5)):
        m = np.eye(lay.dim, dtype=complex) / 4.0
        m[entry] = m[entry[::-1]] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ProcessMatrix(m, lay)


def test_process_matrix_hermiticity_gate():
    lay = standard_layout(2)
    for gap, ok in ((0.5 * HERMITICITY_ATOL, True), (2.0 * HERMITICITY_ATOL, False)):
        m = np.eye(lay.dim, dtype=complex) / 4.0
        m[0, 1] = 0.1 + gap
        m[1, 0] = 0.1
        if ok:
            assert ProcessMatrix(m, lay).matrix[0, 1] == m[0, 1]
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                ProcessMatrix(m, lay)


def stack_pair(name: str) -> tuple[ProcessMatrix, np.ndarray]:
    """A valid W and the (2, 16, 16) stack of two Hermitian matrices, float64
    (``real``) or complex128, that the structure tests below spoil."""
    w = mix(ocb_process(0.3), neutral_process(standard_layout(2)), 0.5)
    if name == "complex":
        w = phase_rotated(w, 5)
    mats = np.stack((w.matrix, ocb_process(0.6).matrix))
    return w, mats.real.copy() if name == "real" else mats


def stack_defects() -> dict[str, tuple[tuple[int, int], complex]]:
    """Defects of one matrix, as (entry, new value) with the mirrored entry
    set alike: a non-finite value on or off the diagonal, and an asymmetry
    of 0.5 or 2 times HERMITICITY_ATOL (on the upper entry only)."""
    out = {f"{bad}-at-{entry}": (entry, bad) for bad in (np.nan, np.inf, -np.inf) for entry in ((3, 3), (0, 5))}
    out.update({f"asymmetry-{factor}": ((0, 1), factor) for factor in (0.5, 2.0)})
    return out


def spoiled(m: np.ndarray, defect: str, entry: tuple[int, int], value: float) -> None:
    """Apply one of :func:`stack_defects` to ``m`` in place."""
    if defect.startswith("asymmetry"):
        m[entry] += value * HERMITICITY_ATOL
    else:
        m[entry] = m[entry[::-1]] = value


def raised(fn, *args) -> str | None:
    """The message of the ValueError ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", ["real", "complex"])
@pytest.mark.parametrize("slot", [0, 1], ids=["AB-slot", "BA-slot"])
def test_the_stack_path_rejects_exactly_what_the_constructor_rejects(name, slot):
    # process_stack and the decomposition checker run the constructor's
    # structural checks once on the whole stack: the same rejections, with
    # the same messages, whichever matrix of the stack carries the defect
    w, clean = stack_pair(name)
    lay = w.layout
    for defect, (entry, value) in stack_defects().items():
        mats = clean.copy()
        spoiled(mats[slot], defect, entry, value)
        want = raised(ProcessMatrix, mats[slot], lay)
        assert (want is None) is (defect == "asymmetry-0.5"), defect
        assert raised(process_stack, mats, lay) == want, defect
        assert raised(_certified_stack, w, 0.5, mats.copy(), "decomposition") == want, defect
        # as an order split, made Hermitian and weighed by its trace before
        # the checks: the search's route raises where, and as, building its
        # parts one at a time does (a non-finite trace of X can leave no part)
        with np.errstate(invalid="ignore", over="ignore"):
            split = raised(parts_built_one_at_a_time, w, mats / 2.0)
            assert raised(process._certified_split, w, mats / 2.0, "start-split") == split, defect
    # a wrong shape, as a stack of wrong matrices or with a matrix of the wrong shape
    small = np.eye(8) / 2.0
    assert "does not match" in raised(ProcessMatrix, small, lay)
    for mats in (np.stack((small, small)), clean[slot]):
        assert "does not match" in raised(process_stack, mats, lay)
        assert "does not match" in raised(_certified_stack, w, 0.5, mats.copy(), "decomposition")
    assert raised(process_stack, [clean[0], small][:: 1 - 2 * slot], lay) is not None


@pytest.mark.parametrize("name", ["real", "complex"])
def test_stacked_parts_are_read_only_views_equal_to_parts_built_alone(name):
    w, mats = stack_pair(name)
    mats[0, 0, 1] += 0.5 * HERMITICITY_ATOL
    parts = process_stack(mats, w.layout)
    assert len(parts) == 2 and parts[0].matrix.base is parts[1].matrix.base
    for part, m in zip(parts, mats):
        alone = ProcessMatrix(m, w.layout)
        assert part.layout == alone.layout and part.matrix.dtype == np.complex128
        assert part.matrix.tobytes() == alone.matrix.tobytes()
        assert not part.matrix.flags.writeable
        with pytest.raises(ValueError):
            part.matrix[0, 0] = 1.0
        # the caches are computed from the view as from the copy
        assert part._own.dtype == alone._own.dtype and np.array_equal(part._coef, alone._coef)
    # the input is copied, not frozen
    assert mats.flags.writeable


COEFFICIENT_POOL = [
    pytest.param(lambda: ocb_process(0.3).matrix.real.copy(), standard_layout(2), 1, id="real-float64"),
    pytest.param(lambda: ocb_process(0.3).matrix, standard_layout(2), 1, id="real-complex128"),
    pytest.param(lambda: phase_rotated(ocb_process(0.3), 5).matrix, standard_layout(2), 2, id="complex"),
    pytest.param(lambda: coherent_process(0.3).matrix.real.copy(), standard_layout(2, 4), 1, id="coherent"),
    pytest.param(lambda: quantum_switch_process((0.6, 0.8j)).matrix, standard_layout(2, 4), 2, id="switch"),
]


@pytest.mark.parametrize("make, lay, parts", COEFFICIENT_POOL)
def test_cached_coefficients_are_read_only_and_exact(make, lay, parts):
    m = make()
    w = ProcessMatrix(m, lay)
    coef = w._coef
    assert w._coef is coef
    assert not coef.flags.writeable
    with pytest.raises(ValueError):
        coef[0, 0, 0] = 1.0
    # bit for bit the coefficients of the matrix in its own arithmetic:
    # float64 for a matrix with no imaginary part, complex128 otherwise
    own = m.real if not np.iscomplexobj(m) or not m.imag.any() else m
    assert coef.shape == (parts,) + hs_basis(lay).shape
    assert np.array_equal(coef, hs_basis(lay).to_coef(np.ascontiguousarray(own)))


def test_mix_validates_inputs():
    w = quantum_switch_process()
    with pytest.raises(ValueError):
        mix(w, w, 1.5)
    other = neutral_process(standard_layout(2))
    with pytest.raises(ValueError):
        mix(w, other, 0.5)


# The checkers against the retired ones kept in tests/oracles.py: the same
# inputs give the same outcome, bit for bit


def checker_outcome(fn, *args):
    """``fn`` on fresh copies of its array arguments: its result, or the
    type and message of the exception it raises."""
    args = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            return fn(*args)
    except Exception as exc:  # any exception: its type and message are compared
        return type(exc), str(exc)


def same_float(a: float | None, b: float | None) -> bool:
    return a is b if a is None or b is None else a == b and np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_same_outcome(label: str, got, want) -> None:
    """The same exception type and message, None, witness value or report:
    equal q, ``residual`` and ``witness_value`` floats, equal part bytes and
    the same cached state in each part."""
    if want is None or isinstance(want, tuple):
        assert got is None if want is None else got == want, label
    elif not isinstance(want, process.SeparabilityReport):
        assert isinstance(got, float) and same_float(got, want), label
    else:
        assert isinstance(got, process.SeparabilityReport), label
        assert (got.exit, got.iterations, got.verdict) == (want.exit, want.iterations, want.verdict), label
        assert same_float(got.residual, want.residual) and same_float(got.witness_value, want.witness_value), label
        assert same_float(got.certificate[0], want.certificate[0]), label
        for part, ref in zip(got.certificate[1:], want.certificate[1:]):
            assert part.layout == ref.layout and sorted(vars(part)) == sorted(vars(ref)), label
            for key in ("matrix", "_own", "_coef"):
                if key in vars(ref):
                    a, b = vars(part)[key], vars(ref)[key]
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (label, key)
                    assert not a.flags.writeable and not b.flags.writeable, (label, key)


def retired_checker_cases() -> list[tuple[str, object, object, tuple]]:
    """(label, checker, its retired copy, arguments): every split and
    witness that the searches of :func:`builder_exit_pool` check, each gate
    probe at 0.5 and 2 times its allowance, a NaN entry and a skew of 0.5
    and 2 times HERMITICITY_ATOL."""
    split, wit = process._certified_split, process._certify_witness
    pairs = {
        "split": (split, oracles.certified_split),
        "stack": (process._certified_stack, oracles.certified_stack),
        "witness": (wit, oracles.certify_witness),
    }
    cases = []

    def add(label, kind, *args):
        cases.append((label, *pairs[kind], args))

    def recorded_split(w, mats, exit):
        add(f"search {exit}", "split", w, mats.copy(), exit)
        return split(w, mats, exit)

    def recorded_witness(w, *witness):
        add("search witness", "witness", w, *(x.copy() for x in witness))
        return wit(w, *witness)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(process, "_certified_split", recorded_split)
        patch.setattr(process, "_certify_witness", recorded_witness)
        for w in builder_exit_pool():
            separability_heuristic(w)

    def add_decomposition(label, w, q, parts):
        add(label, "stack", w, q, np.array([p._own for p in parts]), "decomposition", tuple(parts))

    q = 0.3
    for slot in (0, 1):
        order = ("AB", "BA")[slot]
        for factor in (0.5, 2.0):
            for gate in ("trace", "order", "reconstruction"):
                parts = damped_ordered_parts()
                part, lay = parts[slot], parts[slot].layout
                w = mix(*parts, q)
                if gate == "reconstruction":
                    parts[slot] = off_reconstruction(w, q, parts, slot, factor)
                else:
                    m = part.matrix
                    m = m * (1.0 + factor * tau_of(m) / part.expected_trace) if gate == "trace" else (
                        m + factor * tau_of(m) * unit_component(lay, 1.0 - hs_basis(lay).order_mask(order), 2))
                    parts[slot] = ProcessMatrix(m, lay)
                    w = ProcessMatrix(q * parts[0].matrix + (1.0 - q) * parts[1].matrix, lay)
                add_decomposition(f"{gate} {factor} {order}", w, q, parts)
            for dim, kind in ((16, "real"), (16, "complex"), (64, "real"), (64, "complex")):
                parts = psd_boundary_parts(dim, kind)
                parts[slot] = with_least_eigenvalue(parts[slot], -factor * tau_of(parts[slot].matrix))
                w = ProcessMatrix(q * parts[0].matrix + (1.0 - q) * parts[1].matrix, parts[0].layout)
                add_decomposition(f"psd {factor} {order} {dim} {kind}", w, q, parts)
    widest = identity_channel_on_the_widest_first_output()
    lay = widest.layout
    widest = mix(widest, neutral_process(lay), 0.9)
    for factor in (0.5, 2.0):
        outside = factor * tau_of(widest.matrix) * unit_component(lay, 1.0 - hs_basis(lay).valid, 1)
        probe = ProcessMatrix(widest.matrix + outside, lay)
        add_decomposition(f"valid span {factor}", probe, 1.0, [probe, neutral_process(lay)])
    parts = damped_ordered_parts()
    for weight in (-0.1, 1.1):
        w = ProcessMatrix(weight * parts[0].matrix + (1.0 - weight) * parts[1].matrix, parts[0].layout)
        add_decomposition(f"weight {weight}", w, weight, parts)
    # a part that the split drops or keeps, least eigenvalue at 0.5 and 2
    # times its allowance below 0, as the face tests above move them
    w = mix(pure_ordered_process("AB", 3), pure_ordered_process("AB", 4), 0.4)
    step = pure_ordered_process("AB", 3).matrix - pure_ordered_process("AB", 4).matrix
    undamped = undamped_ordered_mixtures(1, 1)[0]
    face = process._face_solve(undamped)[2]
    v, d_o = process._range_basis(undamped), undamped.expected_trace
    k = v @ np.linalg.eigh(v.conj().T @ face[1] @ v)[1][:, 0]
    kk, weight = np.outer(k, k.conj()), np.real(np.trace(face[1])) / d_o
    for factor in (0.5, 2.0):
        y = factor * w._rounding / -float(np.linalg.eigvalsh(step)[0]) * step
        add(f"dropped part {factor}", "split", w, np.stack((w.matrix - y, y)), "face-split")
        t = factor * tau_of(face[1] / weight) * weight
        add(f"kept part {factor}", "split", undamped, face + t * np.stack((kk, -kk)), "face-split")
    for name in ("real", "complex"):
        w, clean = stack_pair(name)
        for defect in ("nan-at-(3, 3)", "nan-at-(0, 5)", "asymmetry-0.5", "asymmetry-2.0"):
            entry, value = stack_defects()[defect]
            for slot in (0, 1):
                mats = clean.copy()
                spoiled(mats[slot], defect, entry, value)
                add(f"{defect} {name} {slot}", "stack", w, 0.5, mats, "decomposition")
                add(f"{defect} {name} {slot} as a split", "split", w, mats / 2.0, "start-split")
    for name, make in NONSEPARABLE.items():
        w = make()
        s, *halves = separability_heuristic(w).witness
        deltas = witness_allowances(w, s, *halves)
        eye = np.eye(w.layout.dim)
        for factor in (0.5, 2.0):
            for slot in (0, 1):
                probe = list(halves)
                probe[slot] = lowered_half(halves[slot], w.layout, ("AB", "BA")[slot], -factor * deltas[slot])
                add(f"{name} half {slot} {factor}", "witness", w, s, *probe)
            # the gap -tr(S W)/d_O - max ||R_X|| at about factor times the allowance
            slack = rounding_bound(w.layout.dim, frobenius(halves[0]) + frobenius(halves[1]))
            c = (deltas.min() + slack - factor * slack) * w.expected_trace / np.real(np.trace(w.matrix))
            add(f"{name} allowance {factor}", "witness", w, s + c * eye, *(h + c * eye for h in halves))
            skewed = np.array(s, dtype=np.complex128)
            skewed[0, 1] += factor * HERMITICITY_ATOL
            add(f"{name} skew {factor}", "witness", w, skewed, *halves)
        for spoilt in (0, 1, 2):
            args = [np.array(x, dtype=np.complex128) for x in (s, *halves)]
            args[spoilt][3, 3] = np.nan
            add(f"{name} nan in argument {spoilt}", "witness", w, *args)
    return cases


def test_the_checkers_agree_bit_for_bit_with_the_retired_ones():
    # the rewritten decomposition and witness checkers reach the same gates
    # in fewer numpy calls: on every input, the same exception and message,
    # None, or the same floats and part bytes as the retired code
    cases = retired_checker_cases()
    kinds = {label.split()[0] for label, *_ in cases}
    searched = {" ".join(label.split()[:2]) for label, *_ in cases}
    exits = (*LINE_EXITS, "early-stop", "face-split", "converged", "witness")
    assert {f"search {exit}" for exit in exits} <= searched
    probes = {"trace", "order", "reconstruction", "psd", "valid", "weight", "dropped", "kept", "switch"}
    assert {"search", *probes} <= kinds
    outcomes = []
    for label, new, old, args in cases:
        want = checker_outcome(old, *args)
        assert_same_outcome(label, checker_outcome(new, *args), want)
        outcomes.append(want)
    # every kind of outcome is reached: certificates, refusals, witness values and ValueError
    assert any(isinstance(x, process.SeparabilityReport) for x in outcomes) and None in outcomes
    assert any(isinstance(x, float) for x in outcomes)
    assert {x[0] for x in outcomes if isinstance(x, tuple)} == {ValueError}
