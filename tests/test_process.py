import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from icolab import process
from icolab.linalg import HERMITICITY_ATOL, SpaceLayout, frobenius, ket, partial_trace, projector, tensor
from icolab.process import (
    PARTY_LABELS,
    Instrument,
    ProcessMatrix,
    apply_choi,
    born_probabilities,
    born_probabilities_with_future,
    choi_of_kraus,
    choi_of_unitary,
    _certify_witness,
    _order_mask,
    _order_split,
    _psd_clip,
    _sector_blocks,
    _validity_mask,
    certify_decomposition,
    charge_sectors,
    depolarizing_choi,
    hs_basis,
    identity_choi,
    mix,
    neutral_process,
    order_projection,
    ordered_process,
    quantum_switch_process,
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
from icolab.scenarios import ScenarioConfig, _scenario_process

INV_SQRT2 = 1.0 / np.sqrt(2.0)


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
    a, b = _order_mask(lay, "AB"), _order_mask(lay, "BA")
    masks = [a, b] + ([_validity_mask(lay)] if "F" not in lay.labels else [])
    for m in masks:
        assert m.shape == hs_basis(lay).shape
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
    a, b = _order_mask(lay, "AB"), _order_mask(lay, "BA")
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
    basis, a = hs_basis(w.layout), _order_mask(w.layout, "AB")
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


def test_split_that_is_already_psd_certifies_in_one_iteration():
    # the search starts on the affine set, so its first step clips the
    # order split of W/2, W/2; when that split is PSD it is the decomposition
    basis = hs_basis(standard_layout(2))
    in_ab, in_ba = _order_mask(basis.layout, "AB"), _order_mask(basis.layout, "BA")
    for noise in (0.5, 0.8):
        w = ocb_process(noise)
        cw = basis.to_coef(w.matrix)
        for part in _order_split(cw, cw / 2.0, cw / 2.0, in_ab, in_ba):
            assert np.linalg.eigvalsh(basis.to_mat(part))[0] >= 0.0, noise
        rep = separability_heuristic(w)
        assert rep.verdict == "separable" and rep.iterations == 1, noise


# A hard pool near the separable boundary, where a search that stalls gives
# up although the answer is known.


def coherent_process(eta: float = 1.0) -> ProcessMatrix:
    """W of the coherent double-switch preset at visibility eta: real."""
    cfg = ScenarioConfig.from_dict({"scenario": "double-switch-coherent", "visibility": eta})
    return _scenario_process(cfg.spec)[0]


@pytest.mark.parametrize("eta", [0.01, 0.02, 0.05])
def test_faint_coherent_switch_is_certified_nonseparable(eta):
    w = coherent_process(eta)
    rep = separability_heuristic(w)
    assert rep.verdict == "nonseparable"
    assert oracles.witness_margin(w.matrix, w.layout, *rep.witness) < 0.0


def undamped_ordered_mixtures(seed: int, n: int) -> list[ProcessMatrix]:
    """Mixtures of a random A-first and a random B-first process with no
    white noise: separable by construction, but often of low rank and so on
    the boundary of the separable set."""
    rng = np.random.default_rng(seed)

    def channel() -> np.ndarray:
        iso = haar_unitary(rng, 4)[:, :2]
        return choi_of_kraus([iso[:2], iso[2:]])

    pool = []
    for _ in range(n):
        w_ab = ordered_process(random_density(rng, 2), channel(), "AB")
        w_ba = ordered_process(random_density(rng, 2), channel(), "BA")
        pool.append(mix(w_ab, w_ba, float(rng.uniform(0.1, 0.9))))
    return pool


def test_undamped_ordered_mixture_pool_certifies_count():
    reps = [separability_heuristic(w) for w in undamped_ordered_mixtures(1, 8)]
    # none may get a witness; the ones left inconclusive hit the cap
    assert all(rep.witness is None for rep in reps)
    assert sum(rep.separable for rep in reps) == 6
    assert all(rep.iterations == 2000 for rep in reps if not rep.separable)


def phase_rotated(w: ProcessMatrix, seed: int) -> ProcessMatrix:
    """U W U^dagger with U a product of seeded diagonal phase unitaries, one
    per factor. The order masks and the PSD cone are invariant under local
    unitaries, so the copy is separable exactly when W is, and a search on
    it follows the same iterates up to U."""
    rng = np.random.default_rng(seed)
    phases = np.ones(1, dtype=np.complex128)
    for d in w.layout.dims:
        phases = np.kron(phases, np.exp(2j * np.pi * rng.uniform(size=d)))
    return ProcessMatrix(phases[:, None] * w.matrix * phases.conj(), w.layout)


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
    w = coherent_process()
    assert not w.matrix.imag.any()
    basis = hs_basis(w.layout)
    m = w.matrix
    assert basis.to_coef(m.real).shape == (1,) + basis.shape
    assert np.array_equal(basis.to_coef(m.real)[0], basis.to_coef(m)[0])
    assert basis.to_mat(basis.to_coef(m.real)).dtype == np.float64

    seen, clips = [], []

    def recorded(a, *args, **kwargs):
        seen.append(a.dtype)
        return eigh(a, *args, **kwargs)

    def counted(m, *args):
        clips.append((m.dtype, m.shape))
        return psd_clip(m, *args)

    eigh, psd_clip = np.linalg.eigh, process._psd_clip
    monkeypatch.setattr(np.linalg, "eigh", recorded)
    monkeypatch.setattr(process, "_psd_clip", counted)
    for proc, dtype in ((w, np.float64), (phase_rotated(w, 7), np.complex128)):
        # validity and sectors are computed once per process, outside the search
        validate_process(proc)
        charge_sectors(proc)
        seen.clear()
        clips.clear()
        rep = separability_heuristic(proc)
        assert rep.verdict == "nonseparable"
        # one clip per iteration, of the stacked halves X and Y
        assert clips == [(np.dtype(dtype), (2,) + m.shape)] * rep.iterations
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


def retired_candidate(cx, cy, lay):
    """The oracle's candidate builder on the matrices of the search's
    terminal affine point, padded as the search pads."""
    x, y = (hs_basis(lay).to_mat(c) for c in (cx, cy))
    out = oracles.certificate_candidate(x, y, lay)
    if out is None:
        return None
    q, *parts = out
    return q, *(neutral_process(lay) if m is None else ProcessMatrix(m, lay) for m in parts)


def test_candidate_from_coefficients_agrees_with_the_retired_builder(monkeypatch):
    # the builder runs once, after the search loop; a search that never
    # reaches it (a witness, or the cap) runs the same code on both paths,
    # so only the searches that reach it are run again with the oracle's
    pool, built = certificate_pool(), []

    def recorded(cx, cy, lay):
        built.append(name)
        return components(cx, cy, lay)

    components = process._certificate_components
    monkeypatch.setattr(process, "_certificate_components", recorded)
    new = {}
    for name, w in pool.items():
        new[name] = separability_heuristic(w)
    monkeypatch.setattr(process, "_certificate_components", retired_candidate)
    old = {name: separability_heuristic(pool[name]) for name in built}
    verdicts = [rep.verdict for rep in new.values()]
    assert verdicts.count("separable") >= 15 and verdicts.count("nonseparable") >= 2
    for name, w in pool.items():
        if name not in old:
            assert new[name].certificate is None, name
            continue
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
    # W's coefficients serve its validity check and the search; each
    # certificate part's serve its validity and order-subspace checks
    matrices = []

    def recorded(basis, m):
        if m.ndim == 2:
            matrices.append(m)
        return to_coef(basis, m)

    to_coef = process.HSBasis.to_coef
    monkeypatch.setattr(process.HSBasis, "to_coef", recorded)
    w = ProcessMatrix(ocb_process(0.5).matrix, standard_layout(2))
    assert validate_process(w).is_valid
    rep = separability_heuristic(w)
    assert rep.verdict == "separable"
    assert len(matrices) == 3
    assert np.array_equal(matrices[0], w.matrix.real)


# Sectors of the phase symmetry, and the clip that works sector by sector
# Sectors of the phase symmetry, and the clip that works sector by sector


def sector_tuples(sectors: tuple[np.ndarray, ...]) -> list[tuple[int, ...]]:
    return sorted(tuple(int(i) for i in row) for group in sectors for row in group)


SECTOR_POOL = [
    pytest.param(coherent_process, id="coherent"),
    pytest.param(lambda: coherent_process(0.3), id="coherent-eta-0.3"),
    pytest.param(ocb_process, id="ocb"),
    pytest.param(quantum_switch_process, id="switch"),
]


@pytest.mark.parametrize("make", SECTOR_POOL)
def test_charge_sectors_match_the_definition(make):
    w = make()
    sectors = charge_sectors(w)
    assert charge_sectors(w) is sectors  # computed once per layout and nonzero pattern
    assert sector_tuples(sectors) == oracles.charge_sectors(w.matrix, w.layout.dims)
    # one group per sector size, largest first
    sizes = [group.shape[1] for group in sectors]
    assert sizes == sorted(set(sizes), reverse=True)
    # a local phase rotation keeps the nonzero pattern and the sectors
    assert sector_tuples(charge_sectors(phase_rotated(w, 7))) == sector_tuples(sectors)


def test_processes_with_one_nonzero_pattern_share_one_sector_tuple():
    first, second = coherent_process(), coherent_process(0.3)
    assert first is not second
    sectors = charge_sectors(first)
    assert charge_sectors(second) is sectors
    assert not any(idx.flags.writeable for idx in sectors)


def test_coherent_preset_has_fifteen_sectors():
    sizes = [len(s) for s in sector_tuples(charge_sectors(coherent_process()))]
    assert sorted(sizes, reverse=True) == [12, 9, 9, 6, 5, 5, 4, 4, 2, 2, 2, 1, 1, 1, 1]


def test_dense_ordered_mixture_is_one_sector_clipped_whole():
    w = undamped_ordered_mixtures(1, 1)[0]
    sectors = charge_sectors(w)
    assert len(sectors) == 1 and np.array_equal(sectors[0], np.arange(w.layout.dim)[None])
    rng = np.random.default_rng(2)
    for m in (w.matrix - 0.3 * np.eye(16), random_hermitian(rng, 16), random_hermitian(rng, 16).real):
        assert np.array_equal(_psd_clip(m, sectors), oracles.psd_clip(m))


def test_sector_clip_matches_the_full_clip_on_the_coherent_search(monkeypatch):
    inputs = []

    def recorded(m, sectors, *args):
        inputs.append((m, sectors))
        return clip(m, sectors, *args)

    clip = process._psd_clip
    monkeypatch.setattr(process, "_psd_clip", recorded)
    iterations = sum(
        separability_heuristic(w).iterations
        for w in (coherent_process(), phase_rotated(coherent_process(), 7))
    )
    # one stacked clip of both halves per iteration
    assert len(inputs) == iterations
    for stack, sectors in inputs:
        assert len(sectors) == 7 and stack.shape == (2, 64, 64)
        for m, got in zip(stack, clip(stack, sectors)):
            assert frobenius(got - oracles.psd_clip(m)) <= 1e-13 * frobenius(m)


def test_stacked_clip_equals_the_clip_of_each_matrix(monkeypatch):
    # bit for bit, on the stacks the coherent searches clip, real and complex
    stacks = []

    def recorded(m, *args):
        stacks.append((m, args))
        return clip(m, *args)

    clip = process._psd_clip
    monkeypatch.setattr(process, "_psd_clip", recorded)
    for w in (coherent_process(), phase_rotated(coherent_process(), 7)):
        separability_heuristic(w)
    assert {m.dtype for m, _ in stacks} == {np.dtype(np.float64), np.dtype(np.complex128)}
    for stack, (sectors, blocks) in stacks:
        assert all(np.array_equal(b, s) for b, s in zip(blocks, _sector_blocks(sectors, 64, 2)))
        got = clip(stack, sectors)
        assert got.dtype == stack.dtype and np.array_equal(got, clip(stack, sectors, blocks))
        for m, row in zip(stack, got):
            assert np.array_equal(row, clip(m, sectors))


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


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_sector_clip_matches_the_full_clip_on_hidden_blocks(dtype):
    # seeded Hermitian blocks of random sizes, their basis states shuffled
    rng = np.random.default_rng(11)
    for _ in range(6):
        sizes = rng.integers(1, 7, size=8)
        order = rng.permutation(sizes.sum())
        m = np.zeros((sizes.sum(),) * 2, dtype=dtype)
        sectors = [np.sort(idx) for idx in np.split(order, np.cumsum(sizes)[:-1])]
        for idx in sectors:
            block = random_hermitian(rng, len(idx)) - 0.4 * np.eye(len(idx))
            m[np.ix_(idx, idx)] = block if dtype == np.complex128 else block.real
        grouped = tuple(
            np.array([s for s in sectors if len(s) == k])
            for k in sorted(set(sizes.tolist()), reverse=True)
        )
        got = _psd_clip(m, grouped)
        assert got.dtype == dtype
        assert frobenius(got - oracles.psd_clip(m)) <= 1e-13 * frobenius(m)


def test_psd_margin_is_the_least_eigenvalue_of_the_complex_matrix():
    rng = np.random.default_rng(5)
    pool = [coherent_process(), phase_rotated(coherent_process(), 7), ocb_process(0.3)]
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
    with pytest.raises(ValueError):
        separability_heuristic(neutral_process(lay), iters=0)


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
