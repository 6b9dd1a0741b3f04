import numpy as np
import pytest

import oracles
from icolab.linalg import SpaceLayout, frobenius, ket, partial_trace, projector, tensor
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
    _validity_mask,
    certify_decomposition,
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

MASK_LAYOUT_DIMS = [(2, 2, 2, 2), (2, 2, 2, 2, 4), (3, 3, 2, 2), (2, 2, 2, 2, 2)]


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
    for q in (0.0, 0.3, 0.5, 1.0):
        rep = separability_heuristic(mix(w_ab, w_ba, q))
        assert rep.separable, f"q={q} should be separable"
        assert rep.certificate[0] == pytest.approx(q, abs=1e-4)
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


# ---------------------------------------------------------------------------
# serialization and structure


def test_process_matrix_json_roundtrip():
    w = quantum_switch_process()
    back = ProcessMatrix.from_json(w.to_json())
    assert back.layout == w.layout
    assert np.abs(back.matrix - w.matrix).max() == 0.0


def test_process_matrix_rejects_bad_layout():
    with pytest.raises(ValueError):
        ProcessMatrix(np.eye(8), SpaceLayout(("A_I", "A_O", "B_I"), (2, 2, 2)))


def test_process_matrix_rejects_non_hermitian():
    lay = standard_layout(2)
    m = np.eye(lay.dim, dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        ProcessMatrix(m, lay)


def test_mix_validates_inputs():
    w = quantum_switch_process()
    with pytest.raises(ValueError):
        mix(w, w, 1.5)
    other = neutral_process(standard_layout(2))
    with pytest.raises(ValueError):
        mix(w, other, 0.5)
