import numpy as np
import pytest

import oracles
from icolab.bell import (
    BehaviorTable,
    CHSHResult,
    MeasurementSetting,
    TSIRELSON,
    behavior,
    bloch_observable,
    chsh,
    chsh_settings,
    classical_chsh_bound,
    correlation_matrix,
    optimize_chsh,
)
from icolab.linalg import H, MINUS, PLUS, SpaceLayout, X, Y, Z, ket, projector, tensor
from icolab.sampling import random_separable_two_qubit, random_two_qubit_state
from icolab.switch import ControlMeasurement, condition_on_control

SINGLET = (tensor(ket(0), ket(1)) - tensor(ket(1), ket(0))) / np.sqrt(2.0)
PHI_PLUS = (tensor(ket(0), ket(0)) + tensor(ket(1), ket(1))) / np.sqrt(2.0)


def test_bloch_observable_axes():
    assert np.allclose(bloch_observable(0.0, 0.0), np.diag([1.0, -1.0]))
    assert np.allclose(bloch_observable(np.pi / 2, 0.0), np.array([[0, 1], [1, 0]]))


def test_behavior_is_normalized_and_no_signaling():
    rho = projector(SINGLET)
    t = behavior(rho, MeasurementSetting.z_x(), MeasurementSetting.diagonal())
    sums = t.probs.sum(axis=(2, 3))
    assert np.abs(sums - 1.0).max() < 1e-12
    # A's marginal must not depend on y and vice versa
    ma = t.probs.sum(axis=3)
    assert np.abs(ma[:, 0, :] - ma[:, 1, :]).max() < 1e-12
    mb = t.probs.sum(axis=2)
    assert np.abs(mb[0, :, :] - mb[1, :, :]).max() < 1e-12


def test_chsh_at_canonical_settings():
    # Z/X against diagonal settings on |phi+> gives exactly 2 sqrt 2
    t = behavior(projector(PHI_PLUS), MeasurementSetting.z_x(), MeasurementSetting.diagonal())
    r = chsh(t)
    assert r.value == pytest.approx(TSIRELSON, abs=1e-12)


def test_classical_bound_is_two():
    assert classical_chsh_bound() == 2.0


def test_chsh_result_consistency_guard():
    with pytest.raises(ValueError):
        CHSHResult(value=3.5, correlators=np.ones((2, 2)))


def test_correlation_matrix_of_phi_plus():
    t = correlation_matrix(projector(PHI_PLUS))
    assert np.allclose(t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)


def _projector_lists(setting):
    return [setting.projectors(x) for x in range(setting.inputs)]


def test_behavior_matches_the_per_cell_oracle_exactly():
    rng = np.random.default_rng(17)
    for k in range(30):
        rho = random_two_qubit_state(rng)
        c1, c2 = (
            MeasurementSetting(tuple(map(tuple, rng.uniform(0.0, 2 * np.pi, size=(n, 2)))))
            for n in ((3, 2) if k % 3 == 0 else (2, 2))
        )
        want = oracles.born_table(rho, _projector_lists(c1), _projector_lists(c2))
        got = behavior(rho, c1, c2).probs
        assert got.shape == want.shape == (c1.inputs, 2, 2, 2)
        assert np.array_equal(got, want)


def test_correlation_matrix_matches_the_per_cell_oracle_exactly():
    rng = np.random.default_rng(19)
    for rho in [random_two_qubit_state(rng) for _ in range(30)] + [projector(SINGLET)]:
        assert np.array_equal(correlation_matrix(rho), oracles.correlation_matrix(rho))


def test_optimize_chsh_is_chsh_at_the_closed_form_settings():
    rng = np.random.default_rng(23)
    for rho in [random_two_qubit_state(rng) for _ in range(20)] + [projector(SINGLET)]:
        settings = chsh_settings(rho)
        r = optimize_chsh(rho)
        assert r.value == chsh(behavior(rho, *settings)).value
        assert [c.angles for c in r.settings] == [c.angles for c in settings]
        assert r.value == pytest.approx(oracles.horodecki_chsh_max(rho), abs=1e-9)
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        chsh_settings(SINGLET)
    with pytest.raises(ValueError, match="positive semidefinite"):
        chsh_settings(-projector(SINGLET))


def test_optimize_chsh_reaches_tsirelson_on_bell_state():
    r = optimize_chsh(projector(SINGLET))
    assert r.value == pytest.approx(TSIRELSON, abs=1e-9)
    # the reported settings reproduce the reported value through the Born rule
    t = behavior(projector(SINGLET), *r.settings)
    assert chsh(t).value == pytest.approx(r.value, abs=1e-12)


def test_optimize_chsh_on_product_state_stays_at_two():
    # |0>|+> has a rank-1 correlation matrix, so s2 = 0 and b0 = b1
    rho = tensor(projector(ket(0)), projector(PLUS))
    r = optimize_chsh(rho)
    assert r.value <= 2.0 + 1e-9
    assert r.value == pytest.approx(2.0, abs=1e-12)


def test_optimize_chsh_takes_only_a_density_operator():
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        optimize_chsh(SINGLET)


def test_optimize_matches_horodecki_on_random_states():
    rng = np.random.default_rng(11)
    degenerate = [
        np.eye(4) / 4,  # T = 0, S = 0
        tensor(projector(ket(0)), projector(PLUS)),  # rank 1, S = 2
        # T = diag(1/2, -1/2, 0): rank 2, S = sqrt 2
        (projector(PHI_PLUS) + projector(tensor(ket(0), ket(1)))) / 2.0,
    ]
    for rho in [random_two_qubit_state(rng) for _ in range(25)] + degenerate:
        r = optimize_chsh(rho)
        s_max = oracles.horodecki_chsh_max(rho)
        assert r.value <= s_max + 1e-12
        assert r.value == pytest.approx(s_max, abs=1e-12)
        for setting in r.settings:
            for x in range(2):
                o = setting.observable(x)
                bloch = [np.real(np.trace(o @ p)) / 2.0 for p in (X, Y, Z)]
                assert np.linalg.norm(bloch) == pytest.approx(1.0, abs=1e-12)
    assert optimize_chsh(np.eye(4) / 4).value == 0.0
    assert optimize_chsh(degenerate[1]).value == pytest.approx(2.0, abs=1e-12)
    assert optimize_chsh(degenerate[2]).value == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_werner_state_values():
    # Werner state v|psi-><psi-| + (1-v) I/4 has S_max = 2 sqrt 2 v
    for v in (0.5, 0.75, 1.0):
        rho = v * projector(SINGLET) + (1 - v) * np.eye(4) / 4
        r = optimize_chsh(rho)
        assert r.value == pytest.approx(2.0 * np.sqrt(2.0) * v, abs=1e-7)
    rho = 0.5 * projector(SINGLET) + 0.5 * np.eye(4) / 4
    assert optimize_chsh(rho).value == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_optimize_is_deterministic_for_fixed_seed():
    # the closed form draws no random numbers, so there is no seed to fix
    rng = np.random.default_rng(5)
    rho = random_two_qubit_state(rng)
    r1 = optimize_chsh(rho)
    r2 = optimize_chsh(rho)
    assert r1.value == r2.value
    assert r1.settings[0].angles == r2.settings[0].angles


def test_optimize_with_conditioning():
    # conditioning on the control splits it off before optimizing
    psi = (
        tensor(ket(0), MINUS, MINUS) + tensor(ket(1), PLUS, PLUS)
    ) / np.sqrt(2.0)
    layout = SpaceLayout(("control", "target1", "target2"), (2, 2, 2))
    p, rho = condition_on_control(projector(psi), ControlMeasurement.plus_minus(), "+", layout)
    assert p == pytest.approx(0.5, abs=1e-12)
    r = optimize_chsh(rho)
    assert r.value == pytest.approx(TSIRELSON, abs=1e-6)


def test_behavior_table_json_roundtrip():
    t = behavior(projector(PHI_PLUS), MeasurementSetting.z_x(), MeasurementSetting.z_x())
    d = t.to_json_dict()
    back = BehaviorTable.from_json_dict(d)
    assert np.abs(back.probs - t.probs).max() == 0.0
    with pytest.raises(ValueError):
        BehaviorTable.from_json_dict({**d, "schema": "bogus"})


def test_behavior_table_validation():
    bad = np.full((2, 2, 2, 2), 0.3)
    with pytest.raises(ValueError):
        BehaviorTable(bad)  # cells sum to 1.2


def test_tsirelson_never_exceeded_on_random_states():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        r = optimize_chsh(random_two_qubit_state(rng))
        assert r.value <= TSIRELSON + 1e-9


def test_separable_states_respect_classical_bound():
    rng = np.random.default_rng(2025)
    for _ in range(40):
        r = optimize_chsh(random_separable_two_qubit(rng))
        assert r.value <= 2.0 + 1e-9
