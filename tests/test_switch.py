import numpy as np
import pytest

import oracles
from icolab.linalg import H, I2, MINUS, PLUS, X, Z, ket, projector, tensor
from icolab.switch import (
    Branch,
    ControlMeasurement,
    DoubleSwitchSpec,
    SwitchSpec,
    conditioned_target_state,
    double_switch_output,
    event_input_state,
    measure_control,
    reduced_target_state,
    switch_output,
    target_entanglement,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def make_switch(u_a, u_b, v0=None, v1=None, psi=None):
    v0 = I2 if v0 is None else v0
    v1 = v0 if v1 is None else v1
    psi = ket(0) if psi is None else psi
    return SwitchSpec(u_a=u_a, u_b=u_b, v0=v0, v1=v1, psi_t0=psi)


def test_switch_output_matches_branch_chains():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(g)
        spec = make_switch(u, H, v0=Z)
        out = switch_output(spec)
        expected = INV_SQRT2 * tensor(ket(0), H @ Z @ u @ ket(0)) + INV_SQRT2 * tensor(
            ket(1), u @ Z @ H @ ket(0)
        )
        assert np.abs(out - expected).max() < 1e-12


def test_anticommuting_branches_give_deterministic_minus():
    # U_A = X, U_B = Z, V = I: ZX|0> = -XZ|0>, so the +/- measurement on the
    # control resolves the order sign deterministically.
    spec = make_switch(X, Z)
    out = switch_output(spec)
    results = {label: p for label, p, _ in measure_control(out, ControlMeasurement.plus_minus())}
    assert results["-"] == pytest.approx(1.0, abs=1e-12)
    assert results["+"] == pytest.approx(0.0, abs=1e-12)
    # oracle route: independent dense simulation
    probs = oracles.switch_control_statistics(
        X, Z, I2, ket(0), INV_SQRT2, INV_SQRT2, np.stack([PLUS, MINUS], axis=1)
    )
    assert np.abs(probs - [0.0, 1.0]).max() < 1e-12


def test_commuting_branches_give_deterministic_plus():
    spec = make_switch(X, X)
    out = switch_output(spec)
    results = {label: p for label, p, _ in measure_control(out, ControlMeasurement.plus_minus())}
    assert results["+"] == pytest.approx(1.0, abs=1e-12)


def test_event_input_states():
    spec = make_switch(H, Z, v0=X, v1=Z)
    e1 = event_input_state(spec, "E1")
    assert np.abs(e1 - projector(ket(0))).max() < 1e-12
    e2 = event_input_state(spec, "E2")
    expected = 0.5 * projector(X @ H @ ket(0)) + 0.5 * projector(Z @ Z @ ket(0))
    assert np.abs(e2 - expected).max() < 1e-12
    with pytest.raises(ValueError):
        event_input_state(spec, "E3")


def test_control_measurement_bases():
    m = ControlMeasurement.plus_minus()
    assert m.labels == ("+", "-")
    assert np.allclose(m.basis[0], PLUS)
    mc = ControlMeasurement.computational()
    assert mc.labels == ("0", "1")
    mb = ControlMeasurement.from_bloch(np.pi / 2, 0.0)
    assert np.allclose(np.abs(mb.basis[0]), np.abs(PLUS))


def double_switch(u_a, u_b, v0=None, v1=None, **kw):
    sw = make_switch(u_a, u_b, v0=v0, v1=v1)
    return DoubleSwitchSpec(switch1=sw, switch2=sw, **kw)


def test_double_switch_coherent_output():
    spec = double_switch(H, Z)
    out = double_switch_output(spec)
    # branches: ZH|0> = |->, HZ|0> = |+>
    minus2 = tensor(MINUS, MINUS)
    plus2 = tensor(PLUS, PLUS)
    expected = INV_SQRT2 * tensor(ket(0), minus2) + INV_SQRT2 * tensor(ket(1), plus2)
    assert np.abs(out - expected).max() < 1e-12


def test_conditioned_state_is_maximally_entangled():
    spec = double_switch(H, Z)
    p, rho = conditioned_target_state(spec, ControlMeasurement.plus_minus(), "+")
    assert p == pytest.approx(0.5, abs=1e-12)
    assert target_entanglement(rho, (2, 2)) == pytest.approx(0.5, abs=1e-9)
    p_or, vec = oracles.double_switch_conditioned(H, Z, I2, ket(0), INV_SQRT2, INV_SQRT2, PLUS)
    assert p_or == pytest.approx(p, abs=1e-12)
    assert np.abs(rho - np.outer(vec, vec.conj())).max() < 1e-12
    assert oracles.negativity(rho, 2, 2) == pytest.approx(0.5, abs=1e-9)


def test_reduced_state_of_classical_mixture_is_separable_mix():
    spec = double_switch(H, Z, order_mode="classical-mixture", mixture_q=0.3)
    rho = reduced_target_state(spec)
    branch_ab = tensor(MINUS, MINUS)
    branch_ba = tensor(PLUS, PLUS)
    expected = 0.3 * projector(branch_ab) + 0.7 * projector(branch_ba)
    assert np.abs(rho - expected).max() < 1e-12
    assert target_entanglement(rho, (2, 2)) == pytest.approx(0.0, abs=1e-9)


def test_definite_modes():
    spec_ab = double_switch(H, Z, order_mode="definite-AB")
    out = double_switch_output(spec_ab)
    assert np.abs(out - tensor(ket(0), MINUS, MINUS)).max() < 1e-12
    spec_ba = double_switch(H, Z, order_mode="definite-BA")
    out = double_switch_output(spec_ba)
    assert np.abs(out - tensor(ket(1), PLUS, PLUS)).max() < 1e-12


def test_env_flag_branches():
    # env selects v0 = I or v1 = Z under definite AB order; since ZZH = H the
    # two branches land on |--> and |++>.
    spec = double_switch(H, Z, v0=I2, v1=Z, order_mode="definite-AB", env_flag=True)
    out = double_switch_output(spec)
    expected = INV_SQRT2 * tensor(ket(0), MINUS, MINUS) + INV_SQRT2 * tensor(
        ket(1), PLUS, PLUS
    )
    assert np.abs(out - expected).max() < 1e-12
    p, rho = conditioned_target_state(spec, ControlMeasurement.plus_minus(), "+")
    assert target_entanglement(rho, (2, 2)) == pytest.approx(0.5, abs=1e-9)


AMP = (0.6, 0.8j)
SUPERPOSED = [Branch(0, "AB", 0.6, 0.36), Branch(1, "BA", 0.8j, 0.64)]


@pytest.mark.parametrize(
    "kw, branches, coherent, indefinite",
    [
        ({}, SUPERPOSED, True, True),
        ({"visibility": 0.0}, SUPERPOSED, False, False),
        (
            {"order_mode": "classical-mixture", "mixture_q": 0.3},
            [Branch(0, "AB", None, 0.3), Branch(1, "BA", None, 0.7)],
            False,
            False,
        ),
        ({"order_mode": "definite-AB"}, [Branch(0, "AB", None, 1.0)], False, False),
        ({"order_mode": "definite-BA"}, [Branch(1, "BA", None, 1.0)], False, False),
        (
            {"order_mode": "definite-AB", "env_flag": True},
            [Branch(0, "AB", 0.6, 0.36), Branch(1, "AB", 0.8j, 0.64)],
            True,
            False,
        ),
        (
            {"order_mode": "definite-BA", "env_flag": True},
            [Branch(0, "BA", 0.6, 0.36), Branch(1, "BA", 0.8j, 0.64)],
            True,
            False,
        ),
    ],
)
def test_branch_list_of_each_mode(kw, branches, coherent, indefinite):
    spec = double_switch(H, Z, v0=I2, v1=Z, control_amplitudes=AMP, **kw)
    got = spec.branches
    assert [(b.index, b.order, b.amplitude) for b in got] == [
        (b.index, b.order, b.amplitude) for b in branches
    ]
    assert [b.weight for b in got] == pytest.approx([b.weight for b in branches], abs=1e-15)
    assert spec.coherent is coherent
    assert spec.indefinite_order is indefinite


def test_env_flag_requires_definite_mode():
    with pytest.raises(ValueError):
        double_switch(H, Z, v0=I2, v1=Z, order_mode="coherent", env_flag=True)


# squaring 1e200 overflows, and so does |z| for z = 1.7e308 (1 + i); NaN is
# no norm either
UNNORMALIZABLE_AMPLITUDES = [(1e200, 1e200), (complex(1.7e308, 1.7e308), 0.0), (float("nan"), 1.0)]
SPECS_WITH_AMPLITUDES = {
    "switch": lambda amps: SwitchSpec(u_a=H, u_b=Z, control_amplitudes=amps),
    "double": lambda amps: DoubleSwitchSpec(make_switch(H, Z), make_switch(H, Z), control_amplitudes=amps),
}


@pytest.mark.parametrize("spec", list(SPECS_WITH_AMPLITUDES))
def test_control_amplitudes_are_checked_without_overflow(spec):
    build = SPECS_WITH_AMPLITUDES[spec]
    for amps in UNNORMALIZABLE_AMPLITUDES:
        with pytest.raises(ValueError, match="control_amplitudes"):
            build(amps)
    # the allowance on |alpha|^2 + |beta|^2 - 1 is still 1e-9
    build((np.sqrt(0.3), 1j * np.sqrt(0.7 + 9e-10)))
    with pytest.raises(ValueError, match="control_amplitudes"):
        build((np.sqrt(0.3), 1j * np.sqrt(0.7 + 1.1e-9)))


def test_a5_is_read_off_the_free_evolutions():
    assert double_switch(H, Z).a5_satisfied
    assert double_switch(H, Z, v0=Z, v1=Z).a5_satisfied
    assert not double_switch(H, Z, v0=I2, v1=Z).a5_satisfied
    # entrywise: v1 = -v0 puts a relative phase between the branches
    assert not double_switch(H, Z, v0=Z, v1=-Z).a5_satisfied
    sw, other = make_switch(H, Z), make_switch(H, Z, v0=I2, v1=Z)
    assert not DoubleSwitchSpec(switch1=sw, switch2=other).a5_satisfied
    assert not DoubleSwitchSpec(switch1=other, switch2=sw).a5_satisfied


def test_visibility_damping():
    spec = double_switch(H, Z, visibility=0.5)
    rho = double_switch_output(spec)
    assert rho.ndim == 2
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    p, cond = conditioned_target_state(spec, ControlMeasurement.plus_minus(), "+")
    # negativity of the damped conditioned state is eta/2
    assert target_entanglement(cond, (2, 2)) == pytest.approx(0.25, abs=1e-9)


def test_target_entanglement_validates_input():
    with pytest.raises(ValueError):
        target_entanglement(np.eye(4), (2, 2))  # trace 4
    with pytest.raises(ValueError):
        target_entanglement(np.diag([1.5, -0.5, 0.0, 0.0]), (2, 2))
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        target_entanglement(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0), (2, 2))  # a state vector


def test_measure_control_probabilities_sum_to_one():
    spec = make_switch(H, X, v0=Z)
    out = switch_output(spec)
    res = measure_control(out, ControlMeasurement.computational())
    assert sum(p for _, p, _ in res) == pytest.approx(1.0, abs=1e-12)
    for _, p, post in res:
        if p > 1e-12:
            assert np.linalg.norm(post) == pytest.approx(1.0, abs=1e-10)
