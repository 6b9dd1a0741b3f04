import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, reject, settings
from hypothesis import strategies as st

import oracles
from icolab import bell, cli, process, scenarios, switch
from icolab.linalg import NAMED_UNITARIES
from icolab.process import certify_decomposition, quantum_switch_process
from icolab.scenarios import (
    BUILTIN_SCENARIOS,
    NAMED_STATES,
    ConfigError,
    ScenarioConfig,
    _audit_section,
    _scenario_process,
    list_scenarios,
    load_config,
    run_scenario,
    sweep,
)


def make_config(**overrides):
    return ScenarioConfig.from_dict({"scenario": "double-switch-coherent", **overrides})


# ---------------------------------------------------------------------------
# config parsing


def test_builtin_names_resolve():
    for name in BUILTIN_SCENARIOS:
        cfg = ScenarioConfig.from_dict({"scenario": name})
        assert cfg.name == name


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"scenario": "nope"})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"scenario": "custom", "uu_a": "H"})


def test_override_merging():
    cfg = make_config(seed=7, mixture_q=0.25)
    assert cfg.seed == 7 and cfg.spec.mixture_q == 0.25
    assert cfg.echo["u_a"] == "H"  # preset survives


def test_matrix_resolution():
    cfg = make_config(u_a=[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    assert np.allclose(cfg.spec.switch1.u_a, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ConfigError):
        make_config(u_a="Q")
    with pytest.raises(ConfigError):
        make_config(u_a=[[1, 0], [0, 1]])  # missing [re, im] nesting


def test_state_resolution():
    cfg = make_config(psi_t0="+")
    assert np.allclose(cfg.spec.switch1.psi_t0, np.array([1.0, 1.0]) / np.sqrt(2.0))
    with pytest.raises(ConfigError):
        make_config(psi_t0="up")


def test_physical_consistency_checked_at_parse_time():
    with pytest.raises(ConfigError):
        make_config(control_amplitudes=[1.0, 1.0])  # not normalized
    with pytest.raises(ConfigError):
        make_config(order_mode="sideways")
    with pytest.raises(ConfigError):
        make_config(visibility=1.5)
    with pytest.raises(ConfigError):
        make_config(control_amplitudes=[float("nan"), 1.0])
    one, three = [[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    pair = [[0.0, 0.0], [1.0, 0.0]]
    nan_angle = [[0.0, float("nan")], [1.0, 0.0]]
    for settings in ([one, pair], [pair, three], [[], []], [pair, nan_angle]):
        with pytest.raises(ConfigError):
            make_config(settings=settings)
    # JSON types are checked, not coerced into something the echo contradicts
    for key, value in (
        ("env_flag", "false"), ("seed", 1.7), ("seed", "7"),
        ("description", 7), ("order_mode", 5),
    ):
        with pytest.raises(ConfigError, match=f"{key} must be"):
            make_config(**{key: value})
        with pytest.raises(ConfigError, match=f"{key} must be"):
            ScenarioConfig.from_dict({"scenario": "custom", key: value})
    # real-valued keys take JSON numbers only: no bools, no numeric strings
    pair = [[0.0, 0.0], [1.0, 0.0]]
    for key, overrides in (
        ("mixture_q", {"mixture_q": True}),
        ("visibility", {"visibility": "0.5"}),
        ("visibility", {"visibility": False}),
        ("control_amplitudes[0]", {"control_amplitudes": [True, 0]}),
        ("control_amplitudes[1]", {"control_amplitudes": [1.0, [False, 0.0]]}),
        ("control_amplitudes[0]", {"control_amplitudes": [["0.6", 0.0], 0.8]}),
        ("settings", {"settings": [pair, [[0.0, 0.0], [True, 0.0]]]}),
        ("settings", {"settings": [pair, [[0.0, "0.5"], [1.0, 0.0]]]}),
        ("conditioning.basis", {"conditioning": {"basis": [True, 0.0], "outcome": "+"}}),
    ):
        with pytest.raises(ConfigError, match=re.escape(key) + " must be"):
            make_config(**overrides)


def test_conditioning_validation():
    cfg = make_config(conditioning={"basis": "computational", "outcome": "0"})
    assert cfg.conditioning[1] == "0"
    with pytest.raises(ConfigError):
        make_config(conditioning={"basis": "plus_minus", "outcome": "up"})
    with pytest.raises(ConfigError):
        make_config(conditioning={"basis": "plus_minus"})
    with pytest.raises(ConfigError):
        make_config(conditioning={"basis": [float("nan"), 0.0], "outcome": "+"})
    # a misspelt key inside conditioning is named, not echoed
    typo = {"basis": "plus_minus", "outcome": "+", "outcom": "-"}
    with pytest.raises(ConfigError, match=r"unknown config keys: \['conditioning.outcom'\]"):
        make_config(conditioning=typo)


def test_list_scenarios_is_stable():
    names = [n for n, _ in list_scenarios()]
    assert names == list(BUILTIN_SCENARIOS)


# ---------------------------------------------------------------------------
# reports


def test_report_structure_and_determinism():
    cfg = make_config()
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    assert r1.to_json_bytes() == r2.to_json_bytes()
    rep = r1.report
    for key in (
        "schema",
        "scenario",
        "assumptions",
        "states",
        "chsh",
        "causal",
        "temporal_locality",
        "process",
        "seed",
    ):
        assert key in rep
    assert rep["schema"] == "icolab/run-report/v6"
    assert set(rep["causal"]) == {"verdict", "marginal_dependence"}
    assert set(rep["chsh"]) == {
        "value", "correlators", "settings", "classical_bound", "tsirelson_bound"
    }
    assert rep["seed"] == cfg.seed
    assert rep["scenario"]["seed"] == cfg.seed
    assert "duration" not in json.dumps(rep)


def test_coherent_report_content():
    rep = run_scenario(make_config()).report
    assert rep["chsh"]["value"] == pytest.approx(2 * np.sqrt(2), abs=1e-6)
    assert rep["states"]["negativity"] == pytest.approx(0.5, abs=1e-9)
    assert rep["states"]["conditioning"]["probability"] == pytest.approx(0.5, abs=1e-9)
    assert rep["causal"]["verdict"] == "causal"
    assert rep["temporal_locality"]["applicable"] is False
    assert rep["process"]["validity"]["verdict"] == "valid"
    assert rep["process"]["separability"]["separable"] is False
    assert rep["process"]["separability"]["residual"] > 1e-3


def test_baseline_report_content():
    rep = run_scenario(
        ScenarioConfig.from_dict({"scenario": "classical-order-baseline"})
    ).report
    assert rep["chsh"]["value"] <= 2.0 + 1e-9
    assert rep["states"]["negativity"] == pytest.approx(0.0, abs=1e-9)
    assert rep["temporal_locality"]["applicable"] is True
    assert rep["temporal_locality"]["passed"] is True
    assert rep["process"]["separability"]["separable"] is True
    assert rep["process"]["separability"]["q"] == pytest.approx(0.5, abs=1e-4)


def test_a5_violated_report_content():
    rep = run_scenario(
        ScenarioConfig.from_dict({"scenario": "a5-violated-definite-order"})
    ).report
    assert rep["chsh"]["value"] > 2.1
    assert rep["states"]["negativity"] > 0.0
    assert rep["temporal_locality"]["applicable"] is True
    assert rep["temporal_locality"]["passed"] is True
    assert rep["assumptions"]["a5_satisfied"] is False
    # definite order throughout: the process view stays separable
    assert rep["process"]["separability"]["separable"] is True


@pytest.mark.parametrize(
    "name, verdict, source, iterations, q",
    [
        pytest.param(*case, id=case[0])
        for case in (
            ("double-switch-coherent", "nonseparable", "search", 0, None),
            ("classical-order-baseline", "separable", "construction", 0, 0.5),
            ("a5-violated-definite-order", "separable", "construction", 0, 1.0),
        )
    ],
)
def test_builtin_separability_is_pinned(name, verdict, source, iterations, q):
    rep = run_scenario(ScenarioConfig.from_dict({"scenario": name})).report
    sep = rep["process"]["separability"]
    assert (sep["verdict"], sep["source"], sep["iterations"]) == (verdict, source, iterations)
    assert sep["separable"] is (verdict == "separable")
    if q is None:
        assert "q" not in sep
        # decided on the face of the rank-1 W with no step, with the lifted witness
        assert sep["witness_value"] == pytest.approx(-0.013932580954483985, abs=1e-9)
        assert rep["notes"][1].endswith("(causal nonseparability witness certified)")
    else:
        assert sep["q"] == pytest.approx(q, abs=1e-9)
        assert "witness_value" not in sep
        assert sep["residual"] <= 1e-12  # relative reconstruction error of the construction


def test_each_run_checks_each_process_matrix_once(monkeypatch):
    # a validity report is built once per run, for W (the search reuses
    # it); a construction's certificate parts (baseline's two ordered
    # processes; a5's W, its own A-first part, and the neutral process) pass
    # the same checks inside certify_decomposition, with no report of their own
    calls = []

    def counted(w):
        calls.append(w.layout.dim)
        return original(w)

    original = process._validity_report
    monkeypatch.setattr(process, "_validity_report", counted)
    process.neutral_process.cache_clear()
    for name in ("a5-violated-definite-order", "double-switch-coherent", "classical-order-baseline"):
        calls.clear()
        rep = run_scenario(ScenarioConfig.from_dict({"scenario": name})).report
        assert calls == [64], name
        assert rep["process"]["validity"]["verdict"] == "valid", name


GOLDEN_SECTIONS = Path(__file__).parent / "data" / "builtin_sections.json"


def test_builtin_sections_match_the_golden_file():
    # The audit and process sections of the built-in reports, serialized as
    # in the report: any rounding change in them shows here. Regenerate the
    # file only with a change that is meant to move report bytes.
    golden = json.loads(GOLDEN_SECTIONS.read_text())
    assert sorted(golden) == sorted(BUILTIN_SCENARIOS)
    for name, sections in golden.items():
        report = run_scenario(ScenarioConfig.from_dict({"scenario": name})).report
        for key, want in sections.items():
            got = json.dumps(report[key], sort_keys=True)
            assert got == json.dumps(want, sort_keys=True), (name, key)


def test_construction_certificate_is_checked_from_its_parts_caches(monkeypatch):
    # a5's certificate is (1, W, neutral process): W's coefficients come
    # from its validity check and the neutral process's from its first
    # certificate on the layout, so the check computes none; it gates both
    # parts' positivity by one Cholesky factorization and reads no
    # eigenvalue, cached or not
    cfg = ScenarioConfig.from_dict({"scenario": "a5-violated-definite-order"})
    run_scenario(cfg)
    w, _, candidate = _scenario_process(cfg.spec)
    assert candidate[1] is w and candidate[2] is process.neutral_process(w.layout)
    assert process.validate_process(w).is_valid
    calls = []

    def recorded(name, original):
        def call(*args):
            calls.append((name, args[-1].shape))
            return original(*args)

        return call

    for name in ("eigvalsh", "eigh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    monkeypatch.setattr(process.HSBasis, "to_coef", recorded("to_coef", process.HSBasis.to_coef))
    rep = certify_decomposition(w, *candidate)
    assert rep is not None and rep.residual <= 1e-12
    assert calls == [("cholesky", (2, 64, 64))]


def test_a_two_order_mixture_builds_its_parts_from_one_checked_stack(monkeypatch):
    # the baseline's W_AB and W_BA pass one structural check as a (2, 64, 64)
    # stack and are read-only views of it, bit for bit the processes the
    # constructor builds from each branch alone; W itself is built alone
    checked = []

    def recorded(m, layout, ndim):
        checked.append(m.shape)
        return original(m, layout, ndim)

    original = process._structure_checked
    monkeypatch.setattr(process, "_structure_checked", recorded)
    cfg = ScenarioConfig.from_dict({"scenario": "classical-order-baseline"})
    w, _, (q, w_ab, w_ba) = _scenario_process(cfg.spec)
    assert checked == [(2, 64, 64), (64, 64)]
    assert w_ab.matrix.base is w_ba.matrix.base and not w_ab.matrix.flags.writeable
    sw = cfg.spec.switch1
    for part, branch in zip((w_ab, w_ba), cfg.spec.branches):
        x = process.switch_branch_vector(branch.order, sw.psi_t0, (sw.v0, sw.v1)[branch.index])
        alone = process.ProcessMatrix(np.outer(x, x.conj()), w.layout)
        assert part.matrix.tobytes() == alone.matrix.tobytes()
    assert certify_decomposition(w, q, w_ab, w_ba) is not None


def test_search_out_of_steps_reports_inconclusive(monkeypatch):
    # at the default step budget this config gives a witness at step 18
    monkeypatch.setattr(process, "SEARCH_STEPS", 5)
    cfg = ScenarioConfig.from_dict({"scenario": "double-switch-coherent", "visibility": 0.3})
    rep = run_scenario(cfg).report
    sep = rep["process"]["separability"]
    assert (sep["verdict"], sep["separable"], sep["iterations"], sep["source"]) == (
        "inconclusive",
        False,
        5,
        "search",
    )
    assert "q" not in sep and "witness_value" not in sep
    assert sep["residual"] == pytest.approx(0.11641333059448722, rel=1e-9)
    assert rep["notes"][1].endswith("undetermined (neither a decomposition nor a witness was certified)")


def test_tampered_construction_falls_back_to_the_search(monkeypatch):
    cfg = ScenarioConfig.from_dict({"scenario": "a5-violated-definite-order"})
    w, construction, (q, w_ab, w_ba) = _scenario_process(cfg.spec)
    assert certify_decomposition(w, q, w_ab, w_ba) is not None
    tampered = (q - 0.05, w_ab, w_ba)
    assert certify_decomposition(w, *tampered) is None
    monkeypatch.setattr(scenarios, "_scenario_process", lambda spec: (w, construction, tampered))
    sep = run_scenario(cfg).report["process"]["separability"]
    # W has rank 2 and its face one order split, which certifies after the first step
    assert (sep["verdict"], sep["source"], sep["iterations"]) == ("separable", "search", 1)
    assert sep["q"] == pytest.approx(1.0, abs=1e-12) and sep["residual"] <= 1e-12


def test_process_candidate_follows_the_branches():
    # a mixture of ordered processes comes with its decomposition; a coherent
    # superposition of both orders does not
    for overrides, q in (
        ({"order_mode": "classical-mixture", "mixture_q": 0.3}, 0.3),
        ({"order_mode": "definite-AB"}, 1.0),
        ({"order_mode": "definite-BA"}, 0.0),
        ({"visibility": 0.0, "control_amplitudes": [0.6, 0.8]}, 0.36),
        ({"env_flag": True, "order_mode": "definite-BA", "v1": "Z"}, 0.0),
    ):
        w, _, candidate = _scenario_process(make_config(**overrides).spec)
        assert candidate[0] == pytest.approx(q, abs=1e-15), overrides
        assert certify_decomposition(w, *candidate).residual <= 1e-12, overrides
    for eta in (1.0, 0.5):
        assert _scenario_process(make_config(visibility=eta).spec)[2] is None


def test_correlation_stage_builds_the_state_once(monkeypatch):
    original, calls = switch.double_switch_output, []

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(switch, "double_switch_output", counted)
    monkeypatch.setattr(scenarios, "double_switch_output", counted)
    for cfg in (make_config(), ScenarioConfig.from_dict({"scenario": "classical-order-baseline"})):
        calls.clear()
        scenarios._correlation_sections(cfg)
        assert len(calls) == 1


def test_dephased_coherent_process_certifies_at_zero_visibility():
    amps = [np.sqrt(0.3), np.sqrt(0.7)]
    rep = run_scenario(make_config(visibility=0.0, control_amplitudes=amps)).report
    assert rep["states"]["negativity"] == pytest.approx(0.0, abs=1e-9)
    assert rep["causal"]["verdict"] == "causal"
    sep = rep["process"]["separability"]
    assert sep["separable"] is True
    assert sep["q"] == pytest.approx(0.3, abs=1e-6)  # |alpha|^2
    assert "definite or mixed" in rep["notes"][1]


def test_sections_agree_at_zero_visibility():
    # At eta = 0 the coherent branches are a mixture with weights |alpha|^2,
    # |beta|^2, so the audit applies the classical-mixture model.
    amps = [np.sqrt(0.3), np.sqrt(0.7)]
    rep = run_scenario(make_config(visibility=0.0, control_amplitudes=amps)).report
    assert rep["assumptions"]["classical_order_variable"] is True
    audit = rep["temporal_locality"]
    assert audit["applicable"] is True and audit["passed"] is True
    assert rep["notes"][2].startswith("within-switch events admit a definite-order")
    mixture = make_config(order_mode="classical-mixture", mixture_q=abs(amps[0]) ** 2)
    assert audit == _audit_section(mixture)
    # any visibility above 0 keeps the order coherently indefinite
    faint = make_config(visibility=0.01, control_amplitudes=amps)
    assert _audit_section(faint)["applicable"] is False


# A dephased switch whose face holds a line of order splits and no PSD one,
# so it is nonseparable. Its visibility is ten times above the eta <= 1e-4 of
# the search's known false separable verdicts (ROADMAP item 13)
NO_PSD_FACE_SPLIT = {
    "scenario": "custom",
    "u_a": "Z",
    "u_b": "I",
    "v0": "X",
    "v1": "I",
    "psi_t0": "1",
    "control_amplitudes": [np.sqrt(0.2), np.sqrt(0.8)],
    "visibility": 1e-3,
    "conditioning": None,
}


def test_dephased_switch_face_splits_are_not_psd():
    w = _scenario_process(ScenarioConfig.from_dict(NO_PSD_FACE_SPLIT).spec)[0]
    assert np.linalg.matrix_rank(w.matrix, tol=1e-12) == 2
    assert oracles.face_split_residual(w.matrix, w.layout) <= 1e-13
    assert oracles.face_split_margin(w.matrix, w.layout) < -1e-7
    # fully dephased, the same switch is a mixture of the two orders
    mixture = ScenarioConfig.from_dict({**NO_PSD_FACE_SPLIT, "visibility": 0.0})
    w = _scenario_process(mixture.spec)[0]
    assert oracles.face_split_margin(w.matrix, w.layout) >= -1e-12


def test_dephased_switch_is_not_reported_separable():
    rep = run_scenario(ScenarioConfig.from_dict(NO_PSD_FACE_SPLIT)).report
    assert rep["process"]["separability"]["verdict"] != "separable"


# Seeded custom configs whose W is real, so that its face splits form a
# point or a line, which oracles.face_split_margin handles: Y as a free
# evolution makes W complex and its faces planes. Every scenario W has rank
# <= 2, so its face decides the ground truth: with no split there W is
# nonseparable, and otherwise the sign of the best split's least eigenvalue
# decides (ROADMAP item 23)
REAL_CUSTOM_CONFIGS = st.fixed_dictionaries(
    {
        "scenario": st.just("custom"),
        **{key: st.sampled_from(sorted(set(NAMED_UNITARIES) - {"Y"})) for key in ("u_a", "u_b", "v0", "v1")},
        "psi_t0": st.sampled_from(sorted(NAMED_STATES)),
        "control_amplitudes": st.floats(0.05, 0.95).map(lambda p: [np.sqrt(p), np.sqrt(1.0 - p)]),
        "visibility": st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-6.0, 0.0).map(lambda e: 10.0**e)),
        "conditioning": st.sampled_from([None, {"basis": "plus_minus", "outcome": "+"}]),
    }
)


def verdict_and_face(config: dict) -> tuple[str, float | None, float]:
    """The run report's separability verdict, the best least eigenvalue of
    an order split on W's face (None when the face holds no split above
    W's rounding bound tau) and tau."""
    cfg = ScenarioConfig.from_dict(config)
    try:
        verdict = run_scenario(cfg).report["process"]["separability"]["verdict"]
    except ValueError as exc:
        # a conditioning outcome of probability zero leaves no report
        assert "conditioning outcome" in str(exc)
        reject()
    w = _scenario_process(cfg.spec)[0]
    if oracles.face_split_residual(w.matrix, w.layout) > w._rounding:
        return verdict, None, w._rounding
    return verdict, oracles.face_split_margin(w.matrix, w.layout), w._rounding


@settings(max_examples=20, deadline=None, derandomize=True)
@given(REAL_CUSTOM_CONFIGS)
def test_no_nonseparable_verdict_has_a_psd_face_split(config):
    verdict, margin, _ = verdict_and_face(config)
    if verdict == "nonseparable":
        assert margin is None or margin < 0.0, config


# The drawn configs alone, with no explicit example: a failing example would
# end the run before any draw. The dephased switch is pinned by
# test_dephased_switch_is_not_reported_separable
@settings(max_examples=20, deadline=None, derandomize=True, phases=(Phase.generate,))
@given(REAL_CUSTOM_CONFIGS)
def test_no_separable_verdict_has_a_face_margin_below_rounding(config):
    # every split is certified as it stands, so W's best face split is PSD
    # to rounding wherever the verdict is separable
    verdict, margin, tau = verdict_and_face(config)
    if verdict == "separable":
        assert margin is not None and margin >= -tau, config


def test_full_visibility_process_is_the_pure_switch():
    cfg = make_config()
    spec = cfg.spec
    w, construction, candidate = _scenario_process(spec)
    sw = spec.switch1
    pure = quantum_switch_process(
        spec.control_amplitudes, sw.target_dim, v0=sw.v0, v1=sw.v1, psi_t0=sw.psi_t0
    )
    assert np.array_equal(w.matrix, pure.matrix)
    assert construction == "coherent switch process (one target line)"
    assert candidate is None


def _comparison_configs() -> dict:
    """The run configs of tools/report_bytes.py, by name."""
    path = Path(__file__).resolve().parents[1] / "tools" / "report_bytes.py"
    spec = importlib.util.spec_from_file_location("report_bytes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RUN_CONFIGS


BUILD_CONFIGS = {
    **_comparison_configs(),
    **{
        f"coherent-visibility-{eta}": {"scenario": "double-switch-coherent", "visibility": eta}
        for eta in (0.0, 1e-3, 0.3, 1.0)
    },
}


@pytest.mark.parametrize("name", sorted(BUILD_CONFIGS))
def test_branch_vector_build_matches_the_three_process_build(name):
    spec = ScenarioConfig.from_dict(BUILD_CONFIGS[name]).spec
    w, _, candidate = _scenario_process(spec)
    want = oracles.scenario_process_parts(spec)
    got = (w.matrix, None, None) if candidate is None else (w.matrix, *(p.matrix for p in candidate[1:]))
    for part, ref in zip(got, want):
        assert (part is None) == (ref is None)
        assert part is None or np.array_equal(part, ref)


def test_no_temporally_local_model_note_needs_a5_and_no_passing_audit():
    configs = {**_comparison_configs(), **{name: {"scenario": name} for name in BUILTIN_SCENARIOS}}
    # a coherent superposition of two orders whose free evolutions differ
    configs["custom-v1-Z"] = {"scenario": "custom", "v1": "Z"}
    seen = set()
    for name, data in configs.items():
        cfg = ScenarioConfig.from_dict(data)
        rep = run_scenario(cfg).report
        audit, note = rep["temporal_locality"], rep["notes"][0]
        # A5 and the audit's lambda reading are read off what runs; each of
        # these configs names its free evolutions
        assert rep["assumptions"]["a5_satisfied"] == (cfg.echo["v0"] == cfg.echo["v1"]), name
        assert audit["mode"] == "strict", name
        above = rep["chsh"]["value"] > 2.0 + 1e-9
        seen.add((above, rep["assumptions"]["a5_satisfied"]))
        if "no temporally local model" in note:
            assert rep["assumptions"]["a5_satisfied"], name
            assert not (audit["applicable"] and audit["passed"]), name
        if above and not rep["assumptions"]["a5_satisfied"]:
            assert "A5 is not satisfied" in note, name
            # the note points to the section only where it holds a definite-order model
            assert ("temporal_locality" in note) == audit["applicable"], name
        if "see temporal_locality section" in note:
            assert audit["applicable"], name
        # the section the note points to must not claim what the note denies
        if "already rules out" in audit.get("reason", ""):
            assert rep["assumptions"]["a5_satisfied"], name
        if not audit["applicable"] and not rep["assumptions"]["a5_satisfied"]:
            assert "does not by itself rule out" in audit["reason"], name
        assert note.startswith("CHSH exceeds") == above, name
    # both notes above 2 are exercised
    assert {(True, True), (True, False)} <= seen


def test_branch_dependent_free_evolution_runs_without_a5():
    rep = run_scenario(ScenarioConfig.from_dict({"scenario": "custom", "v1": "Z"})).report
    assert rep["assumptions"]["a5_satisfied"] is False
    assert rep["chsh"]["value"] > 2.0 + 1e-9
    assert rep["notes"][0].startswith("CHSH exceeds the classical bound 2, but A5 is not satisfied")


@pytest.mark.parametrize("key", ["a5_satisfied", "audit_mode"])
def test_derived_labels_are_not_config_keys(key):
    for value in (True, False, "strict", "relaxed"):
        with pytest.raises(ConfigError, match=re.escape(f"unknown config keys: ['{key}']")):
            make_config(**{key: value})


def test_fixed_settings_path(monkeypatch):
    angles = [[[0.0, 0.0], [np.pi / 2, 0.0]], [[np.pi / 4, 0.0], [np.pi / 4, np.pi]]]
    original, calls = scenarios.behavior, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(scenarios, "behavior", counted)
    rep = run_scenario(make_config(settings=angles)).report
    assert len(calls) == 1  # one table serves CHSH and the causal verdict
    assert rep["chsh"]["settings"]["party1"][0] == [0.0, 0.0]
    assert rep["chsh"]["settings"]["party2"][1] == [np.pi / 4, np.pi]


def test_optimize_settings_path_builds_one_table(monkeypatch):
    calls = []

    def counting(module):
        original = module.behavior

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "behavior", counted)

    counting(bell)
    counting(scenarios)
    rep = scenarios._correlation_sections(make_config())
    assert len(calls) == 1  # the optimal settings' table serves CHSH and the causal verdict
    assert rep["chsh"]["value"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)


def test_seed_changes_are_echoed_not_physical():
    r1 = run_scenario(make_config(seed=1)).report
    r2 = run_scenario(make_config(seed=2)).report
    assert r1["seed"] != r2["seed"]
    # no stage draws random numbers: only the echoed seed differs
    unseeded = [{**r, "seed": 0, "scenario": {**r["scenario"], "seed": 0}} for r in (r1, r2)]
    assert unseeded[0] == unseeded[1]


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_header_and_rows():
    cfg = ScenarioConfig.from_dict({"scenario": "classical-order-baseline"})
    text = sweep(cfg, "q", [0.0, 0.5, 1.0])
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "param,S_opt,negativity,causal_verdict"
    assert len(lines) == 2 + 3
    assert lines[2].startswith("0.0,")
    for row in lines[2:]:
        s_opt = float(row.split(",")[1])
        assert s_opt <= 2.0 + 1e-9


def test_sweep_eta_dampens_violation():
    cfg = make_config()
    text = sweep(cfg, "eta", [1.0, 0.5])
    rows = text.strip().split("\n")[2:]
    s_full = float(rows[0].split(",")[1])
    s_half = float(rows[1].split(",")[1])
    assert s_full == pytest.approx(2 * np.sqrt(2), abs=1e-6)
    assert s_half == pytest.approx(np.sqrt(5), abs=1e-6)  # 2 sqrt(1 + eta^2)
    neg_half = float(rows[1].split(",")[2])
    assert neg_half == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize(
    "scenario, parameter, grid",
    [
        ("double-switch-coherent", "eta", [0.0, 0.5, 1.0]),
        ("classical-order-baseline", "q", [0.2, 0.8]),
    ],
)
def test_sweep_runs_only_the_correlation_stages(monkeypatch, scenario, parameter, grid):
    def no_separability(*args, **kwargs):
        raise AssertionError("sweep ran the separability search")

    cfg = ScenarioConfig.from_dict({"scenario": scenario})
    with monkeypatch.context() as m:
        m.setattr(scenarios, "separability_heuristic", no_separability)
        rows = sweep(cfg, parameter, grid).strip().split("\n")[2:]
    assert len(rows) == len(grid)
    key = "visibility" if parameter == "eta" else "mixture_q"
    for value, row in zip(grid, rows):
        rep = run_scenario(ScenarioConfig.from_dict({**cfg.echo, key: value})).report
        assert row.split(",") == [
            repr(value),
            repr(rep["chsh"]["value"]),
            repr(rep["states"]["negativity"]),
            rep["causal"]["verdict"],
        ]


def test_tracer_patches_only_names_the_scenarios_module_has():
    # perfbench/tracing.py swaps the names in its SCENARIO_LAYERS on
    # icolab.scenarios by getattr; a name missing there breaks a traced run.
    source = (Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text()
    layers = next(
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "SCENARIO_LAYERS" for t in node.targets)
    )
    names = [ast.literal_eval(key) for key in layers.keys]
    assert "run_scenario" in names and "separability_heuristic" in names
    assert [n for n in names if not hasattr(scenarios, n)] == []


def test_sweep_validation():
    cfg = make_config()
    with pytest.raises(ConfigError):
        sweep(cfg, "q", [0.5])  # q needs classical-mixture mode
    with pytest.raises(ConfigError):
        sweep(cfg, "eta", [])
    with pytest.raises(ConfigError):
        sweep(cfg, "theta", [0.5])


# ---------------------------------------------------------------------------
# CLI subprocess behavior


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "icolab.cli", *args],
        capture_output=True,
        timeout=600,
        **kw,
    )


@pytest.fixture()
def coherent_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "double-switch-coherent"}))
    return path


def test_cli_list():
    out = run_cli("list")
    assert out.returncode == 0
    assert "double-switch-coherent" in out.stdout.decode()


def test_cli_run_is_byte_identical(coherent_config, tmp_path):
    out_path = tmp_path / "report.json"
    r1 = run_cli("run", "--config", str(coherent_config), "--out", str(out_path))
    r2 = run_cli("run", "--config", str(coherent_config))
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert out_path.read_bytes() == r1.stdout
    assert "duration_s=" in r1.stderr.decode()
    rep = json.loads(r1.stdout)
    assert rep["schema"] == "icolab/run-report/v6"


def test_cli_run_bytes_do_not_depend_on_blas_threads(coherent_config):
    runs = [
        run_cli(
            "run",
            "--config",
            str(coherent_config),
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        for threads in ("1", "2")
    ]
    assert all(r.returncode == 0 for r in runs)
    assert len(runs[0].stdout) > 0
    assert runs[0].stdout == runs[1].stdout


def test_removed_run_knobs_exit_2(coherent_config, tmp_path):
    # the search cap and the audit tolerance are fixed, and no stage reads the seed
    for key, value in (("separability_iters", 20), ("tolerances", {"audit": 1e-10})):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"scenario": "double-switch-coherent", key: value}))
        out = run_cli("run", "--config", str(path))
        assert out.returncode == 2
        assert f"unknown config keys: ['{key}']" in out.stderr.decode()
    assert run_cli("run", "--config", str(coherent_config), "--seed", "3").returncode == 2


def test_cli_config_errors_exit_2(tmp_path, capsys):
    # the missing file goes through the module entry point; the malformed
    # configs run in process, through the same main
    missing = run_cli("run", "--config", str(tmp_path / "nope.json"))
    assert missing.returncode == 2
    assert missing.stderr.decode().startswith("error:") and "Traceback" not in missing.stderr.decode()
    coherent = {"scenario": "double-switch-coherent"}
    for key, config in (
        ("not valid JSON", b"{not json"),
        ("codec can't decode byte 0xff", b'{"scenario": "double-switch-coherent", "description": "\xff"}'),
        ("recursion depth", b"[" * 200_000),
        ("mystery", {"scenario": "mystery"}),
        ("conditioning.basis", {**coherent, "conditioning": {"basis": [None, 0], "outcome": "+"}}),
        ("control_amplitudes[0]", {**coherent, "control_amplitudes": [[None, 0], 0.7]}),
        ("control_amplitudes", {"scenario": "custom", "control_amplitudes": [1e200, 1e200]}),
        ("scenario", {"scenario": ["x"]}),
        ("out", {**coherent, "out": 7}),
        ("conditioning.outcom", {**coherent, "conditioning": {"outcome": "+", "outcom": "-"}}),
    ):
        path = tmp_path / "config.json"
        text = config if isinstance(config, bytes) else json.dumps(config).encode()
        path.write_bytes(text)
        assert cli.main(["run", "--config", str(path)]) == 2, text[:80]
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "Traceback" not in err, err
        assert key in err, (key, err)


def test_cli_unwritable_out_exits_2(coherent_config, tmp_path):
    bad = tmp_path / "missing" / "out"
    baseline = tmp_path / "mix.json"
    baseline.write_text(json.dumps({"scenario": "classical-order-baseline", "out": str(bad)}))
    for args in (
        ("run", "--config", str(coherent_config), "--out", str(bad)),
        ("run", "--config", str(baseline)),  # the config's out
        ("sweep", "--config", str(coherent_config), "--param", "eta", "--grid", "0.5", "--out", str(bad)),
    ):
        out = run_cli(*args)
        assert out.returncode == 2 and out.stdout == b"", args
        err = out.stderr.decode()
        assert err.startswith(f"error: cannot write {bad}") and "Traceback" not in err, err


def test_cli_numeric_failure_exits_3(tmp_path):
    # conditioning on an outcome of probability zero breaks the pipeline
    # downstream of config validation
    cfg = tmp_path / "zero.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": "double-switch-coherent",
                "order_mode": "definite-AB",
                "conditioning": {"basis": "computational", "outcome": "1"},
            }
        )
    )
    out = run_cli("run", "--config", str(cfg))
    assert out.returncode == 3
    assert out.stderr.decode().startswith("error")
    assert "outcome '1' has probability 0" in out.stderr.decode()


def test_cli_sweep(tmp_path):
    cfg = tmp_path / "mix.json"
    cfg.write_text(json.dumps({"scenario": "classical-order-baseline"}))
    out = run_cli("sweep", "--config", str(cfg), "--param", "q", "--grid", "0.2,0.8")
    assert out.returncode == 0
    lines = out.stdout.decode().strip().split("\n")
    assert lines[1] == "param,S_opt,negativity,causal_verdict"
    assert len(lines) == 4
    bad = run_cli("sweep", "--config", str(cfg), "--param", "q", "--grid", "a,b")
    assert bad.returncode == 2
    wrong = run_cli("sweep", "--config", str(cfg), "--param", "x", "--grid", "0.5")
    assert wrong.returncode == 2  # argparse rejects the choice


def test_import_does_not_load_scipy_optimize():
    # only causal_membership's LP needs scipy (scipy.optimize, which is slow
    # to import), and the tables of run and sweep never signal: run and sweep
    # load no scipy module at all
    runs = [
        "import icolab",
        *(
            f"icolab.run_scenario(icolab.ScenarioConfig.from_dict({{'scenario': {name!r}}}))"
            for name in BUILTIN_SCENARIOS
        ),
        "icolab.sweep(icolab.ScenarioConfig.from_dict({'scenario': 'double-switch-coherent'}),"
        " 'eta', [0.0, 0.5, 1.0])",
    ]
    for run in runs:
        code = f"import sys, icolab; {run}; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=600)
        assert out.returncode == 0, out.stderr.decode()
        assert out.stdout.decode().strip() == "False", run


def test_readme_api_quick_start_runs():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Quick start (API)", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=600)
    assert out.returncode == 0, out.stderr.decode()


def test_cli_usage_error(tmp_path):
    out = run_cli("run")  # --config required
    assert out.returncode == 2
