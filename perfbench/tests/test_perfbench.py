"""Tests of the benchmark itself: metric names, failure counting, seeding,
span arithmetic and the separability counts of the built-in presets.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import harness
import tracing
import workloads
from workloads import plain_api

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    done = _run("--workload", "process-family", "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert list(result["metrics"]) == list(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], float)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_every_computed_layer_metric_is_declared():
    spans = [
        {"id": 0, "name": "op", "parent": None, "start": 0.0, "end": 1.0},
        {"id": 1, "name": "process.separability", "parent": 0, "start": 0.1, "end": 0.9,
         "iterations": 10, "certified": True},
    ]
    computed = set(tracing.layer_metrics(spans)) | {"trace.overhead_s"}
    computed |= set(tracing.kernel_metrics(repeats=1))
    assert computed == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-eta", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _first(pool, kind):
    return next(inp for inp in pool if inp["kind"] == kind)


def test_injected_wrong_certificate_is_counted():
    inp = _first(workloads.ProcessFamily.make_inputs(5), "ordered-mixture")
    honest = harness.measure(workloads.ProcessFamily, [inp], plain_api(), 0.0)
    assert (honest.attempted, honest.failed) == (1, 0)

    def shifted_weight(w):
        rep = plain_api().separability_heuristic(w)
        q, w_ab, w_ba = rep.certificate
        return replace(rep, certificate=(q + 0.05, w_ab, w_ba))

    api = SimpleNamespace(**{**vars(plain_api()), "separability_heuristic": shifted_weight})
    sample = harness.measure(workloads.ProcessFamily, [inp], api, 0.0)
    assert (sample.attempted, sample.failed) == (1, 1)
    assert "reconstructs" in sample.errors[0]
    assert harness.end_to_end(sample)["fail_frac"] == 1.0


def test_injected_wrong_negativity_is_counted():
    pool = workloads.SwitchFamily.make_inputs(5)[:10]
    api = plain_api()
    inp = next(i for i in pool if _succeeds(workloads.SwitchFamily.op, api, i))
    wrong = SimpleNamespace(**{**vars(api), "target_entanglement": lambda rho, dims: api.target_entanglement(rho, dims) + 1e-6})
    sample = harness.measure(workloads.SwitchFamily, [inp], wrong, 0.0)
    assert sample.failed == 1 and "negativity" in sample.errors[0]


def _succeeds(op, api, inp) -> bool:
    try:
        op(api, inp)
    except RuntimeError:
        return False
    return True


def test_raised_op_is_counted():
    def broken_sweep(cfg, parameter, grid):
        raise RuntimeError("injected")

    api = SimpleNamespace(**{**vars(plain_api()), "sweep": broken_sweep})
    sample = harness.measure(workloads.SweepEta, workloads.SweepEta.make_inputs(2)[:1], api, 0.0)
    assert (sample.attempted, sample.failed) == (1, 1)
    assert "injected" in sample.errors[0]


def test_repeat_that_differs_from_first_output_fails():
    outputs = iter(["first", "second"])
    checked = []

    def op(api, inp):
        time.sleep(0.01)
        return next(outputs)

    fake = SimpleNamespace(name="fake", op=op)
    # two passes: the first ends after 0.01 s, under the 0.015 s budget
    sample = harness.measure(fake, ["same input"], None, 0.015, check=lambda i, out: checked.append(out))
    assert checked == ["first"]
    assert (sample.attempted, sample.failed) == (2, 1)
    assert "differs" in sample.errors[0]


@pytest.mark.parametrize("name", ["sweep-eta", "switch-family", "process-family"])
def test_inputs_come_from_the_seed(name):
    w = workloads.WORKLOADS[name]
    fp = lambda pool: [harness.fingerprint(_inputs_only(x)) for x in pool]  # noqa: E731
    assert fp(w.make_inputs(11)) == fp(w.make_inputs(11))
    assert fp(w.make_inputs(11)) != fp(w.make_inputs(12))


def _inputs_only(inp):
    if isinstance(inp, tuple):
        return inp[1]
    return {k: v for k, v in inp.items() if k not in ("spec", "measurement")}


@pytest.mark.parametrize("name", ["sweep-eta", "switch-family", "process-family"])
def test_same_input_gives_same_output(name):
    w = workloads.WORKLOADS[name]
    inp = w.make_inputs(4)[1]
    api = plain_api()
    assert harness.fingerprint(w.op(api, inp)) == harness.fingerprint(w.op(api, inp))


def test_end_to_end_reports_reference_speed_and_wall_time():
    sample = harness.Sample(
        ops=[(0, 2.0, 1.0, False), (1, 4.0, 2.0, False), (0, 9.0, 9.0, True)], attempted=3, failed=1
    )
    e2e = harness.end_to_end(sample)
    assert (e2e["op_p50_s"], e2e["wall_op_p50_s"]) == (1.5, 3.0)
    assert e2e["ops_per_s"] == pytest.approx((2 / 3) / 1.5)
    assert e2e["fail_frac"] == pytest.approx(1 / 3)
    assert sample.times(traced=True) == [9.0]


def test_probe_time_inside_an_op_is_removed_and_scales_it():
    ref = harness.REFERENCE_S
    # 1.0 s elapsed, two probes of 2*ref inside it, machine at half speed
    wall, scaled = harness._at_reference_speed(1.0, [2 * ref] * 4, inside=2)
    assert wall == pytest.approx(1.0 - 4 * ref)
    assert scaled == pytest.approx(wall / 2)


def test_tail_is_above_the_median_with_ten_ops_beyond():
    times = [float(t) for t in range(100)]
    assert harness.tail(times) == (89.0, 90.0)
    assert harness.tail(times[:15]) == (14.0, 100.0)


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "op", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "scenarios.self", "parent": 0, "start": 0.0, "end": 9.0},
        {"id": 2, "name": "process.separability", "parent": 1, "start": 1.0, "end": 7.0,
         "iterations": 3, "certified": False},
        {"id": 3, "name": "causal.audit", "parent": 1, "start": 7.0, "end": 8.0, "audit_cells": 5},
    ]
    m = tracing.layer_metrics(spans)
    assert m["scenarios.self_s"] == pytest.approx(2.0)
    assert m["process.separability_share"] == pytest.approx(0.6)
    assert m["process.separability_s_per_iter"] == pytest.approx(2.0)
    assert m["causal.audit_cells"] == 5
    assert m["trace.coverage"] == pytest.approx(0.9)


def test_builtin_separability_iterations_and_trace_attribution():
    tracer = tracing.Tracer()
    api = tracer.api()
    inputs = workloads.RunBuiltins.make_inputs(1)
    for i, inp in enumerate(inputs):
        with tracer.op(i):
            workloads.RunBuiltins.op(api, inp)
    seps = [s for s in tracer.spans if s["name"] == "process.separability"]
    assert [s["iterations"] for s in seps] == [145, 614, 399]
    assert [s["certified"] for s in seps] == [False, True, True]
    assert tracing.layer_metrics(tracer.spans)["process.separability_share"] >= 0.9
    # tracing leaves the scenarios module as it found it
    from icolab import scenarios

    assert scenarios.separability_heuristic is workloads.process.separability_heuristic


def test_switch_family_trace_has_no_process_time():
    tracer = tracing.Tracer()
    api = tracer.api()
    for i, inp in enumerate(workloads.SwitchFamily.make_inputs(1)[:5]):
        with tracer.op(i):
            try:
                workloads.SwitchFamily.op(api, inp)
            except RuntimeError:
                pass
    m = tracing.layer_metrics(tracer.spans)
    assert all(m[f"process.{x}_s"] == 0.0 for x in ("build", "validity", "separability"))
    assert m["causal.lp_s"] > 0.0 and m["bell.optimize_chsh_s"] > 0.0


KNOWN_LP_DEFECT = pytest.mark.xfail(
    raises=RuntimeError,
    strict=True,
    reason="causal_membership re-validates its LP solution at 1e-8, tighter than HiGHS "
    "meets the equality rows on near-deterministic behaviors",
)


@KNOWN_LP_DEFECT
def test_switch_family_input_that_fails_at_this_commit():
    inp = workloads.SwitchFamily.make_inputs(1)[50]
    out = workloads.SwitchFamily.op(plain_api(), inp)
    checks.check_switch_family(inp, out)


@KNOWN_LP_DEFECT
def test_sweep_point_that_fails_at_this_commit():
    cfg = workloads.scenarios.ScenarioConfig.from_dict({"scenario": "double-switch-coherent", "seed": 1})
    out = workloads.SweepEta.op(plain_api(), (cfg, 0.002))
    checks.check_sweep_eta((cfg, 0.002), out)

