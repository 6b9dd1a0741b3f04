import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"
SPEC = importlib.util.spec_from_file_location("paired_bench", PATH)
paired_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(paired_bench)

METRICS = [
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def run(op_p50: float, ops: float, setup: float, failed: int = 0) -> dict:
    """A run's stdout as perfbench/run.py prints it with --trace 0 (a comment
    line with its environment, a metric line, the result line), parsed."""
    values = {"op_p50_s": op_p50, "ops_per_s": ops, "setup_s": setup}
    result = {"correct": failed == 0, "attempted": 100, "failed": failed}
    result["metrics"] = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    env = json.dumps({"nproc": 2, "numpy": "2.4.6"})
    return paired_bench.parse_run(f"# process-family seed=1 env={env}\nsetup_s {setup}\n{json.dumps(result)}\n")


def fake_runs() -> dict[str, list[dict]]:
    """Ten pairs: the change is 10% faster per op in every pair and does 5%
    more ops per second in 9 of them, and ``setup_s`` spreads widely at the
    parent."""
    parent_op = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    parent_ops = [100.0, 101.0, 99.0, 100.5, 99.5, 102.0, 98.0, 100.0, 101.0, 99.0]
    change_ops = [ops * 1.05 for ops in parent_ops]
    change_ops[3] = 100.0  # a lost pair
    parent_setup = [0.05, 0.08, 0.06, 0.09, 0.05, 0.07, 0.10, 0.06, 0.08, 0.05]
    return {
        "parent": [run(*row) for row in zip(parent_op, parent_ops, parent_setup)],
        "change": [run(0.9 * op, ops, 0.07) for op, ops in zip(parent_op, change_ops)],
    }


def test_medians_quartiles_wins_and_verdicts_on_fixed_runs():
    failed = run(1e-3, 900.0, 0.1, failed=2)
    assert (failed["correct"], failed["failed"], failed["environment"]["nproc"]) == (False, 2, 2)
    summary = paired_bench.summarize(fake_runs(), METRICS)
    op = summary["op_p50_s"]
    assert op["parent"] == {"median": 1.0, "q1": pytest.approx(0.9825), "q3": pytest.approx(1.0175)}
    assert op["change"]["median"] == pytest.approx(0.9)
    assert (op["wins"], op["pairs"], op["verdict"]) == (10, 10, "gain") and op["relative"] == pytest.approx(-0.1)
    ops = summary["ops_per_s"]
    # the change wins 9 of 10 pairs, and its median exceeds the parent's by more than the spread
    assert ops["wins"] == 9 and ops["difference"] > ops["parent_spread"] and ops["verdict"] == "gain"
    setup = summary["setup_s"]
    # 7.7% slower in the median, within the 25% bound, but the parent's own
    # quartiles span 0.0525 to 0.08, 42% of its median: unresolved
    assert setup["relative"] == pytest.approx(0.07 / 0.065 - 1.0)
    assert setup["parent_spread"] == pytest.approx(0.0275) and setup["verdict"] == "unresolved"


def test_a_worse_median_is_a_regression_and_a_wide_spread_resolves_only_when_every_run_is_better():
    runs = fake_runs()
    for change in runs["change"]:
        change["metrics"]["op_p50_s"]["value"] *= 1.5  # 35% worse than the parent: beyond the 20% bound
        change["metrics"]["setup_s"]["value"] = 0.04
    summary = paired_bench.summarize(runs, METRICS)
    assert summary["op_p50_s"]["verdict"] == "regression"
    # every change run is below every parent run, so the parent's wide
    # spread leaves the verdict resolved; the difference (0.025) is within
    # that spread (0.0275), so it is no gain
    assert summary["setup_s"]["wins"] == 10 and summary["setup_s"]["verdict"] == "within bound"
    line = paired_bench.format_summary(summary)[0]
    assert line.startswith("op_p50_s 1 (0.9825-") and " -> 1.35 (" in line and "better in 0/10" in line
    assert line.endswith(": regression")


def test_append_adds_a_row_and_keeps_the_bytes_of_earlier_rows(tmp_path):
    path = tmp_path / "BENCH_process-family.json"
    for commit in "abc":
        before = path.read_text()[: -len("\n]\n")] if path.exists() else ""
        paired_bench.append_row(path, {"commit": commit, "series": [1, 2]})
        assert path.read_text().startswith(before)
    assert [row["commit"] for row in json.loads(path.read_text())] == ["a", "b", "c"]
    path.write_text('{"commit": "a"}\n')
    with pytest.raises(ValueError):
        paired_bench.append_row(path, {"commit": "d"})


def completed(returncode: int, stdout: str = "", stderr: str = ""):
    return paired_bench.subprocess.CompletedProcess([], returncode, stdout, stderr)


def test_a_failed_run_is_recorded_and_the_series_goes_on(monkeypatch, capsys):
    # a crash (exit 1) and a run whose last line is no result keep their
    # exit code and stderr tail and are left out of the medians and of the
    # pairs compared; the other runs still give a summary, and main finishes
    # every series, then names the failures and exits 1
    names = [m["name"] for m in json.loads((paired_bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    values = {"parent": [1.00, None, 0.98, 1.01], "change": [0.90, 0.91, None, 0.92]}
    crash = completed(1, stderr="Traceback (most recent call last):\nMemoryError\n")
    calls = {"parent": 0, "change": 0}

    def fake(tree, workload, seed, seconds):
        side = "change" if tree == paired_bench.ROOT else "parent"
        calls[side] += 1
        value = values[side][calls[side] - 1]
        if value is None:
            return crash if side == "parent" else completed(0, stdout="# no result line\nsetup_s 0.1\n")
        metrics = {name: {"value": value, "unit": "s"} for name in names}
        result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
        return completed(0, stdout=f"# {workload} seed={seed} env={json.dumps({'nproc': 2})}\n{json.dumps(result)}\n")

    trees = {"parent": Path("parent"), "change": paired_bench.ROOT}
    record, environment = paired_bench.measure(fake, trees, "process-family", 1, 4, 20.0, METRICS)
    runs = record["runs"]
    assert runs["parent"][1] == {"error": {"returncode": 1, "stderr_tail": crash.stderr.splitlines()}}
    assert runs["change"][2] == {"error": {"returncode": 0, "stderr_tail": []}}
    assert environment == {"nproc": 2} and not any("environment" in run for side in runs.values() for run in side)
    op = record["summary"]["op_p50_s"]
    # each side's median of its three results; two complete pairs, both won
    assert (op["parent"]["median"], op["change"]["median"]) == (1.00, 0.91)
    assert (op["wins"], op["pairs"], op["verdict"]) == (2, 4, "within bound")
    out = capsys.readouterr().out
    assert "pair 2 parent: run failed with exit code 1: Traceback (most recent call last): / MemoryError" in out
    assert "pair 3 change: run failed with exit code 0: (no stderr)" in out

    calls.update(parent=0, change=0)
    monkeypatch.setattr(paired_bench, "_export", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(paired_bench, "_run", fake)
    argv = ["--parent", "HEAD", "--workload", "process-family", "--seed", "1", "--seed", "2", "--pairs", "2"]
    assert paired_bench.main(argv) == 1
    captured = capsys.readouterr()
    # seed 2 still runs after seed 1's failed pair
    assert calls == {"parent": 4, "change": 4} and "== process-family seed 2" in captured.out
    assert captured.err.splitlines() == ["failed run: seed 1, pair 2, parent", "failed run: seed 2, pair 1, change"]


def test_a_change_that_fails_more_ops_gets_no_gain():
    # the change is 10% faster per op in every pair, but one of its runs
    # fails 2 of its 100 ops: its failed-op share, 0.002 against the
    # parent's 0, withholds the gain
    runs = fake_runs()
    runs["change"][4] = run(0.9 * 0.99, 99.5 * 1.05, 0.07, failed=2)
    summary = paired_bench.summarize(runs, METRICS)
    op = summary["op_p50_s"]
    assert (op["wins"], op["difference"] < -op["parent_spread"]) == (10, True)
    assert op["failed_share"] == {"parent": 0.0, "change": pytest.approx(0.002)}
    assert op["verdict"] == "within bound" and summary["ops_per_s"]["verdict"] == "within bound"
    assert "failed-op share 0 -> 0.002: within bound" in paired_bench.format_summary(summary)[0]
    # the same runs with no failure are a gain, as in the fixed runs above
    runs["change"][4] = run(0.9 * 0.99, 99.5 * 1.05, 0.07)
    assert paired_bench.summarize(runs, METRICS)["op_p50_s"]["verdict"] == "gain"


def test_a_row_reads_uncommitted_changes_to_the_run_paths_before_the_runs(monkeypatch, tmp_path, capsys):
    # git is faked: status names a changed file under src before the runs and
    # a second one after them; the row keeps the first reading, marks that it
    # moved, and stderr says so. A status of paths the runs do not read is
    # never asked for
    names = [m["name"] for m in json.loads((paired_bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    statuses, asked = iter([" M src/icolab/process.py", " M src/icolab/process.py\n M perfbench/run.py"]), []

    def git(*args):
        asked.append(args)
        if args[0] == "status":
            assert args == ("status", "--porcelain", "--", *paired_bench.RUN_PATHS)
            return next(statuses)
        assert args == ("rev-parse", "HEAD")
        return "1" * 40

    def fake(tree, workload, seed, seconds):
        metrics = {name: {"value": 1.0, "unit": "s"} for name in names}
        result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
        assert [args[0] for args in asked] == ["status"]  # read before the first run
        return completed(0, stdout=f"{json.dumps(result)}\n")

    monkeypatch.setattr(paired_bench, "_git", git)
    monkeypatch.setattr(paired_bench, "_export", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(paired_bench, "_run", fake)
    path = tmp_path / "BENCH_process-family.json"
    argv = ["--parent", "HEAD", "--workload", "process-family", "--seed", "1", "--pairs", "2", "--append", str(path)]
    assert paired_bench.main(argv) == 0
    assert paired_bench.RUN_PATHS == ("src", "perfbench", "tests/oracles.py", "BENCHMARK.json")
    (row,) = json.loads(path.read_text())
    assert (row["commit"], row["uncommitted_changes"], row["uncommitted_changes_moved"]) == ("1" * 40, True, True)
    assert capsys.readouterr().err.splitlines() == [
        "the uncommitted changes to src, perfbench, tests/oracles.py, BENCHMARK.json moved during the runs"
    ]
    # unchanged before and after: no line on stderr, and the row says so
    statuses = iter(["", ""])
    asked.clear()
    assert paired_bench.main(argv) == 0
    assert [row["uncommitted_changes_moved"] for row in json.loads(path.read_text())] == [True, False]
    assert json.loads(path.read_text())[1]["uncommitted_changes"] is False
    assert capsys.readouterr().err == ""
