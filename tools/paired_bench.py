"""Run the benchmark on a parent revision and on the working tree in
alternating pairs, and compare each end-to-end metric.

Usage::

    python3 tools/paired_bench.py --parent REV --workload WORKLOAD --seed N [--seed M ...]
        [--pairs 10] [--append BENCH_<workload>.json]

The script exports ``REV``'s tree (``git archive``) to a temporary directory
and runs ``perfbench/run.py --trace 0`` there and in the working tree, for
``BENCHMARK.json``'s ``run_seconds`` each, alternately: the parent first in
odd pairs, the working tree first in even ones. ``perfbench/run.py`` reads
the ``src`` beside it, so each side runs its own code under its own
benchmark files. Each run's last stdout line is its
result (``correct``, ``attempted``, ``failed`` and the metrics of
``BENCHMARK.json``'s ``end_to_end`` list).

For each seed and metric it prints the parent's and the working tree's
medians and quartiles, the relative change of the medians, the pairs in which
the working tree is better (ties count for neither side), the difference of
the medians against the parent's quartile spread, and a verdict:

- ``regression``: the working tree's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
- ``unresolved``: the parent's own quartile spread, relative to its median,
  exceeds the bound, and not every working-tree run is better than every
  parent run;
- ``gain``: the working tree is better in at least nine pairs out of ten,
  the medians differ by more than the parent's quartile spread, and the
  working tree's failed-op share is no higher than the parent's;
- ``within bound`` otherwise.

Each side's failed-op share (its runs' ``failed`` ops over their
``attempted`` ops) is printed on every metric's line and kept in the
summary, since a gain does not count when more ops fail. It also prints
``correct`` and ``failed`` for every run. A run that exits
non-zero, or whose last stdout line is not a result, is recorded with its
exit code and the tail of its stderr under ``error`` and left out of the
medians and of the pairs compared (a pair it leaves incomplete counts as no
win); the series goes on, the failure is printed, and the script exits 1
once every series is done. ``--append FILE``
adds one row to the JSON list in ``FILE`` (created if missing): the working
tree's commit and whether it had uncommitted changes, the parent, the date,
the environment (``nproc``, load average, Python, numpy and scipy versions
and BLAS, as the first working-tree run recorded them) and, per seed, every
run and the summary. The rows before it keep their bytes. The uncommitted
changes are ``git status`` of ``RUN_PATHS`` alone, the files the runs read,
taken before the first run; when a second reading after the last run
differs, the script says so on stderr, and the row records it under
``uncommitted_changes_moved``.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
RUN_PATHS = ("src", "perfbench", "tests/oracles.py", "BENCHMARK.json")  # what a benchmark run reads


def parse_run(stdout: str) -> dict:
    """A run's result (its last stdout line, JSON) with the environment its
    ``# ... env={...}`` line records, under ``environment``."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((m.group(1) for line in lines if (m := re.search(r" env=(\{.*\})$", line))), None)
    result["environment"] = json.loads(env) if env else {}
    return result


def result_of(done: subprocess.CompletedProcess) -> dict:
    """The result of one finished run (:func:`parse_run`), or, when it exited
    non-zero or its last stdout line is not a result, ``{"error": ...}`` with
    its exit code and the last lines of its stderr."""
    if done.returncode == 0:
        try:
            result = parse_run(done.stdout)
            if isinstance(result.get("metrics"), dict):
                return result
        except (ValueError, IndexError, TypeError, AttributeError):  # a JSONDecodeError is a ValueError
            pass
    tail = (done.stderr or "").strip().splitlines()[-5:]
    return {"error": {"returncode": done.returncode, "stderr_tail": tail}}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: dict[str, list[dict]], spec: list[dict]) -> dict[str, dict]:
    """Per end-to-end metric of ``spec`` (BENCHMARK.json's ``end_to_end``):
    both sides' median and quartiles and failed-op share, the pairs the
    change wins, and the verdict described in the module docstring. ``runs``
    holds each side's results in pair order; failed runs (``error``) are left
    out, and each side needs two results."""
    out = {}
    pairs = len(runs["parent"])
    good = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if "error" not in p and "error" not in c]
    failed_share = {}
    for side in SIDES:
        done = [run for run in runs[side] if "error" not in run]
        failed_share[side] = sum(run["failed"] for run in done) / max(1, sum(run["attempted"] for run in done))
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [run["metrics"][name]["value"] for run in runs[side] if "error" not in run] for side in SIDES}
        (p1, pm, p3), (c1, cm, c3) = (_quartiles(values[side]) for side in SIDES)
        sign = -1.0 if lower else 1.0
        wins = sum(sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0.0 for p, c in good)
        worse = -sign * (cm - pm) / pm
        spread = (p3 - p1) / pm
        all_better = min(sign * c for c in values["change"]) > max(sign * p for p in values["parent"])
        if worse > metric["bound"]:
            verdict = "regression"
        elif spread > metric["bound"] and not all_better:
            verdict = "unresolved"
        elif wins >= 0.9 * pairs and sign * (cm - pm) > p3 - p1 and failed_share["change"] <= failed_share["parent"]:
            verdict = "gain"
        else:
            verdict = "within bound"
        out[name] = {
            "unit": metric["unit"],
            "parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "relative": (cm - pm) / pm,
            "wins": wins,
            "pairs": pairs,
            "difference": cm - pm,
            "parent_spread": p3 - p1,
            "failed_share": failed_share,
            "verdict": verdict,
        }
    return out


def format_summary(summary: dict[str, dict]) -> list[str]:
    """One line per metric: parent median (quartiles) -> change median
    (quartiles), relative change, pairs won, difference against the parent's
    spread, both sides' failed-op shares and the verdict."""
    lines = []
    for name, s in summary.items():
        p, c, f = s["parent"], s["change"], s["failed_share"]
        lines.append(
            f"{name} {p['median']:.4g} ({p['q1']:.4g}-{p['q3']:.4g}) -> {c['median']:.4g}"
            f" ({c['q1']:.4g}-{c['q3']:.4g}) {s['unit']}, {100.0 * s['relative']:+.1f}%,"
            f" better in {s['wins']}/{s['pairs']}, difference {s['difference']:.3g}"
            f" against a parent spread of {s['parent_spread']:.3g},"
            f" failed-op share {f['parent']:.3g} -> {f['change']:.3g}: {s['verdict']}"
        )
    return lines


def append_row(path: Path, row: dict) -> None:
    """Add ``row`` to the JSON list in ``path``, leaving the bytes of the rows
    before it as they are."""
    text = json.dumps(row, indent=1, sort_keys=True)
    if not path.exists():
        path.write_text(f"[\n{text}\n]\n")
        return
    old = path.read_text()
    if not isinstance(json.loads(old), list) or not old.endswith("\n]\n"):
        raise ValueError(f"{path} is not a list this script wrote")
    head = old[: -len("]\n")].rstrip("\n")
    path.write_text(f"{head}{',' if head != '[' else ''}\n{text}\n]\n")


def _export(rev: str, dest: Path) -> str:
    """Extract ``rev``'s tree into ``dest``; return its full commit id."""
    commit = _git("rev-parse", f"{rev}^{{commit}}")
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def _uncommitted() -> str:
    """``git status --porcelain`` of ``RUN_PATHS``: empty when the files the
    runs read are the commit's."""
    return _git("status", "--porcelain", "--", *RUN_PATHS)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> subprocess.CompletedProcess:
    args = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    args += ["--seconds", str(seconds), "--trace", "0"]
    return subprocess.run(args, cwd=tree, capture_output=True, text=True)


def measure(
    run, trees: dict[str, Path], workload: str, seed: int, pairs: int, seconds: float, spec: list[dict]
) -> tuple[dict, dict]:
    """One series: ``pairs`` alternating pairs of ``run`` (:func:`_run`'s
    signature; the parent first in odd pairs), each run's line printed as it
    ends. Returns the series record (seed, the runs without their
    environment, and the summary, or None when a side has fewer than two
    results) and the first change run's environment."""
    runs, environment = {side: [] for side in SIDES}, {}
    for pair in range(1, pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            result = result_of(run(trees[side], workload, seed, seconds))
            runs[side].append(result)
            if "error" in result:
                err = result["error"]
                print(f"seed {seed} pair {pair} {side}: run failed with exit code {err['returncode']}:"
                      f" {' / '.join(err['stderr_tail']) or '(no stderr)'}", flush=True)
                continue
            environment = environment or (result["environment"] if side == "change" else {})
            print(f"seed {seed} pair {pair} {side}: correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}", flush=True)
    summary = None
    if all(sum("error" not in r for r in runs[side]) >= 2 for side in SIDES):
        summary = summarize(runs, spec)
        print(f"== {workload} seed {seed}, {pairs} pairs of {seconds:g} s")
        print("\n".join(format_summary(summary)), flush=True)
    else:
        print(f"== {workload} seed {seed}: fewer than two results on a side, no summary", flush=True)
    for side in SIDES:
        for result in runs[side]:
            result.pop("environment", None)
    return {"seed": seed, "runs": runs, "summary": summary}, environment


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--append", type=Path, help="BENCH_<workload>.json to add a row to")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec, seconds = bench["end_to_end"], bench["run_seconds"]
    load_start = os.getloadavg()
    uncommitted = _uncommitted() if args.append is not None else ""
    series, environment = [], {}
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        parent = _export(args.parent, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        for seed in args.seed:
            record, env = measure(_run, trees, args.workload, seed, args.pairs, seconds, spec)
            series.append(record)
            environment = environment or env
    failures = [(r["seed"], side, k + 1) for r in series for side in SIDES
                for k, run in enumerate(r["runs"][side]) if "error" in run]
    if args.append is not None:
        moved = _uncommitted() != uncommitted
        if moved:
            print(f"the uncommitted changes to {', '.join(RUN_PATHS)} moved during the runs", file=sys.stderr)
        row = {
            "commit": _git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(uncommitted),
            "uncommitted_changes_moved": moved,
            "parent": parent,
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "workload": args.workload,
            "pairs": args.pairs,
            "seconds": seconds,
            "environment": {**environment, "loadavg_driver_start": list(load_start),
                            "loadavg_driver_end": list(os.getloadavg())},
            "series": series,
        }
        append_row(args.append, row)
    for seed, side, pair in failures:
        print(f"failed run: seed {seed}, pair {pair}, {side}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
