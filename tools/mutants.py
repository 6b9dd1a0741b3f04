"""Run a table of named mutants of icolab against the tier-1 tests that
should kill them.

Usage::

    python3 tools/mutants.py [--only NAME ...] [--list]

Each mutant in ``MUTANTS`` names a file of the checkout, an exact old text
that occurs once in it, the new text that replaces it, and the test modules
that must fail once it is applied. For each mutant the script copies
``src``, ``tests``, ``tools``, ``perfbench`` and ``pyproject.toml`` to a
temporary directory, applies the mutant there, and runs
``python -m pytest -x -q`` on the named modules with one BLAS thread. A
mutant is ``killed`` when pytest reports a failed test (the first one is
named), ``survived`` when every test passes, ``error`` for any other
pytest exit (a collection error, for example), and ``timeout`` when pytest
has not finished after ``TIMEOUT_S`` seconds (it is then killed), so that a
mutant which stalls a search cannot stall the table. The working tree is
never edited.

It prints one line per mutant (name, outcome, the killing test and the
seconds it took), then the total wall time, and exits 1 when a mutant
survived, errored or timed out. ``--list`` prints the table without running
it; ``tests/test_mutants.py`` checks only that every old text occurs
exactly once, so the table cannot go stale without notice.

A later change that adds a gate adds its row here.
"""
from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")
PROCESS = "src/icolab/process.py"
PROCESS_TESTS = ("tests/test_process.py",)
TIMEOUT_S = 300  # seconds one mutant's pytest run may take; unmutated, tests/test_process.py takes about 11 s


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the decomposition checker, _certified_stack and its structural checks
    Mutant(
        "decomposition: finiteness gate removed",
        PROCESS,
        "    if np.count_nonzero(np.isfinite(m)) != m.size:\n",
        "    if False:\n",
        PROCESS_TESTS,
    ),
    Mutant(
        "decomposition: Hermiticity gate at 4 HERMITICITY_ATOL",
        PROCESS,
        "not np.abs(skew).max() <= HERMITICITY_ATOL",
        "not np.abs(skew).max() <= 4.0 * HERMITICITY_ATOL",
        PROCESS_TESTS,
    ),
    Mutant(
        "decomposition: weight gate widened to [-1, 2]",
        PROCESS,
        "    if not 0.0 <= q <= 1.0:\n        return None\n    taus",
        "    if not -1.0 <= q <= 2.0:\n        return None\n    taus",
        PROCESS_TESTS,
    ),
    Mutant(
        "decomposition: positivity gate at 4 tau",
        PROCESS,
        "_cholesky_exists(own + np.array(taus)[:, None, None] * basis.eye)",
        "_cholesky_exists(own + 4.0 * np.array(taus)[:, None, None] * basis.eye)",
        PROCESS_TESTS,
    ),
    Mutant(
        "decomposition: trace gate at 4 tau",
        PROCESS,
        "if any(abs(t - d_o) > tau for t, tau in",
        "if any(abs(t - d_o) > 4.0 * tau for t, tau in",
        PROCESS_TESTS,
    ),
    Mutant(
        "decomposition: order-subspace gate at 4 tau",
        PROCESS,
        "if any(sqrt(x) > tau for x, tau in",
        "if any(sqrt(x) > 4.0 * tau for x, tau in",
        PROCESS_TESTS,
    ),
    Mutant(
        "decomposition: reconstruction gate at 4 tau(dim, 1)",
        PROCESS,
        "    if recon > rounding_bound(n, 1.0):\n",
        "    if recon > 4.0 * rounding_bound(n, 1.0):\n",
        PROCESS_TESTS,
    ),
    Mutant(
        "split: a dropped part's positivity gate at 4 tau",
        PROCESS,
        "_cholesky_exists(mats[~kept] + w._rounding * hs_basis(lay).eye)",
        "_cholesky_exists(mats[~kept] + 4.0 * w._rounding * hs_basis(lay).eye)",
        PROCESS_TESTS,
    ),
    # the witness checker, _certify_witness
    Mutant(
        "witness: finiteness of S unchecked",
        PROCESS,
        "    s = as_matrix(s)\n    value = _witness_value(w.matrix, s)\n",
        "    s = np.asarray(s, dtype=np.complex128)\n    value = _witness_value(w.matrix, s)\n",
        PROCESS_TESTS,
    ),
    Mutant(
        "witness: Hermiticity of S at 4 HERMITICITY_ATOL",
        PROCESS,
        "    if not _is_hermitian(s):\n",
        "    if not _is_hermitian(s, 4.0 * HERMITICITY_ATOL):\n",
        PROCESS_TESTS,
    ),
    Mutant(
        "witness: rounding allowance cut to a quarter",
        PROCESS,
        "    bound = -value / w.expected_trace - slack\n",
        "    bound = -value / w.expected_trace - 0.25 * slack\n",
        PROCESS_TESTS,
    ),
    Mutant(
        "witness: ||R_X|| cut to a quarter",
        PROCESS,
        "    delta = [bound - _frobenius(r) for r in inside]\n",
        "    delta = [bound - 0.25 * _frobenius(r) for r in inside]\n",
        PROCESS_TESTS,
    ),
    Mutant(
        "witness: delta_X allowed down to -1",
        PROCESS,
        "if all(x > 0.0 for x in delta) and",
        "if all(x > -1.0 for x in delta) and",
        PROCESS_TESTS,
    ),
    Mutant(
        "witness: positivity of P_X at 4 delta_X",
        PROCESS,
        "_cholesky_exists(parts + np.array(delta)[:, None, None] * basis.eye)",
        "_cholesky_exists(parts + 4.0 * np.array(delta)[:, None, None] * basis.eye)",
        PROCESS_TESTS,
    ),
    # the search: W's own start split is tested before any pencil is solved
    Mutant(
        "line: pencil before the start split",
        PROCESS,
        "    start = mats[:2] + 0.5 * mats[2]\n    if _positive_definite(start):\n",
        "    start = mats[:2] + 0.5 * mats[2]\n"
        "    try:\n"
        "        np.linalg.eigvalsh(-np.linalg.inv(np.linalg.cholesky(mats[2])) @ mats[:2])\n"
        "    except np.linalg.LinAlgError:\n"
        "        pass\n"
        "    if _positive_definite(start):\n",
        PROCESS_TESTS,
    ),
    # the validity gates, _validity_report
    Mutant(
        "validity: PSD margin gate at 4 tau",
        PROCESS,
        "ok = psd_margin >= -tau and",
        "ok = psd_margin >= -4.0 * tau and",
        PROCESS_TESTS,
    ),
    Mutant(
        "validity: trace gate at 4 tau",
        PROCESS,
        "and abs(trace_error) <= tau and",
        "and abs(trace_error) <= 4.0 * tau and",
        PROCESS_TESTS,
    ),
    Mutant(
        "validity: subspace residual gate at 4 tau",
        PROCESS,
        "and residual <= tau\n",
        "and residual <= 4.0 * tau\n",
        PROCESS_TESTS,
    ),
    # the search's cuts on W's face
    Mutant(
        "face: split cut at 4 tau",
        PROCESS,
        "    if rho <= w._rounding:\n",
        "    if rho <= 4.0 * w._rounding:\n",
        PROCESS_TESTS,
    ),
    Mutant(
        "search: rank cut at 4 tau",
        PROCESS,
        "deficient, pure = w._eigenvalues[0] <= rounding,",
        "deficient, pure = w._eigenvalues[0] <= 4.0 * rounding,",
        PROCESS_TESTS,
    ),
    # the per-layout frame of HSBasis, which the search and every checker read
    Mutant(
        "frame: shared mask is the AB mask",
        PROCESS,
        "        self.shared = a * b\n",
        "        self.shared = a\n",
        PROCESS_TESTS,
    ),
    Mutant(
        "frame: validity mask counts the shared terms twice",
        PROCESS,
        "        self.valid = a + b - self.shared\n",
        "        self.valid = a + b\n",
        PROCESS_TESTS,
    ),
    Mutant(
        "frame: complement stack with the orders swapped",
        PROCESS,
        "        self.off_orders = 1.0 - self.orders\n",
        "        self.off_orders = 1.0 - self.orders[::-1]\n",
        PROCESS_TESTS,
    ),
    Mutant(
        "frame: line stack with the AB-only and BA-only rows swapped",
        PROCESS,
        "np.stack((a - self.shared, b - self.shared, self.shared))",
        "np.stack((b - self.shared, a - self.shared, self.shared))",
        PROCESS_TESTS,
    ),
    Mutant(
        "frame: identity scaled by 4",
        PROCESS,
        "        self.eye = np.eye(layout.dim)\n",
        "        self.eye = 4.0 * np.eye(layout.dim)\n",
        PROCESS_TESTS,
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's old text occurs in its file under ``root``."""
    return (root / mutant.file).read_text().count(mutant.old)


def run(mutant: Mutant, workdir: Path) -> tuple[str, str, float]:
    """(outcome, killing test or pytest's last line, seconds) of one mutant
    applied to a fresh copy of the checkout in ``workdir``."""
    start = time.perf_counter()
    for name in COPIED:
        src, dest = ROOT / name, workdir / name
        if src.is_dir():
            shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__", "out"))
        else:
            shutil.copy2(src, dest)
    path = workdir / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(workdir / "src")}
    args = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
    try:
        done = subprocess.run(args, cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", f"no result after {TIMEOUT_S} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    lines = done.stdout.strip().splitlines() or [""]
    if done.returncode == 0:
        return "survived", lines[-1], seconds
    failed = next((m.group(1) for line in lines if (m := re.match(r"FAILED (\S+)", line))), None)
    if done.returncode == 1 and failed is not None:
        return "killed", failed, seconds
    return "error", lines[-1], seconds


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", metavar="NAME", help="run only the mutants with these names")
    parser.add_argument("--list", action="store_true", help="print the table and run nothing")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    if args.only and len(chosen) != len(set(args.only)):
        parser.error(f"unknown mutant among {args.only}")
    if args.list:
        for m in chosen:
            print(f"{m.name} | {m.file} | {' '.join(m.tests)}")
        return 0
    start, bad = time.perf_counter(), 0
    for m in chosen:
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            outcome, detail, seconds = run(m, Path(tmp))
        bad += outcome != "killed"
        print(f"{m.name} | {outcome} | {detail} | {seconds:.1f} s", flush=True)
    print(f"{len(chosen)} mutants, {len(chosen) - bad} killed, in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
