"""icolab benchmark: one workload, one closed-loop client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload run-builtins --seed 1 --seconds 20 --trace 0

Workloads are listed in BENCHMARK.json and defined in workloads.py. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` every other pass over the inputs runs traced and the
line carries the per-layer metrics instead. Times are scaled to a reference
speed (see harness.py and README.md). Full results, the environment record
and (traced) the spans go to perfbench/out/.

BLAS is pinned to one thread here, before anything imports numpy.
"""
from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("run-builtins", "sweep-eta", "switch-family", "process-family")
SETUP_PROBES = 5


def _paths_ok() -> bool:
    return (ROOT / "src" / "icolab" / "__init__.py").is_file() and (
        ROOT / "tests" / "oracles.py"
    ).is_file()


def setup(workload: str, seed: int):
    """Import icolab (with numpy and scipy) and build the workload's inputs.
    Returns (seconds, workload class, inputs)."""
    start = perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    w = workloads.WORKLOADS[workload]
    inputs = w.make_inputs(seed)
    return perf_counter() - start, w, inputs


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time measured in a fresh interpreter, as a CLI user pays it:
    (wall seconds, seconds at the reference speed around the probe)."""
    from harness import REFERENCE_S, reference_time

    ref_before = reference_time()
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    wall = float(done.stdout.strip().splitlines()[-1])
    ref = (ref_before + reference_time()) / 2.0
    return wall, wall * REFERENCE_S / ref


def environment(load_start: tuple[float, float, float]) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not _paths_ok():
        print(f"error: no icolab sources and oracles under {ROOT}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    own_setup, workload, inputs = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(own_setup))
        return 0

    sys.path.insert(0, str(ROOT / "tests"))
    import harness
    import tracing
    from workloads import plain_api

    probes = []
    if not args.trace:
        probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    tracer = tracing.Tracer() if args.trace else None
    sample = harness.measure(workload, inputs, plain_api(), args.seconds, tracer)
    e2e = harness.end_to_end(sample)
    if probes:
        e2e["setup_s"] = statistics.median(p[1] for p in probes)
        e2e["wall_setup_s"] = statistics.median(p[0] for p in probes)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = statistics.median(sample.times(traced=True)) - e2e["op_p50_s"]
        layers.update(tracing.kernel_metrics())
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "own_setup_s": own_setup,
        "setup_probes_s": probes,
        "end_to_end": e2e,
        "metrics": metrics,
        "attempted": sample.attempted,
        "failed": sample.failed,
        "errors": sample.errors,
        "ops": sample.ops,
        "environment": environment(load_start),
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))

    for msg in sample.errors:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} ops={sample.attempted} failed={sample.failed}"
          f" tail=p{e2e['op_tail_pct']:.1f} env={json.dumps(record['environment'])}")
    for name in ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "fail_frac", "peak_rss_mb"):
        if name not in e2e:
            continue
        wall = e2e.get(f"wall_{name}")
        note = f"   (wall {wall:.6g})" if wall is not None else ""
        print(f"{name:36s} {e2e[name]:.6g} {units.get(name, 'ratio')}{note}")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:36s} {value:.6g} {units[name]}")
    result = {
        "correct": sample.failed == 0,
        "attempted": sample.attempted,
        "failed": sample.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
