"""Write the bytes of icolab's user-visible outputs on fixed configs to one file.

Usage::

    python3 tools/report_bytes.py SRC_DIR OUT

``SRC_DIR`` is the directory that holds the ``icolab`` package (a checkout's
``src``). The script runs that package's CLI with BLAS pinned to one thread
(``OPENBLAS_NUM_THREADS=1``): ``icolab run`` on the 15 comparison configs
below and ``icolab sweep`` over ``eta`` on the coherent preset and over ``q``
on the baseline. ``OUT`` gets, for each command, a header line naming the
config and the exit code, then the command's stdout. Wall time goes to
stderr, so two checkouts with the same outputs write the same file::

    python3 tools/report_bytes.py parent/src parent.bytes
    python3 tools/report_bytes.py src change.bytes
    cmp parent.bytes change.bytes

``--searches`` writes, in the same layout, the separability report
(``SeparabilityReport.to_json_dict``) of every search input:
``ProcessFamily.make_inputs(1)`` from ``perfbench/workloads.py`` (420
processes, imported and left as they are), ``quantum_switch_process()`` and
the coherent preset at visibility 1e-6, 1e-4, 1e-3, 0.3 and 1::

    python3 tools/report_bytes.py --searches parent/src parent.searches
    python3 tools/report_bytes.py --searches src change.searches

Where the files differ, ``--diff`` names what moved: one line per config
or search and per JSON path of a report (``process.validity.psd_margin``,
``residual``), sweep CSV cell (``row 2 S_opt``) or exit code that differs,
and ends with one line that counts those lines per moved field
(``127 iterations, 127 q, 127 residual``). It exits 1 when anything
differs, 0 when nothing does and 2 on a file it cannot read::

    python3 tools/report_bytes.py --diff parent.bytes change.bytes
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from math import pi, sqrt
from pathlib import Path

# party 1 measures Z and X, party 2 (Z+X)/sqrt2 and (Z-X)/sqrt2
Z_X_VS_DIAGONAL = [[[0.0, 0.0], [pi / 2, 0.0]], [[pi / 4, 0.0], [pi / 4, pi]]]

RUN_CONFIGS = {
    "coherent": {"scenario": "double-switch-coherent"},
    "baseline": {"scenario": "classical-order-baseline"},
    "a5": {"scenario": "a5-violated-definite-order"},
    "coherent-eta-0": {"scenario": "double-switch-coherent", "visibility": 0.0},
    "coherent-eta-0.3": {"scenario": "double-switch-coherent", "visibility": 0.3},
    "coherent-eta-0.7": {"scenario": "double-switch-coherent", "visibility": 0.7},
    "coherent-eta-0-amplitudes": {
        "scenario": "double-switch-coherent",
        "visibility": 0.0,
        "control_amplitudes": [sqrt(0.3), sqrt(0.7)],
    },
    "custom-definite-AB": {"scenario": "custom", "order_mode": "definite-AB", "conditioning": None},
    "custom-definite-BA": {"scenario": "custom", "order_mode": "definite-BA", "conditioning": None},
    "custom-classical-mixture": {"scenario": "custom", "order_mode": "classical-mixture", "conditioning": None},
    "a5-definite-BA": {"scenario": "a5-violated-definite-order", "order_mode": "definite-BA"},
    "a5-eta-0.4-amplitudes": {
        "scenario": "a5-violated-definite-order",
        "visibility": 0.4,
        "control_amplitudes": [0.6, 0.8],
    },
    "baseline-q-0.3": {"scenario": "classical-order-baseline", "mixture_q": 0.3, "v1": "Z"},
    "coherent-fixed-settings": {"scenario": "double-switch-coherent", "settings": Z_X_VS_DIAGONAL},
    "coherent-custom-input": {
        "scenario": "double-switch-coherent",
        "psi_t0": "+",
        "u_b": "X",
        "conditioning": {"basis": [0.3, 1.1], "outcome": "-"},
    },
}

SWEEPS = {
    "coherent-eta": ({"scenario": "double-switch-coherent"}, "eta", "0,0.25,0.5,0.75,1"),
    "baseline-q": ({"scenario": "classical-order-baseline"}, "q", "0.2,0.5,0.8"),
}

SEARCH_SEED = 1
SEARCH_VISIBILITIES = (1e-6, 1e-4, 1e-3, 0.3, 1.0)
ROOT = Path(__file__).resolve().parents[1]


def _child(paths: list[Path], args: list[str]) -> tuple[int, bytes]:
    """Run python with ``args``, ``paths`` as its PYTHONPATH and BLAS on one thread."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(map(str, paths)),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    proc = subprocess.run([sys.executable, *args], env=env, stdout=subprocess.PIPE, check=False)
    return proc.returncode, proc.stdout


def searches() -> None:
    """Print the separability report of each search input, one section
    each. ``--searches`` runs it in a child process with the checkout's
    icolab and ``perfbench`` on the path."""
    import workloads
    from icolab import process, scenarios

    pool = workloads.ProcessFamily.make_inputs(SEARCH_SEED)
    for k, inp in enumerate(pool):
        rep = process.separability_heuristic(inp["process"])
        print(f"== search process-family {k} {inp['kind']} exit 0")
        print(json.dumps(rep.to_json_dict(), sort_keys=True))
    rep = process.separability_heuristic(process.quantum_switch_process())
    print("== search quantum-switch exit 0")
    print(json.dumps(rep.to_json_dict(), sort_keys=True))
    for eta in SEARCH_VISIBILITIES:
        cfg = scenarios.ScenarioConfig.from_dict({"scenario": "double-switch-coherent", "visibility": eta})
        w = scenarios._scenario_process(cfg.spec)[0]
        rep = process.separability_heuristic(w)
        print(f"== search coherent visibility {eta} exit 0")
        print(json.dumps(rep.to_json_dict(), sort_keys=True))


def _sections(path: Path) -> dict[str, tuple[str, list[str]]]:
    """Config label -> (exit code, stdout lines) of a file this script wrote."""
    out: dict[str, tuple[str, list[str]]] = {}
    lines: list[str] | None = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("== "):
            label, _, code = line[3:].rpartition(" exit ")
            lines = []
            out[label] = (code, lines)
        elif lines is None:
            raise ValueError(f"{path} does not start with a '== <config> exit <code>' line")
        else:
            lines.append(line)
    return out


def _json_diff(a, b, path: str = ""):
    """Paths of the leaves whose serialized values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                yield from _json_diff(a[key], b[key], sub)
            else:
                yield sub
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_diff(x, y, f"{path}[{i}]")
    elif json.dumps(a) != json.dumps(b):
        yield path or "."


def _csv_diff(a: list[str], b: list[str]):
    """Cells of a sweep CSV that differ, as 'row <n> <column>' (rows from 1);
    comment lines and a change in the row count are named as such."""
    rows_a = [line for line in a if not line.startswith("#")]
    rows_b = [line for line in b if not line.startswith("#")]
    if [line for line in a if line.startswith("#")] != [line for line in b if line.startswith("#")]:
        yield "comment lines"
    if rows_a[:1] != rows_b[:1]:
        yield "header"
        return
    header = rows_a[0].split(",") if rows_a else []
    for n, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        ca, cb = ra.split(","), rb.split(",")
        for col, (x, y) in enumerate(zip(ca, cb)):
            if x != y:
                yield f"row {n} {header[col] if col < len(header) else col}"
        if len(ca) != len(cb):
            yield f"row {n} cell count"
    if len(rows_a) != len(rows_b):
        yield "row count"


def diff(path_a: Path, path_b: Path) -> list[str]:
    """One line per config and per thing that differs between two files."""
    a, b = _sections(path_a), _sections(path_b)
    only = sorted(a.keys() ^ b.keys())
    out = [f"{label}: only in {path_a if label in a else path_b}" for label in only]
    for label in [label for label in a if label in b]:
        (code_a, lines_a), (code_b, lines_b) = a[label], b[label]
        if code_a != code_b:
            out.append(f"{label}: exit code")
        if lines_a == lines_b:
            continue
        try:
            moved = _json_diff(json.loads("\n".join(lines_a)), json.loads("\n".join(lines_b)))
            out += [f"{label}: {path}" for path in moved]
        except json.JSONDecodeError:
            out += [f"{label}: {cell}" for cell in _csv_diff(lines_a, lines_b)]
    return out


def tally(moved: list[str]) -> str:
    """How many of the lines :func:`diff` wrote name each moved field, by field."""
    counts = Counter(line.split(": ", 1)[1] for line in moved)
    return ", ".join(f"{n} {field}" for field, n in sorted(counts.items()))


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        try:
            moved = diff(Path(argv[1]), Path(argv[2]))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("\n".join([*moved, tally(moved)]) if moved else "no differences")
        return 1 if moved else 0
    searches = argv[:1] == ["--searches"]
    argv = argv[1:] if searches else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    if not (src / "icolab" / "cli.py").is_file():
        print(f"error: {src} holds no icolab package", file=sys.stderr)
        return 2
    if searches:
        paths = [src, ROOT / "perfbench", ROOT / "tools"]
        code, stdout = _child(paths, ["-c", "import report_bytes; report_bytes.searches()"])
        out.write_bytes(stdout)
        return code
    commands = [(f"run {name}", cfg, ["run"]) for name, cfg in RUN_CONFIGS.items()]
    commands += [
        (f"sweep {name}", cfg, ["sweep", "--param", param, "--grid", grid])
        for name, (cfg, param, grid) in SWEEPS.items()
    ]
    with tempfile.TemporaryDirectory() as tmp, out.open("wb") as fh:
        for label, cfg, args in commands:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            code, stdout = _child([src], ["-m", "icolab.cli", args[0], "--config", str(path), *args[1:]])
            fh.write(f"== {label} exit {code}\n".encode())
            fh.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
