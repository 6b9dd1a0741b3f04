"""Write the bytes of icolab's user-visible outputs on fixed configs to one file.

Usage::

    python3 tools/report_bytes.py [--searches] [--blas-threads N] SRC_DIR OUT

``SRC_DIR`` is the directory that holds the ``icolab`` package (a checkout's
``src``). The script runs that package's CLI with BLAS pinned to one thread
(``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1``), or to ``N`` threads
with ``--blas-threads N``: ``icolab run`` on the 15 comparison configs
below and ``icolab sweep`` over ``eta`` on the coherent preset and over ``q``
on the baseline. ``OUT`` gets, for each command, a header line naming the
config and the exit code, then the command's stdout. Wall time goes to
stderr, so two checkouts with the same outputs write the same file::

    python3 tools/report_bytes.py parent/src parent.bytes
    python3 tools/report_bytes.py src change.bytes
    cmp parent.bytes change.bytes

The same ``cmp`` of one checkout's files at two thread counts shows whether
its bytes depend on BLAS threading::

    python3 tools/report_bytes.py --blas-threads 2 src change-2.bytes
    cmp change.bytes change-2.bytes

``--searches`` writes, in the same layout, the separability report
(``SeparabilityReport.to_json_dict``) of every search input, with the
search's ``exit`` (one of ``process.EXITS``, which run reports leave out),
that input's validity report (``ValidityReport.to_json_dict``) under the key
``validity``, so that a change to the validity gates shows up as a moved
field (an input that fails them gets no search), and, for a certificate,
the sha256 of its two part matrices' complex128 bytes under
``parts_sha256``, so that parts unchanged bit for bit is one ``cmp``:
``ProcessFamily.make_inputs`` from ``perfbench/workloads.py`` for seeds 1,
2 and 3 (1,260 processes, imported and left as they are, labelled with
their seed), ``quantum_switch_process()``, its even mixture with its
copy at ``v1`` = Z (rank 2 and real; a witness on its face decides it after
the first step), the coherent preset at visibility 1e-6, 1e-4, 1e-3, 0.3
and 1, a phase-rotated copy of the preset at visibility 0.3 (complex, so
searched in complex128), the 8 undamped ordered mixtures of seed 1 (rank
12, each with one order split on its face), a pure ordered process
with a future in each order (rank 1), 40 lightly damped ordered mixtures
(full rank; most stop early in the loop) and the three product processes
of :func:`product_processes` (rank 4; certified at the converged exit)::

    python3 tools/report_bytes.py --searches parent/src parent.searches
    python3 tools/report_bytes.py --searches src change.searches

Where the files differ, ``--diff`` names what moved: one line per config
or search and per JSON path of a report (``process.validity.psd_margin``,
``residual``, ``exit``, ``parts_sha256``), sweep CSV cell (``row 2
S_opt``) or exit code that differs, and ends with one line that counts
those lines per moved field and gives the largest absolute change of each
numeric one (``127 iterations (max |Δ| 3), 127 q (max |Δ| 2.2e-16), 127
residual (max |Δ| 2.5e-16)``). When moved records name their ``exit``, as
``--searches`` records do, a last line counts the moved records by it
(``moved records by exit: 122 climbed-line``; ``a -> b`` where the exit
itself moved). It exits 1 when anything differs, 0 when nothing does and 2
on a file it cannot read::

    python3 tools/report_bytes.py --diff parent.bytes change.bytes
"""
from __future__ import annotations

import argparse
import hashlib
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
LIGHT_SEED, LIGHT_NOISE = 12345, (0.01, 0.15)
FAMILY_SEEDS = (1, 2, 3)
SEARCH_VISIBILITIES = (1e-6, 1e-4, 1e-3, 0.3, 1.0)
PURE_SEED = 3
ROTATED_VISIBILITY, ROTATION_SEED = 0.3, 7
ROOT = Path(__file__).resolve().parents[1]


def _child(paths: list[Path], args: list[str], threads: int = 1) -> tuple[int, bytes]:
    """Run python with ``args``, ``paths`` as its PYTHONPATH and BLAS on ``threads`` threads."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(map(str, paths)),
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
    }
    proc = subprocess.run([sys.executable, *args], env=env, stdout=subprocess.PIPE, check=False)
    return proc.returncode, proc.stdout


# The seeded search inputs, which tests/test_process.py draws too


def undamped_ordered_mixtures(seed: int, n: int) -> list:
    """Mixtures of a random A-first and a random B-first process with no
    white noise: separable by construction, but often of low rank and so on
    the boundary of the separable set."""
    return _ordered_mixtures(seed, n, None)


def lightly_damped_mixtures(seed: int, n: int) -> list:
    """The mixtures of :func:`undamped_ordered_mixtures`, each damped by white
    noise of a weight drawn in [0.01, 0.15] after its q: full rank, and close
    enough to the boundary that most are decided by the loop's early stop."""
    return _ordered_mixtures(seed, n, LIGHT_NOISE)


def _ordered_mixtures(seed: int, n: int, noise: tuple[float, float] | None) -> list:
    import numpy as np
    from icolab.process import choi_of_kraus, mix, neutral_process, ordered_process
    from icolab.sampling import haar_unitary, random_density

    rng = np.random.default_rng(seed)

    def channel():
        iso = haar_unitary(rng, 4)[:, :2]
        return choi_of_kraus([iso[:2], iso[2:]])

    pool = []
    for _ in range(n):
        w_ab = ordered_process(random_density(rng, 2), channel(), "AB")
        w_ba = ordered_process(random_density(rng, 2), channel(), "BA")
        w = mix(w_ab, w_ba, float(rng.uniform(0.1, 0.9)))
        if noise is not None:
            w = mix(neutral_process(w.layout), w, float(rng.uniform(*noise)))
        pool.append(w)
    return pool


def product_processes() -> dict:
    """W = |0><0| (x) 1 (x) |0><0| (x) 1 on (A_I, A_O, B_I, B_O), of rank 4,
    its :func:`phase_rotated` copy and its copy with a future factor 1_F/2:
    the start split of each is PSD but singular, so the search stops after
    one step with gap 0 and only its converged exit certifies it."""
    import numpy as np
    from icolab.process import ProcessMatrix, standard_layout

    ket0, one = np.diag([1.0, 0.0]), np.eye(2)
    m = np.kron(np.kron(ket0, one), np.kron(ket0, one))
    w = ProcessMatrix(m, standard_layout(2))
    return {
        "product": w,
        "product phase-rotated": phase_rotated(w, ROTATION_SEED),
        "product with a future": ProcessMatrix(np.kron(m, one / 2.0), standard_layout(2, 2)),
    }


def pure_ordered_process(order: str, seed: int):
    """A pure state through a unitary channel in one order, with the second
    output routed to the future: a rank-1 process."""
    import numpy as np
    from icolab.process import choi_of_unitary, ordered_process
    from icolab.sampling import haar_unitary

    rng = np.random.default_rng(seed)
    psi = haar_unitary(rng, 2)[:, 0]
    return ordered_process(np.outer(psi, psi.conj()), choi_of_unitary(haar_unitary(rng, 2)), order, "future")


def phase_rotated(w, seed: int):
    """U W U^dagger with U a product of seeded diagonal phase unitaries, one
    per factor. The order masks and the PSD cone are invariant under local
    unitaries, so the copy is separable exactly when W is, and a search on
    it follows the same iterates up to U."""
    import numpy as np
    from icolab.process import ProcessMatrix

    rng = np.random.default_rng(seed)
    phases = np.ones(1, dtype=np.complex128)
    for d in w.layout.dims:
        phases = np.kron(phases, np.exp(2j * np.pi * rng.uniform(size=d)))
    return ProcessMatrix(phases[:, None] * w.matrix * phases.conj(), w.layout)


def coherent_process(eta: float):
    """W of the coherent double-switch preset at visibility eta: real."""
    from icolab import scenarios

    cfg = scenarios.ScenarioConfig.from_dict({"scenario": "double-switch-coherent", "visibility": eta})
    return scenarios._scenario_process(cfg.spec)[0]


def searches() -> None:
    """Print the separability report of each search input, one section
    each. ``--searches`` runs it in a child process with the checkout's
    icolab and ``perfbench`` on the path."""
    import workloads
    from icolab import process
    from icolab.linalg import Z

    def emit(label: str, w) -> None:
        validity = process.validate_process(w)
        rep = process.separability_heuristic(w) if validity.is_valid else None
        out = {} if rep is None else {**rep.to_json_dict(), "exit": rep.exit}
        if rep is not None and rep.certificate is not None:
            parts = b"".join(part.matrix.tobytes() for part in rep.certificate[1:])
            out["parts_sha256"] = hashlib.sha256(parts).hexdigest()
        print(f"== search {label} exit 0")
        print(json.dumps({**out, "validity": validity.to_json_dict()}, sort_keys=True))

    for seed in FAMILY_SEEDS:
        for k, inp in enumerate(workloads.ProcessFamily.make_inputs(seed)):
            emit(f"process-family seed {seed} {k} {inp['kind']}", inp["process"])
    emit("quantum-switch", process.quantum_switch_process())
    flipped = process.quantum_switch_process(v1=Z)
    emit("quantum-switch mixed with its v1 Z copy", process.mix(process.quantum_switch_process(), flipped, 0.5))
    for eta in SEARCH_VISIBILITIES:
        emit(f"coherent visibility {eta}", coherent_process(eta))
    rotated = phase_rotated(coherent_process(ROTATED_VISIBILITY), ROTATION_SEED)
    emit(f"coherent visibility {ROTATED_VISIBILITY} phase-rotated", rotated)
    for k, w in enumerate(undamped_ordered_mixtures(SEARCH_SEED, 8)):
        emit(f"undamped-mixture {k}", w)
    for order in ("AB", "BA"):
        emit(f"pure-future {order}", pure_ordered_process(order, PURE_SEED))
    for k, w in enumerate(lightly_damped_mixtures(LIGHT_SEED, 40)):
        emit(f"lightly-damped-mixture {k}", w)
    for label, w in product_processes().items():
        emit(label, w)


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


def _delta(a, b) -> float | None:
    """|b - a| when both values are numbers, JSON or CSV, else None."""
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    try:
        return abs(float(b) - float(a))
    except (TypeError, ValueError):
        return None


def _json_diff(a, b, path: str = ""):
    """(path, |change| or None) of each leaf whose serialized values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                yield from _json_diff(a[key], b[key], sub)
            else:
                yield sub, None
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_diff(x, y, f"{path}[{i}]")
    elif json.dumps(a) != json.dumps(b):
        yield path or ".", None if isinstance(a, str) else _delta(a, b)


def _csv_diff(a: list[str], b: list[str]):
    """(cell, |change| or None) of each sweep CSV cell that differs, as
    'row <n> <column>' (rows from 1); comment lines and a change in the row
    count are named as such."""
    rows_a = [line for line in a if not line.startswith("#")]
    rows_b = [line for line in b if not line.startswith("#")]
    if [line for line in a if line.startswith("#")] != [line for line in b if line.startswith("#")]:
        yield "comment lines", None
    if rows_a[:1] != rows_b[:1]:
        yield "header", None
        return
    header = rows_a[0].split(",") if rows_a else []
    for n, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        ca, cb = ra.split(","), rb.split(",")
        for col, (x, y) in enumerate(zip(ca, cb)):
            if x != y:
                yield f"row {n} {header[col] if col < len(header) else col}", _delta(x, y)
        if len(ca) != len(cb):
            yield f"row {n} cell count", None
    if len(rows_a) != len(rows_b):
        yield "row count", None


def diff(path_a: Path, path_b: Path) -> list[tuple[str, float | None]]:
    """One line per config and per thing that differs between two files,
    each with the absolute change of a numeric value (None otherwise)."""
    a, b = _sections(path_a), _sections(path_b)
    only = sorted(a.keys() ^ b.keys())
    out = [(f"{label}: only in {path_a if label in a else path_b}", None) for label in only]
    for label in [label for label in a if label in b]:
        (code_a, lines_a), (code_b, lines_b) = a[label], b[label]
        if code_a != code_b:
            out.append((f"{label}: exit code", None))
        if lines_a == lines_b:
            continue
        try:
            moved = _json_diff(json.loads("\n".join(lines_a)), json.loads("\n".join(lines_b)))
            out += [(f"{label}: {path}", delta) for path, delta in moved]
        except json.JSONDecodeError:
            out += [(f"{label}: {cell}", delta) for cell, delta in _csv_diff(lines_a, lines_b)]
    return out


def tally(moved: list[tuple[str, float | None]]) -> str:
    """How many of the lines :func:`diff` wrote name each moved field, by
    field, with the largest absolute change of each numeric one."""
    counts, largest = Counter(), {}
    for line, delta in moved:
        field = line.split(": ", 1)[1]
        counts[field] += 1
        if delta is not None:
            largest[field] = max(largest.get(field, 0.0), delta)
    return ", ".join(
        f"{n} {field}" + (f" (max |Δ| {largest[field]:.2g})" if field in largest else "")
        for field, n in sorted(counts.items())
    )


def exit_tally(path_a: Path, path_b: Path) -> str:
    """How many moved records name each ``exit``, ``a -> b`` where the exit
    itself moved, or "" when no moved record names one."""
    a, b = _sections(path_a), _sections(path_b)
    counts = Counter()
    for label in [label for label in a if label in b and a[label][1] != b[label][1]]:
        try:
            exits = [json.loads("\n".join(lines)).get("exit") for _, lines in (a[label], b[label])]
        except (json.JSONDecodeError, AttributeError):  # a sweep's CSV, or JSON that is no record
            continue
        if exits != [None, None]:
            counts[exits[0] if exits[0] == exits[1] else f"{exits[0]} -> {exits[1]}"] += 1
    if not counts:
        return ""
    return "moved records by exit: " + ", ".join(f"{n} {exit}" for exit, n in sorted(counts.items()))


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        try:
            moved = diff(Path(argv[1]), Path(argv[2]))
            exits = exit_tally(Path(argv[1]), Path(argv[2]))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not moved:
            print("no differences")
            return 0
        print("\n".join([*(line for line, _ in moved), tally(moved)]))
        if exits:
            print(exits)
        return 1
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--searches", action="store_true", help="record every search input's report")
    parser.add_argument("--blas-threads", type=int, default=1, metavar="N", help="BLAS threads of each run (1)")
    parser.add_argument("src", metavar="SRC_DIR", type=Path)
    parser.add_argument("out", metavar="OUT", type=Path)
    args = parser.parse_args(argv)
    if args.blas_threads < 1:
        parser.error(f"--blas-threads must be at least 1, got {args.blas_threads}")
    src, out, threads = args.src.resolve(), args.out, args.blas_threads
    if not (src / "icolab" / "cli.py").is_file():
        print(f"error: {src} holds no icolab package", file=sys.stderr)
        return 2
    if args.searches:
        paths = [src, ROOT / "perfbench", ROOT / "tools"]
        code, stdout = _child(paths, ["-c", "import report_bytes; report_bytes.searches()"], threads)
        out.write_bytes(stdout)
        return code
    commands = [(f"run {name}", cfg, ["run"]) for name, cfg in RUN_CONFIGS.items()]
    commands += [
        (f"sweep {name}", cfg, ["sweep", "--param", param, "--grid", grid])
        for name, (cfg, param, grid) in SWEEPS.items()
    ]
    with tempfile.TemporaryDirectory() as tmp, out.open("wb") as fh:
        for label, cfg, command in commands:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            code, stdout = _child([src], ["-m", "icolab.cli", command[0], "--config", str(path), *command[1:]], threads)
            fh.write(f"== {label} exit {code}\n".encode())
            fh.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
