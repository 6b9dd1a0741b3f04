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
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
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
    "baseline-q-0.3": {
        "scenario": "classical-order-baseline",
        "mixture_q": 0.3,
        "v1": "Z",
        "a5_satisfied": False,
    },
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


def _cli(src: Path, args: list[str]) -> tuple[int, bytes]:
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "icolab.cli", *args], env=env, stdout=subprocess.PIPE, check=False
    )
    return proc.returncode, proc.stdout


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    if not (src / "icolab" / "cli.py").is_file():
        print(f"error: {src} holds no icolab package", file=sys.stderr)
        return 2
    commands = [(f"run {name}", cfg, ["run"]) for name, cfg in RUN_CONFIGS.items()]
    commands += [
        (f"sweep {name}", cfg, ["sweep", "--param", param, "--grid", grid])
        for name, (cfg, param, grid) in SWEEPS.items()
    ]
    with tempfile.TemporaryDirectory() as tmp, out.open("wb") as fh:
        for label, cfg, args in commands:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            code, stdout = _cli(src, [args[0], "--config", str(path), *args[1:]])
            fh.write(f"== {label} exit {code}\n".encode())
            fh.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
