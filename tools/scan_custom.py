"""Run seeded random custom configs and record each separability verdict.

Usage::

    python3 tools/scan_custom.py SRC_DIR OUT

``SRC_DIR`` is the directory that holds the ``icolab`` package (a checkout's
``src``). The script draws 120 custom configs from numpy seed 5 (the free
evolutions ``u_a``, ``u_b``, ``v0`` and ``v1`` from every named unitary, ``Y``
included; ``psi_t0`` from the named states; ``control_amplitudes``
(sqrt p, sqrt(1 - p)) with p uniform in [0.05, 0.95]; ``visibility`` 0 or 1
a quarter of the time each, else 10^u with u uniform in [-6, 0]; the
plus/minus conditioning on ``+`` or none, half the time each). It runs each
through ``run_scenario`` of that package, in a child process with BLAS on one
thread, and writes one section per config in the layout of
``tools/report_bytes.py``: a ``== custom <k> exit 0`` line, then a JSON record
of the config, the separability ``verdict`` and ``iterations``, the
``exit`` that decided (``process.EXITS``; the run report leaves it out, so
the script decides the config's W again by ``run_scenario``'s own
``_separability``) and, for a real W, the
``oracle`` label of its face from this checkout's ``tests/oracles.py``:

- ``no split``: no order split of W on its face, so W is nonseparable;
- ``margin >= -tau``: the best face split's least eigenvalue is at or above
  minus W's rounding bound;
- ``margin < -tau``: it is below, so W is not separable.

A complex W (it takes ``Y`` as ``v0`` or ``v1``) has face splits that form
a plane, which the oracle does not search, and gets no label. A config whose conditioning
outcome has probability zero records ``"verdict": null``. Wall time and the
count of records per (oracle label, verdict) go to stderr, so two checkouts
compare with ``report_bytes.py --diff``::

    python3 tools/scan_custom.py parent/src parent.scan
    python3 tools/scan_custom.py src change.scan
    python3 tools/report_bytes.py --diff parent.scan change.scan
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

from report_bytes import _child, _sections

SCAN_SEED, SCAN_COUNT = 5, 120
UNITARIES = ("H", "I", "X", "Y", "Z")
STATES = ("+", "-", "0", "1")
ROOT = Path(__file__).resolve().parents[1]


def draw_configs(count: int) -> list[dict]:
    """The first ``count`` seeded custom configs, as JSON-ready dicts."""
    import numpy as np

    rng = np.random.default_rng(SCAN_SEED)
    configs = []
    for _ in range(count):
        config = {"scenario": "custom"}
        for key in ("u_a", "u_b", "v0", "v1"):
            config[key] = UNITARIES[rng.integers(len(UNITARIES))]
        config["psi_t0"] = STATES[rng.integers(len(STATES))]
        p = float(rng.uniform(0.05, 0.95))
        config["control_amplitudes"] = [p**0.5, (1.0 - p) ** 0.5]
        kind = int(rng.integers(4))
        config["visibility"] = float(kind) if kind < 2 else 10.0 ** float(rng.uniform(-6.0, 0.0))
        config["conditioning"] = None if rng.integers(2) else {"basis": "plus_minus", "outcome": "+"}
        configs.append(config)
    return configs


def record(config: dict) -> dict:
    """The scan's record of one config: see the module docstring."""
    import oracles
    from icolab.scenarios import ScenarioConfig, _scenario_process, _separability, run_scenario

    cfg = ScenarioConfig.from_dict(config)
    out = {"config": config, "verdict": None}
    w, _, candidate = _scenario_process(cfg.spec)
    try:
        sep = run_scenario(cfg).report["process"]["separability"]
        out.update(verdict=sep["verdict"], iterations=sep["iterations"])
        out["exit"] = _separability(w, candidate)[0].exit
    except ValueError as exc:
        # a conditioning outcome of probability zero leaves no report
        if "conditioning outcome" not in str(exc):
            raise
    if not w.matrix.imag.any():
        if oracles.face_split_residual(w.matrix, w.layout) > w._rounding:
            out["oracle"] = "no split"
        elif oracles.face_split_margin(w.matrix, w.layout) >= -w._rounding:
            out["oracle"] = "margin >= -tau"
        else:
            out["oracle"] = "margin < -tau"
    return out


def scan(count: int = SCAN_COUNT) -> None:
    """Print the record of each of the first ``count`` configs, one section
    each. The script runs it in a child process with the checkout's icolab,
    ``tools`` and ``tests`` on the path."""
    for k, config in enumerate(draw_configs(count)):
        print(f"== custom {k} exit 0")
        print(json.dumps(record(config), sort_keys=True))


def counts(path: Path) -> Counter:
    """Records per (oracle label, verdict) in a file :func:`scan` wrote."""
    out = Counter()
    for _, lines in _sections(path).values():
        rec = json.loads("\n".join(lines))
        out[(rec.get("oracle", "complex"), rec["verdict"])] += 1
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    if not (src / "icolab" / "cli.py").is_file():
        print(f"error: {src} holds no icolab package", file=sys.stderr)
        return 2
    start = time.perf_counter()
    code, stdout = _child([src, ROOT / "tools", ROOT / "tests"], ["-c", "import scan_custom; scan_custom.scan()"])
    out.write_bytes(stdout)
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    if code == 0:
        for (label, verdict), n in sorted(counts(out).items(), key=str):
            print(f"{n:4d}  {label}: {verdict}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
