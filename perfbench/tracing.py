"""Spans at icolab's layer boundaries, recorded from the benchmark's side.

Nothing inside ``src/`` is traced. The benchmark wraps the public functions
it calls itself (the ``api`` namespace) and, for the duration of a traced
op, the public names that ``icolab.scenarios`` calls, so that a span opens
and closes at every call into ``switch``, ``bell``, ``causal`` and
``process``. Spans are kept in memory and written out when the run ends.
"""
from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from icolab import causal, linalg, process, sampling, scenarios
from workloads import API_FUNCTIONS

# Layer of each api function the benchmark calls directly.
API_LAYERS = {
    "from_dict": "scenarios.config",
    "run_scenario": "scenarios.self",
    "sweep": "scenarios.self",
    "to_json_bytes": "scenarios.serialize",
    "conditioned_target_state": "switch.state",
    "target_entanglement": "switch.negativity",
    "optimize_chsh": "bell.optimize_chsh",
    "behavior": "bell.behavior",
    "causal_membership": "causal.lp",
    "validate_process": "process.validity",
    "separability_heuristic": "process.separability",
}

# Layer of each public name icolab.scenarios calls internally.
SCENARIO_LAYERS = {
    "run_scenario": "scenarios.self",
    "double_switch_output": "switch.state",
    "reduced_target_state": "switch.state",
    "conditioned_target_state": "switch.state",
    "target_entanglement": "switch.negativity",
    "optimize_chsh": "bell.optimize_chsh",
    "chsh": "bell.behavior",
    "behavior": "bell.behavior",
    "causal_membership": "causal.lp",
    "lambda_model_from_definite_order": "causal.audit",
    "temporal_locality_audit": "causal.audit",
    "quantum_switch_process": "process.build",
    "mix": "process.build",
    "validate_process": "process.validity",
    "separability_heuristic": "process.separability",
}

LAYERS = (
    "scenarios.config",
    "scenarios.self",
    "scenarios.serialize",
    "switch.state",
    "switch.negativity",
    "bell.optimize_chsh",
    "bell.behavior",
    "causal.lp",
    "causal.audit",
    "process.build",
    "process.validity",
    "process.separability",
)


def _stats(result) -> dict:
    """Counts read off a layer's result at its boundary."""
    if isinstance(result, process.SeparabilityReport):
        return {"iterations": result.iterations, "certified": result.separable}
    if isinstance(result, causal.AuditReport):
        return {"audit_cells": result.cells_checked}
    return {}


class Tracer:
    """In-memory span recorder: name, start, end, parent span and op id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None

    def _open(self, name: str, call: str) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "call": call,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            rec = self._open(layer, fn.__name__)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec.update(_stats(out))
            return out

        return traced

    def api(self) -> SimpleNamespace:
        return SimpleNamespace(
            **{name: self.wrap(API_LAYERS[name], fn) for name, fn in API_FUNCTIONS.items()}
        )

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op, with the scenarios module instrumented."""
        saved = {name: getattr(scenarios, name) for name in SCENARIO_LAYERS}
        saved_from_dict = scenarios.ScenarioConfig.__dict__["from_dict"]
        for name, layer in SCENARIO_LAYERS.items():
            setattr(scenarios, name, self.wrap(layer, saved[name]))
        scenarios.ScenarioConfig.from_dict = classmethod(
            self.wrap("scenarios.config", saved_from_dict.__func__)
        )
        self._op = op_id
        root = self._open("op", "op")
        try:
            yield
        finally:
            self._close(root)
            self._op = None
            for name, fn in saved.items():
                setattr(scenarios, name, fn)
            scenarios.ScenarioConfig.from_dict = saved_from_dict

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-op self time and share of op time for every layer, plus the
    counts recorded at the boundaries and the span coverage of op time."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
    self_time = {layer: 0.0 for layer in LAYERS + ("op",)}
    for rec, children in zip(spans, child_time):
        self_time[rec["name"]] += rec["end"] - rec["start"] - children
    ops = [rec for rec in spans if rec["name"] == "op"]
    op_time = sum(rec["end"] - rec["start"] for rec in ops)
    out = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = self_time[layer] / len(ops)
        out[f"{layer}_share"] = self_time[layer] / op_time
    seps = [rec for rec in spans if rec["name"] == "process.separability"]
    iters = sum(rec["iterations"] for rec in seps)
    sep_time = sum(rec["end"] - rec["start"] for rec in seps)
    out["causal.audit_cells"] = sum(rec.get("audit_cells", 0) for rec in spans) / len(ops)
    out["process.separability_iters"] = iters / len(seps) if seps else 0.0
    out["process.separability_s_per_iter"] = sep_time / iters if iters else 0.0
    out["process.certified_frac"] = (
        sum(rec["certified"] for rec in seps) / len(seps) if seps else 0.0
    )
    out["trace.coverage"] = 1.0 - self_time["op"] / op_time
    return out


def _median_time(fn, repeats: int) -> float:
    for _ in range(3):
        fn()
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def kernel_metrics(repeats: int = 40) -> dict[str, float]:
    """Median time of single kernel calls on fixed inputs (seed 0)."""
    rng = np.random.default_rng(0)
    w64 = process.quantum_switch_process()
    w16 = sampling.random_valid_process(rng)
    h64 = sampling.random_hermitian(rng, 64)
    table = sampling.random_causal_behavior(rng)
    return {
        "kernel.order_projection64_s": _median_time(
            lambda: process.order_projection(w64.matrix, w64.layout, "AB"), repeats
        ),
        "kernel.order_projection16_s": _median_time(
            lambda: process.order_projection(w16.matrix, w16.layout, "AB"), repeats
        ),
        "kernel.validity_projection16_s": _median_time(
            lambda: process.validity_projection(w16.matrix, w16.layout), repeats
        ),
        "kernel.eigh64_s": _median_time(lambda: linalg.eig_hermitian(h64), repeats),
        "kernel.lp_s": _median_time(lambda: causal.causal_membership(table), repeats),
    }
