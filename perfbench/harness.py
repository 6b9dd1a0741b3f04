"""Closed-loop measurement of one workload with one client.

Ops go through the workload's input pool pass after pass until the time
budget is spent, always ending on a whole pass, so every input is visited
equally often. Each output is checked: the first output for an input
against the independent references, every repeat for byte-equality with
the first. A mismatch or exception counts as a failed op; nothing aborts
the run.

The machine's speed drifts by up to 2x over seconds to minutes, because
other tenants share its cores. So a fixed reference kernel is timed between
consecutive ops and, from a timer signal, every PROBE_INTERVAL_S during
them; each op's wall time (less the probes inside it) is also reported
scaled to the reference speed (see ``reference_time``).
"""
from __future__ import annotations

import hashlib
import pickle
import signal
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from checks import CHECKS, CheckFailed

TAIL_BEYOND = 10
PROBE_INTERVAL_S = 0.05

# The reference kernel's time on an uncontended core of the machine the
# baseline was taken on (Intel Xeon, 2 vCPUs, OpenBLAS 0.3.31, one thread).
REFERENCE_S = 220e-6

_RNG = np.random.default_rng(0)
_M = _RNG.normal(size=(16, 16)) + 1j * _RNG.normal(size=(16, 16))
_H = _M + _M.conj().T


def reference_time() -> float:
    """Seconds taken by a fixed mix of small numpy calls and interpreter
    work, the same kind of work as icolab's. An op's wall time times
    REFERENCE_S over the reference time around it is its time at the
    reference speed."""
    start = perf_counter()
    x = 0
    for _ in range(4):
        np.linalg.eigh(_H)
        _M @ _M
        for i in range(200):
            x += i
    return perf_counter() - start


class SpeedProbe:
    """Reference-kernel timings in seconds: on request between ops, and
    from a SIGALRM handler every PROBE_INTERVAL_S while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._busy = False

    def take(self) -> float:
        self._busy = True
        seconds = reference_time()
        self.samples.append(seconds)
        self._busy = False
        return seconds

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self.take()

    def __enter__(self) -> "SpeedProbe":
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)


def _at_reference_speed(elapsed: float, refs: list[float], inside: int) -> tuple[float, float]:
    """(wall seconds, seconds at reference speed) of an op that took
    ``elapsed`` including the last ``inside`` of the reference timings
    ``refs`` around and within it."""
    wall = elapsed - sum(refs[len(refs) - inside :])
    return wall, wall * REFERENCE_S * len(refs) / sum(refs)


@dataclass
class Sample:
    """Every op as (input index, wall seconds, seconds at reference speed,
    traced), plus the failure record."""

    ops: list[tuple[int, float, float, bool]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def times(self, traced: bool = False, scaled: bool = True) -> list[float]:
        return [op[2 if scaled else 1] for op in self.ops if op[3] == traced]


def fingerprint(out) -> bytes:
    """Digest of an op's output; equal outputs give equal digests."""
    if isinstance(out, str):
        out = out.encode()
    if not isinstance(out, bytes):
        out = pickle.dumps(out, protocol=5)
    return hashlib.sha256(out).digest()


def measure(workload, inputs, api, seconds: float, tracer=None, check=None) -> Sample:
    """Run whole passes over ``inputs`` until ``seconds`` have passed. With
    a tracer, every other pass runs traced through ``tracer.api()``, and at
    least one pass of each kind is run."""
    check = check or CHECKS[workload.name]
    with SpeedProbe() as probe:
        return _passes(workload, inputs, api, seconds, tracer, check, probe)


def _passes(workload, inputs, api, seconds, tracer, check, probe) -> Sample:
    traced_api = tracer.api() if tracer is not None else None
    seen: dict[int, bytes] = {}
    sample = Sample()
    start = perf_counter()
    ref_before = probe.take()
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1
        for k, inp in enumerate(inputs):
            sample.attempted += 1
            first = len(probe.samples)
            t0 = perf_counter()
            try:
                if traced:
                    with tracer.op(len(sample.ops)):
                        out = workload.op(traced_api, inp)
                else:
                    out = workload.op(api, inp)
            except Exception:
                sample.fail(f"input {k} raised:\n{traceback.format_exc()}")
                out = None
            elapsed = perf_counter() - t0
            inside = probe.samples[first:]
            ref_after = probe.take()
            timing = _at_reference_speed(elapsed, [ref_before, ref_after, *inside], len(inside))
            sample.ops.append((k, *timing, traced))
            ref_before = ref_after
            if out is None:
                continue
            try:
                digest = fingerprint(out)
                if k in seen:
                    if digest != seen[k]:
                        raise CheckFailed("output differs from the first op on the same input")
                else:
                    check(inp, out)
                    seen[k] = digest
            except CheckFailed as exc:
                sample.fail(f"input {k}: {exc}")
            except Exception:
                sample.fail(f"input {k}, check raised:\n{traceback.format_exc()}")
        passes += 1
        if perf_counter() - start >= seconds and (tracer is None or passes >= 2):
            return sample


def tail(times: list[float]) -> tuple[float, float]:
    """(time, percentile) at the highest nearest-rank percentile with at
    least TAIL_BEYOND values beyond it; the maximum when that percentile
    would not lie above the median."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    if 2 * rank <= n:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / n


def end_to_end(sample: Sample) -> dict[str, float]:
    """Op timings of the untraced ops at reference speed. ``ops_per_s`` is
    the share of ops that passed their check over the mean op time. The
    raw wall-time figures are kept alongside for the record."""
    times = sample.times()
    tail_s, tail_pct = tail(times)
    pass_share = 1.0 - sample.failed / sample.attempted
    wall = sample.times(scaled=False)
    return {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "op_tail_pct": tail_pct,
        "ops_per_s": pass_share / statistics.mean(times),
        "fail_frac": sample.failed / sample.attempted,
        "untraced_ops": len(times),
        "wall_op_p50_s": statistics.median(wall),
        "wall_op_tail_s": tail(wall)[0],
        "wall_ops_per_s": pass_share / statistics.mean(wall),
    }
