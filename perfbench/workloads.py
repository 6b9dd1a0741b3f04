"""The four benchmark workloads: seeded inputs and one op each.

A workload has

- ``make_inputs(seed)``: the pool of inputs a run visits pass after pass,
  drawn only from the seed;
- ``op(api, inp)``: one op, calling icolab only through ``api`` (a namespace
  of the public functions, traced or not; see ``tracing.py``).

The outputs are checked in ``checks.py``.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from icolab import bell, causal, process, sampling, scenarios, switch

BUILTINS = tuple(scenarios.BUILTIN_SCENARIOS)

API_FUNCTIONS = {
    "from_dict": scenarios.ScenarioConfig.from_dict,
    "run_scenario": scenarios.run_scenario,
    "to_json_bytes": scenarios.RunReport.to_json_bytes,
    "sweep": scenarios.sweep,
    "conditioned_target_state": switch.conditioned_target_state,
    "target_entanglement": switch.target_entanglement,
    "optimize_chsh": bell.optimize_chsh,
    "behavior": bell.behavior,
    "causal_membership": causal.causal_membership,
    "validate_process": process.validate_process,
    "separability_heuristic": process.separability_heuristic,
}


def plain_api() -> SimpleNamespace:
    return SimpleNamespace(**API_FUNCTIONS)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


class RunBuiltins:
    """What ``icolab run`` does after import, for each built-in preset in turn."""

    name = "run-builtins"

    @staticmethod
    def make_inputs(seed: int) -> list[dict]:
        return [{"scenario": name, "seed": seed} for name in BUILTINS]

    @staticmethod
    def op(api, inp: dict) -> bytes:
        cfg = api.from_dict(inp)
        return api.to_json_bytes(api.run_scenario(cfg))


class SweepEta:
    """One grid point of ``sweep`` over ``eta`` on the coherent preset."""

    name = "sweep-eta"
    GRID_POINTS = 8

    @classmethod
    def make_inputs(cls, seed: int) -> list[tuple]:
        cfg = scenarios.ScenarioConfig.from_dict(
            {"scenario": "double-switch-coherent", "seed": seed}
        )
        grid = _rng(seed, 1).uniform(0.0, 1.0, size=cls.GRID_POINTS)
        return [(cfg, float(eta)) for eta in grid]

    @staticmethod
    def op(api, inp: tuple) -> str:
        cfg, eta = inp
        return api.sweep(cfg, "eta", [eta])


def _switch_spec(rng: np.random.Generator) -> dict:
    """Coherent double switch with Haar unitaries, a random target input,
    control amplitudes, visibility and control measurement.

    One spec in four shares v0 = v1 at full visibility, the case the
    single-v oracle covers directly.
    """
    u_a, u_b, v0, v1 = (sampling.haar_unitary(rng) for _ in range(4))
    single_v = rng.uniform() < 0.25
    if single_v:
        v1 = v0
    chi = rng.uniform(0.15, np.pi / 2 - 0.15)
    alpha, beta = np.cos(chi), np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.sin(chi)
    return {
        "u_a": u_a,
        "u_b": u_b,
        "v0": v0,
        "v1": v1,
        "psi": sampling.random_pure_state(rng),
        "alpha": complex(alpha),
        "beta": complex(beta),
        "visibility": 1.0 if single_v else float(rng.uniform()),
        "theta": float(rng.uniform(0, np.pi)),
        "phi": float(rng.uniform(0, 2 * np.pi)),
        "outcome": "+" if rng.uniform() < 0.5 else "-",
    }


class SwitchFamily:
    """The correlation-level questions on seeded coherent double switches."""

    name = "switch-family"
    POOL = 800
    MIN_PROBABILITY = 0.05

    @classmethod
    def make_inputs(cls, seed: int) -> list[dict]:
        rng = _rng(seed, 2)
        pool = []
        while len(pool) < cls.POOL:
            params = _switch_spec(rng)
            sw1 = switch.SwitchSpec(
                u_a=params["u_a"], u_b=params["u_b"], v0=params["v0"],
                v1=params["v1"], psi_t0=params["psi"],
            )
            spec = switch.DoubleSwitchSpec(
                switch1=sw1,
                switch2=sw1,
                control_amplitudes=(params["alpha"], params["beta"]),
                order_mode="coherent",
                visibility=params["visibility"],
            )
            m = switch.ControlMeasurement.from_bloch(params["theta"], params["phi"])
            # A near-impossible conditioning outcome has no well-defined state.
            p, _ = switch.conditioned_target_state(spec, m, params["outcome"])
            if p >= cls.MIN_PROBABILITY:
                pool.append({**params, "spec": spec, "measurement": m})
        return pool

    @staticmethod
    def op(api, inp: dict):
        p, rho = api.conditioned_target_state(inp["spec"], inp["measurement"], inp["outcome"])
        neg = api.target_entanglement(rho, (2, 2))
        result = api.optimize_chsh(rho)
        table = api.behavior(rho, *result.settings)
        verdict = api.causal_membership(table)
        return SimpleNamespace(
            probability=p, rho=rho, negativity=neg, chsh=result, table=table, verdict=verdict
        )


def _random_channel(rng: np.random.Generator, kraus_rank: int = 2) -> np.ndarray:
    """Choi matrix of a qubit channel from a random isometry."""
    iso = sampling.haar_unitary(rng, 2 * kraus_rank)[:, :2]
    return process.choi_of_kraus([iso[2 * k : 2 * k + 2, :] for k in range(kraus_rank)])


def _ordered_mixture(rng: np.random.Generator) -> process.ProcessMatrix:
    """White-noise-damped mixture of a random A-first and a random B-first
    process; both components stay ordered, so a certificate must exist."""
    w_ab = process.ordered_process(sampling.random_density(rng, 2), _random_channel(rng), "AB")
    w_ba = process.ordered_process(sampling.random_density(rng, 2), _random_channel(rng), "BA")
    mixed = process.mix(w_ab, w_ba, float(rng.uniform(0.1, 0.9)))
    return _with_white_noise(mixed, float(rng.uniform(0.3, 0.35)))


def ocb_process() -> process.ProcessMatrix:
    """The Oreshkov-Costa-Brukner process (Nat. Commun. 3, 1092, 2012),
    causally nonseparable."""
    i2, x, z = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    terms = np.kron(np.kron(i2, z), np.kron(z, i2)) + np.kron(np.kron(z, i2), np.kron(x, z))
    return process.ProcessMatrix((np.eye(16) + terms / np.sqrt(2.0)) / 4.0, process.standard_layout(2))


def _with_white_noise(w: process.ProcessMatrix, noise: float) -> process.ProcessMatrix:
    white = np.eye(16) * (w.expected_trace / 16.0)
    return process.ProcessMatrix((1.0 - noise) * w.matrix + noise * white, w.layout)


class ProcessFamily:
    """Validity and separability on seeded 16x16 no-future processes."""

    name = "process-family"
    POOL = 420
    KINDS = ("ordered-mixture", "random-valid", "ocb")

    @classmethod
    def make_inputs(cls, seed: int) -> list[dict]:
        rng = _rng(seed, 3)
        ocb = ocb_process()
        pool = []
        for k in range(cls.POOL):
            kind = cls.KINDS[k % len(cls.KINDS)]
            if kind == "ordered-mixture":
                w, noise = _ordered_mixture(rng), None
            elif kind == "random-valid":
                w, noise = sampling.random_valid_process(rng, 2, float(rng.uniform(0.4, 0.7))), None
            else:
                # Every fourth OCB input is noiseless and must not certify.
                noise = 0.0 if (k // len(cls.KINDS)) % 4 == 0 else float(rng.uniform())
                w = _with_white_noise(ocb, noise)
            pool.append({"kind": kind, "noise": noise, "process": w})
        return pool

    @staticmethod
    def op(api, inp: dict):
        validity = api.validate_process(inp["process"])
        sep = api.separability_heuristic(inp["process"])
        return SimpleNamespace(validity=validity, separability=sep)


WORKLOADS = {w.name: w for w in (RunBuiltins, SweepEta, SwitchFamily, ProcessFamily)}
