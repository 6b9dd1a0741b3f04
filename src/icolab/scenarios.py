"""Named, config-driven experiment scenarios with deterministic reports.

A scenario builds a double switch (two target lines sharing one control or
environment qubit), conditions on a control outcome, and runs the full
analysis chain: CHSH optimization, negativity, causal-polytope membership
of the conditioned behavior, the temporal-locality audit (when a definite-
order model exists), and a process-matrix view with validity and
separability evidence. Reports are canonical JSON: an identical config
gives byte-identical bytes (wall-clock duration is kept out of the report
and sent to stderr by the CLI). The config's ``seed`` is echoed in the
report, but no stage draws random numbers.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .bell import (
    CHSHResult,
    MeasurementSetting,
    TSIRELSON,
    behavior,
    chsh,
    chsh_settings,
    classical_chsh_bound,
    optimize_chsh,
)
from .causal import (
    CausalDecomposition,
    causal_membership,
    lambda_model_from_definite_order,
    marginal_dependence,
    temporal_locality_audit,
)
from .linalg import NAMED_UNITARIES, SpaceLayout, ket, partial_trace, projector, tensor
from .process import (
    ProcessMatrix,
    certify_decomposition,
    mix,
    neutral_process,
    quantum_switch_process,
    separability_heuristic,
    standard_layout,
    switch_branch_vector,
    validate_process,
)
from .switch import (
    ControlMeasurement,
    DoubleSwitchSpec,
    SwitchSpec,
    condition_on_control,
    conditioned_target_state,
    double_switch_output,
    reduced_target_state,
    target_entanglement,
)

# conditioned_target_state and reduced_target_state are not called here: the
# double-switch state is built once per run and conditioned in place. Nor is
# optimize_chsh: the correlation stage takes chsh_settings and builds its one
# Born table itself. Nor are mix and quantum_switch_process: the process is
# formed from its branch vectors. All five stay names of this module only
# because perfbench/tracing.py instruments every name in its SCENARIO_LAYERS here.

REPORT_SCHEMA = "icolab/run-report/v6"

NAMED_STATES = {
    "0": np.array([1.0, 0.0]),
    "1": np.array([0.0, 1.0]),
    "+": np.array([1.0, 1.0]) / np.sqrt(2.0),
    "-": np.array([1.0, -1.0]) / np.sqrt(2.0),
}

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class ConfigError(ValueError):
    """Configuration could not be parsed or validated."""


# Every key a config may set, at its default: the coherent preset and the
# base of each built-in and of "custom". The separability search and the
# temporal-locality audit run at their library defaults (2000 steps, 1e-10).
_BASE_SCENARIO = {
    "scenario": "double-switch-coherent",
    "description": "Coherent-order double switch (H/Z), conditioned on control +",
    "u_a": "H",
    "u_b": "Z",
    "v0": "I",
    "v1": "I",
    "psi_t0": "0",
    "control_amplitudes": [_INV_SQRT2, _INV_SQRT2],
    "order_mode": "coherent",
    "mixture_q": 0.5,
    "env_flag": False,
    "visibility": 1.0,
    "settings": "optimize",
    "conditioning": {"basis": "plus_minus", "outcome": "+"},
    "seed": 20260815,
    "out": None,
}

_CONFIG_KEYS = set(_BASE_SCENARIO)

BUILTIN_SCENARIOS: dict[str, dict] = {
    name: {**_BASE_SCENARIO, "scenario": name, **diff}
    for name, diff in {
        "double-switch-coherent": {},
        "classical-order-baseline": {
            "description": "Classical mixture of the two orders with trivial free evolution",
            "order_mode": "classical-mixture",
            "conditioning": None,
        },
        "a5-violated-definite-order": {
            "description": "Definite order with an environment flag selecting the free evolution",
            "v1": "Z",
            "order_mode": "definite-AB",
            "env_flag": True,
        },
    }.items()
}


def _resolve_matrix(value, what: str) -> np.ndarray:
    if isinstance(value, str):
        if value not in NAMED_UNITARIES:
            raise ConfigError(
                f"{what}: unknown unitary name {value!r}; have {sorted(NAMED_UNITARIES)}"
            )
        return NAMED_UNITARIES[value].copy()
    try:
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != (2, 2, 2):
            raise ValueError
        return arr[..., 0] + 1j * arr[..., 1]
    except ValueError:
        raise ConfigError(
            f"{what}: expected a unitary name or a 2x2 matrix of [re, im] pairs"
        ) from None


def _resolve_state(value, what: str) -> np.ndarray:
    if isinstance(value, str):
        if value not in NAMED_STATES:
            raise ConfigError(f"{what}: unknown state name {value!r}")
        return NAMED_STATES[value].copy()
    try:
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError
        return arr[:, 0] + 1j * arr[:, 1]
    except ValueError:
        raise ConfigError(f"{what}: expected a state name or [re, im] amplitude pairs") from None


def _number(value, key: str) -> float:
    """A JSON number, not a bool or a numeric string, so the echo says what ran."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _resolve_amplitude(value, key: str) -> complex:
    """A number or an [re, im] pair of numbers."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], key), _number(value[1], key))
    return complex(_number(value, key))


def _resolve_settings(value):
    if value == "optimize":
        return "optimize"
    try:
        angles = [[[_number(t, "settings") for t in pair] for pair in party] for party in value]
        pair = tuple(MeasurementSetting(tuple(map(tuple, party))) for party in angles)
    except (TypeError, ValueError):
        pair = None
    if pair is None or len(pair) != 2 or any(
        c.inputs != 2 or not np.all(np.isfinite(c.angles)) for c in pair
    ):
        raise ConfigError(
            "settings must be 'optimize' or, for each of two parties, two [theta, phi]"
            " pairs of finite numbers"
        )
    return pair


def _resolve_conditioning(value):
    if value is None:
        return None
    try:
        basis, outcome = value["basis"], value["outcome"]
    except (TypeError, KeyError):
        raise ConfigError("conditioning needs 'basis' and 'outcome'") from None
    if basis == "plus_minus":
        m = ControlMeasurement.plus_minus()
    elif basis == "computational":
        m = ControlMeasurement.computational()
    elif isinstance(basis, (list, tuple)) and len(basis) == 2:
        m = ControlMeasurement.from_bloch(
            _number(basis[0], "conditioning.basis"), _number(basis[1], "conditioning.basis")
        )
    else:
        raise ConfigError(f"unknown conditioning basis {basis!r}")
    if outcome not in m.labels:
        raise ConfigError(f"outcome {outcome!r} not among {m.labels}")
    return m, str(outcome)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario parameters plus the merged raw config dict
    (the echo), which is reproduced verbatim in every report. ``spec``, built
    once by ``from_dict``, is the one description of the double switch; both
    target lines share its unitaries and input state."""

    name: str
    spec: DoubleSwitchSpec
    settings: object
    conditioning: tuple[ControlMeasurement, str] | None
    seed: int
    out: str | None
    echo: dict

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        name = data.get("scenario")
        if not isinstance(name, str):
            raise ConfigError(f"scenario must be a string, got {name!r}")
        if name in BUILTIN_SCENARIOS:
            merged = {**BUILTIN_SCENARIOS[name], **data}
        elif name == "custom":
            merged = {**_BASE_SCENARIO, **data}
            merged["description"] = data.get("description", "custom scenario")
        else:
            raise ConfigError(
                f"unknown scenario {name!r}; choose from {sorted(BUILTIN_SCENARIOS)} or 'custom'"
            )
        cond = merged["conditioning"] if isinstance(merged["conditioning"], dict) else {}
        unknown = set(merged) - _CONFIG_KEYS | {f"conditioning.{k}" for k in set(cond) - {"basis", "outcome"}}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        # JSON types are checked, not coerced, so the echo says what ran
        if not isinstance(merged["env_flag"], bool):
            raise ConfigError(f"env_flag must be true or false, got {merged['env_flag']!r}")
        if isinstance(merged["seed"], bool) or not isinstance(merged["seed"], int):
            raise ConfigError(f"seed must be an integer, got {merged['seed']!r}")
        for key in ("description", "order_mode"):
            if not isinstance(merged[key], str):
                raise ConfigError(f"{key} must be a string, got {merged[key]!r}")
        if not isinstance(merged["out"], (str, type(None))):
            raise ConfigError(f"out must be a path string or null, got {merged['out']!r}")
        visibility = _number(merged["visibility"], "visibility")
        mixture_q = _number(merged["mixture_q"], "mixture_q")
        amps = merged["control_amplitudes"]
        if not isinstance(amps, (list, tuple)) or len(amps) != 2:
            raise ConfigError("control_amplitudes must be a pair")
        try:
            switch = SwitchSpec(
                u_a=_resolve_matrix(merged["u_a"], "u_a"),
                u_b=_resolve_matrix(merged["u_b"], "u_b"),
                v0=_resolve_matrix(merged["v0"], "v0"),
                v1=_resolve_matrix(merged["v1"], "v1"),
                psi_t0=_resolve_state(merged["psi_t0"], "psi_t0"),
            )
            spec = DoubleSwitchSpec(
                switch1=switch,
                switch2=switch,
                control_amplitudes=tuple(
                    _resolve_amplitude(amp, f"control_amplitudes[{i}]") for i, amp in enumerate(amps)
                ),
                order_mode=merged["order_mode"],
                mixture_q=mixture_q,
                env_flag=merged["env_flag"],
                visibility=visibility,
            )
            return cls(
                name=merged["scenario"],
                spec=spec,
                settings=_resolve_settings(merged["settings"]),
                conditioning=_resolve_conditioning(merged["conditioning"]),
                seed=merged["seed"],
                out=merged["out"],
                echo=merged,
            )
        except (TypeError, ValueError) as exc:  # ConfigError included
            raise ConfigError(str(exc)) from None


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return ScenarioConfig.from_dict(data)


@dataclass(frozen=True)
class RunReport:
    """In-memory run result. ``report`` is the canonical (byte-stable)
    content; the wall-clock duration rides alongside and never enters the
    serialized bytes."""

    report: dict
    duration_s: float

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.report, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _chsh_section(result: CHSHResult) -> dict:
    c1, c2 = result.settings
    return {
        "value": result.value,
        "correlators": result.correlators.tolist(),
        "settings": {
            "party1": [list(a) for a in c1.angles],
            "party2": [list(a) for a in c2.angles],
        },
        "classical_bound": classical_chsh_bound(),
        "tsirelson_bound": float(TSIRELSON),
    }


# the audit's probe observables, each with its eigenbasis (+1 eigenvector first)
_AUDIT_PROBES = {"Z": NAMED_UNITARIES["I"], "X": NAMED_UNITARIES["H"]}


# what a CHSH value above 2 rules out depends on A5, as in _CHSH_NOTES
_CHSH_REASONS = {
    True: "a CHSH value above 2 already rules out any temporally local account of the"
    " conditioned statistics",
    False: "A5 is not satisfied, so a CHSH value above 2 does not by itself rule out a"
    " temporally local account of the conditioned statistics",
}


def _audit_section(cfg: ScenarioConfig) -> dict:
    """The ``temporal_locality`` section. Its lambda is always the strict
    reading, the full state just before each measurement, and ``mode`` says so."""
    spec = cfg.spec
    if spec.indefinite_order:
        return {
            "applicable": False,
            "mode": "strict",
            "reason": "order is coherently indefinite, so no definite-order lambda model exists; "
            + _CHSH_REASONS[spec.a5_satisfied],
        }
    sw = spec.switch1
    probes = list(_AUDIT_PROBES.values())
    branches = spec.branches
    steps = [(sw.v0, sw.v1)[b.index] @ (sw.u_a if b.order == "AB" else sw.u_b) for b in branches]
    if spec.coherent:
        # same-order branches of a retained environment: one controlled unitary
        b0, b1 = branches
        initial = b0.amplitude * tensor(ket(0), sw.psi_t0) + b1.amplitude * tensor(ket(1), sw.psi_t0)
        layout = SpaceLayout(("env", "target"), (2, sw.target_dim))
        controlled = tensor(projector(ket(0)), steps[0]) + tensor(projector(ket(1)), steps[1])
        evolutions = [(1.0, controlled)]
    else:
        initial, layout = sw.psi_t0, SpaceLayout(("target",), (sw.target_dim,))
        evolutions = [(b.weight, u) for b, u in zip(branches, steps)]
    model = lambda_model_from_definite_order(initial, layout, "target", probes, probes, evolutions)
    audit = temporal_locality_audit(model)
    return {
        "applicable": True,
        "probe_settings": list(_AUDIT_PROBES),
        "lambda": "full pre-measurement state description per branch",
        "mode": "strict",
        **audit.to_json_dict(),
    }


Decomposition = tuple[float, ProcessMatrix, ProcessMatrix]


def _one_order(w: ProcessMatrix, order: str) -> Decomposition:
    """The decomposition of a process of one order, padded with the neutral process."""
    neutral = neutral_process(w.layout)
    return (1.0, w, neutral) if order == "AB" else (0.0, neutral, w)


def _scenario_process(spec: DoubleSwitchSpec) -> tuple[ProcessMatrix, str, Decomposition | None]:
    """The scenario's process matrix, its construction label, and the
    decomposition (q, W_AB, W_BA) it was built from when it is a mixture of
    ordered processes (None when coherent branches run both orders), all
    formed from the branch vectors; only what is returned becomes a ProcessMatrix."""
    sw = spec.switch1
    layout = standard_layout(sw.target_dim, 2 * sw.target_dim)
    branches = spec.branches
    vecs = [switch_branch_vector(b.order, sw.psi_t0, (sw.v0, sw.v1)[b.index]) for b in branches]
    b0, b1 = branches[0], branches[-1]
    coherent = b0.amplitude is not None and b0.order != b1.order
    if coherent:
        w = complex(b0.amplitude) * vecs[0] + complex(b1.amplitude) * vecs[1]
        w = np.outer(w, w.conj())
        if spec.visibility == 1.0:
            return ProcessMatrix(w, layout), "coherent switch process (one target line)", None
    # each branch alone: the switch process that runs its order only
    ordered = [np.outer(x, x.conj()) for x in vecs]
    if len(branches) == 1:
        w = ProcessMatrix(ordered[0], layout)
        return w, f"definite-order process ({b0.order})", _one_order(w, b0.order)
    mixed = b0.weight * ordered[0] + (1.0 - b0.weight) * ordered[1]
    if b0.order == b1.order:
        w = ProcessMatrix(mixed, layout)
        return w, "environment-weighted mixture of same-order processes", _one_order(w, b0.order)
    # two orders: branch 0 runs AB
    eta = spec.visibility
    both = None if coherent and eta > 0.0 else (b0.weight, *(ProcessMatrix(m, layout) for m in ordered))
    if not coherent:
        return ProcessMatrix(mixed, layout), "classical mixture of the two ordered processes", both
    # Dephasing the control damps only the AB/BA cross terms:
    # W(eta) = eta |w><w| + (1 - eta) (|alpha|^2 W_AB + |beta|^2 W_BA)
    w = ProcessMatrix(eta * w + (1.0 - eta) * mixed, layout)
    return w, "partially dephased coherent switch process (one target line)", both


def _correlation_sections(config: ScenarioConfig) -> dict:
    """The ``states``, ``chsh`` and ``causal`` report sections: the (conditioned)
    target state, its CHSH value at optimized or fixed settings, and the
    causal-polytope verdict of the behavior at those settings."""
    spec = config.spec
    out = double_switch_output(spec)
    if out.ndim == 1:
        norm, density = float(np.linalg.norm(out)), projector(out)
    else:
        norm, density = float(np.real(np.trace(out))), out

    if config.conditioning is None:
        rho = partial_trace(density, spec.layout, ("target1", "target2"))
        conditioning_info = None
    else:
        m, outcome = config.conditioning
        p_cond, rho = condition_on_control(density, m, outcome, spec.layout)
        if p_cond <= 1e-12:
            raise ValueError(
                f"conditioning outcome {outcome!r} has probability {p_cond:.3g};"
                " the conditioned target state is undefined"
            )
        conditioning_info = {"measured": spec.layout.labels[0], "outcome": outcome, "probability": p_cond}
    negativity = target_entanglement(rho, (spec.switch1.target_dim, spec.switch2.target_dim))

    settings = chsh_settings(rho) if config.settings == "optimize" else config.settings
    table = behavior(rho, *settings)
    result = chsh(table, settings=settings)
    verdict = "causal" if isinstance(causal_membership(table), CausalDecomposition) else "not-causal"
    return {
        "states": {
            "output_norm": norm,
            "conditioning": conditioning_info,
            "negativity": negativity,
        },
        "chsh": _chsh_section(result),
        "causal": {"verdict": verdict, "marginal_dependence": max(marginal_dependence(table))},
    }


# CHSH above 2 rules out a temporally local model only under A5. Without A5 the
# note points to the temporal_locality section only when that section holds a
# definite-order model; keyed by (a5_satisfied, section applicable)
_NO_LOCAL_MODEL = (
    "CHSH exceeds the classical bound 2: conditioned target statistics admit no temporally local model"
)
_CHSH_NOTES = {
    (True, True): _NO_LOCAL_MODEL,
    (True, False): _NO_LOCAL_MODEL,
    (False, True): "CHSH exceeds the classical bound 2, but A5 is not satisfied: a definite-order"
    " model with an order- or environment-dependent free evolution can reproduce it; see"
    " temporal_locality section",
    (False, False): "CHSH exceeds the classical bound 2, but A5 is not satisfied, so it does not"
    " by itself rule out a temporally local account of the conditioned statistics",
}
_ORDER_NOTES = {
    "separable": "definite or mixed (separable decomposition certified)",
    "nonseparable": "indefinite (causal nonseparability witness certified)",
    "inconclusive": "undetermined (neither a decomposition nor a witness was certified)",
}


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Execute one scenario end to end; deterministic given the config."""
    t0 = time.perf_counter()
    spec = config.spec
    sections = _correlation_sections(config)
    audit_sec = _audit_section(config)
    w, construction, candidate = _scenario_process(spec)
    validity = validate_process(w)
    # a process built as a mixture of ordered ones carries its own certificate;
    # the search runs only without one
    sep = None if candidate is None else certify_decomposition(w, *candidate)
    source = "construction"
    if sep is None:
        sep, source = separability_heuristic(w), "search"

    notes = [
        (
            _CHSH_NOTES[spec.a5_satisfied, audit_sec["applicable"]]
            if sections["chsh"]["value"] > classical_chsh_bound() + 1e-9
            else "CHSH within the classical bound"
        ),
        "process-level order is " + _ORDER_NOTES[sep.verdict],
        (
            "within-switch events admit a definite-order lambda model; see"
            " temporal_locality section"
            if audit_sec.get("applicable")
            else "no definite-order lambda model applies to this scenario"
        ),
    ]

    report = {
        "schema": REPORT_SCHEMA,
        "scenario": config.echo,
        "assumptions": {
            "a5_satisfied": spec.a5_satisfied,
            "order_mode": spec.order_mode,
            "env_flag": spec.env_flag,
            "classical_order_variable": not spec.indefinite_order,
        },
        **sections,
        "temporal_locality": audit_sec,
        "process": {
            "construction": construction,
            "validity": validity.to_json_dict(),
            "separability": {**sep.to_json_dict(), "source": source},
        },
        "notes": notes,
        "seed": config.seed,
    }
    return RunReport(report=report, duration_s=time.perf_counter() - t0)


def sweep(config: ScenarioConfig, parameter: str, grid: list[float]) -> str:
    """One CSV row per grid point, from the state, CHSH and causal stages only."""
    if parameter not in ("eta", "q"):
        raise ConfigError(f"sweep parameter must be 'eta' or 'q', got {parameter!r}")
    if not grid:
        raise ConfigError("sweep grid must not be empty")
    if parameter == "q" and config.spec.order_mode != "classical-mixture":
        raise ConfigError("parameter 'q' applies to classical-mixture scenarios only")
    lines = [
        f"# scenario={config.name} seed={config.seed} parameter={parameter}",
        "param,S_opt,negativity,causal_verdict",
    ]
    key = "visibility" if parameter == "eta" else "mixture_q"
    for value in grid:
        point = ScenarioConfig.from_dict({**config.echo, key: value})
        sec = _correlation_sections(point)
        s_opt, neg = sec["chsh"]["value"], sec["states"]["negativity"]
        lines.append(f"{value!r},{s_opt!r},{neg!r},{sec['causal']['verdict']}")
    return "\n".join(lines) + "\n"


def list_scenarios() -> list[tuple[str, str]]:
    """Built-in scenario names and one-line descriptions, stable order."""
    return [(name, cfg["description"]) for name, cfg in BUILTIN_SCENARIOS.items()]
