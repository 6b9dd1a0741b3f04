"""Output checks against the independent references in ``tests/oracles.py``.

Nothing here calls the icolab solver whose output it checks: states come
from the oracle's state-vector double switch, CHSH values from Horodecki's
formula, causal verdicts from the vertex-enumeration LP, and separability
certificates are re-checked with plain numpy partial traces.

Each ``check_*`` function raises :class:`CheckFailed` on a mismatch.
"""
from __future__ import annotations

import json

import numpy as np
import oracles

STATE_TOL = 1e-9
CHSH_TOL = 1e-6
CERT_TOL = 1e-8
RECON_TOL = 1e-5

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)
_NAMED = {
    "I": np.eye(2, dtype=np.complex128),
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0),
    "Z": _PAULI[2],
}
_NAMED_STATES = {"0": np.array([1, 0], dtype=np.complex128), "1": np.array([0, 1], dtype=np.complex128)}


class CheckFailed(Exception):
    """An op's output disagrees with the independent reference."""


def _close(what: str, got, want, tol: float) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not err <= tol:
        raise CheckFailed(f"{what}: off by {err:.3g} (tolerance {tol:g})")


def _equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, reference {want!r}")


# --- states ---------------------------------------------------------------

def _branch(u_a, u_b, v, psi, order: str) -> np.ndarray:
    """Joint target vector t (x) t of one definite order, from the oracle's
    single-v double switch with all control weight on that order."""
    amps, control = ((1.0, 0.0), [1.0, 0.0]) if order == "AB" else ((0.0, 1.0), [0.0, 1.0])
    _, vec = oracles.double_switch_conditioned(u_a, u_b, v, psi, *amps, control)
    return vec


def _control_vector(theta: float, phi: float, outcome: str) -> np.ndarray:
    """Eigenvector of the (theta, phi) Bloch direction; '+' is eigenvalue +1."""
    if outcome == "+":
        return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    return np.array([-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)])


def _conditioned(b0, b1, control, visibility: float) -> tuple[float, np.ndarray]:
    """Condition |0>b0 + |1>b1, its control coherence damped by visibility,
    on the control vector."""
    c0, c1 = np.conj(control)
    a = c0 * b0 + c1 * b1
    rho = visibility * oracles.dm(a) + (1.0 - visibility) * (
        abs(c0) ** 2 * oracles.dm(b0) + abs(c1) ** 2 * oracles.dm(b1)
    )
    p = float(np.real(np.trace(rho)))
    return p, rho / p


def switch_state(u_a, u_b, v0, v1, psi, alpha, beta, visibility, control):
    """(probability, target state) of a coherent double switch conditioned
    on the control vector; single-v specs at full visibility are also
    compared with the oracle's own conditioning."""
    b0 = alpha * _branch(u_a, u_b, v0, psi, "AB")
    b1 = beta * _branch(u_a, u_b, v1, psi, "BA")
    p, rho = _conditioned(b0, b1, control, visibility)
    if visibility == 1.0 and np.array_equal(v0, v1):
        p_direct, vec = oracles.double_switch_conditioned(u_a, u_b, v0, psi, alpha, beta, control)
        _close("oracle self-consistency (probability)", p, p_direct, STATE_TOL)
        _close("oracle self-consistency (state)", rho, oracles.dm(vec), STATE_TOL)
    return p, rho


def scenario_state(cfg: dict) -> tuple[float, np.ndarray]:
    """(conditioning probability, target state) of a scenario config echo."""
    u_a, u_b, v0, v1 = (_NAMED[cfg[k]] for k in ("u_a", "u_b", "v0", "v1"))
    psi = _NAMED_STATES[cfg["psi_t0"]]
    alpha, beta = (complex(a) for a in cfg["control_amplitudes"])
    mode = cfg["order_mode"]
    if mode == "classical-mixture" and cfg["conditioning"] is None:
        q = cfg["mixture_q"]
        rho = q * oracles.dm(_branch(u_a, u_b, v0, psi, "AB")) + (1 - q) * oracles.dm(
            _branch(u_a, u_b, v1, psi, "BA")
        )
        return 1.0, rho
    if mode == "coherent":
        b0, b1 = alpha * _branch(u_a, u_b, v0, psi, "AB"), beta * _branch(u_a, u_b, v1, psi, "BA")
    elif mode == "definite-AB" and cfg["env_flag"]:
        b0, b1 = alpha * _branch(u_a, u_b, v0, psi, "AB"), beta * _branch(u_a, u_b, v1, psi, "AB")
    else:
        raise CheckFailed(f"no reference for order_mode {mode!r}")
    if cfg["conditioning"] != {"basis": "plus_minus", "outcome": "+"}:
        raise CheckFailed(f"no reference for conditioning {cfg['conditioning']!r}")
    return _conditioned(b0, b1, np.array([1.0, 1.0]) / np.sqrt(2.0), cfg["visibility"])


# --- correlations ---------------------------------------------------------

def _bloch_projectors(theta: float, phi: float):
    n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    obs = sum(c * s for c, s in zip(n, _PAULI))
    return (np.eye(2) + obs) / 2.0, (np.eye(2) - obs) / 2.0


def behavior_table(rho, angles_a, angles_b) -> np.ndarray:
    """Born-rule table [x, y, o1, o2] at settings given as (theta, phi) pairs."""
    pa = [_bloch_projectors(*a) for a in angles_a]
    pb = [_bloch_projectors(*b) for b in angles_b]
    table = np.empty((len(pa), len(pb), 2, 2))
    for x, y, o1, o2 in np.ndindex(table.shape):
        table[x, y, o1, o2] = np.real(np.trace(rho @ oracles.kron(pa[x][o1], pb[y][o2])))
    return table


def chsh_of_table(table: np.ndarray) -> float:
    e = table[:, :, 0, 0] - table[:, :, 0, 1] - table[:, :, 1, 0] + table[:, :, 1, 1]
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def _angles(v: np.ndarray) -> tuple[float, float]:
    v = v / np.linalg.norm(v)
    return float(np.arccos(np.clip(v[2], -1.0, 1.0))), float(np.arctan2(v[1], v[0]))


def horodecki_settings(rho):
    """Optimal CHSH settings of a two-qubit state from the SVD of its
    correlation matrix (Horodecki et al., Phys. Lett. A 200, 340, 1995)."""
    t = np.array([[np.real(np.trace(rho @ oracles.kron(si, sj))) for sj in _PAULI] for si in _PAULI])
    _, s, vt = np.linalg.svd(t)
    theta = np.arctan2(s[1], s[0])
    bs = [np.cos(theta) * vt[0] + sign * np.sin(theta) * vt[1] for sign in (1.0, -1.0)]
    as_ = []
    for combo in (bs[0] + bs[1], bs[0] - bs[1]):
        a = t @ combo
        as_.append(a if np.linalg.norm(a) > 1e-12 else vt[0])
    return [_angles(a) for a in as_], [_angles(b) for b in bs]


def causal_verdict(table: np.ndarray) -> str:
    return "causal" if oracles.causal_polytope_member(table) else "not-causal"


# --- process certificates -------------------------------------------------

def _reset(w: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    """Replace qubit factors of a 4-qubit operator by identity/2 after
    tracing them out (factor order A_I, A_O, B_I, B_O)."""
    t = w.reshape((2,) * 8)
    for f in factors:
        reduced = np.trace(t, axis1=f, axis2=f + 4) / 2.0
        t = np.expand_dims(np.expand_dims(reduced, f), f + 4) * np.eye(2).reshape(
            [2 if k in (f, f + 4) else 1 for k in range(8)]
        )
    return t.reshape(16, 16)


def _order_defect(w: np.ndarray, order: str) -> float:
    """Distance of w from the comb of the given order: the last output is
    traced-and-replaced for free, and so is the first output once the
    second party is discarded."""
    first_o, second_i, second_o = (1, 2, 3) if order == "AB" else (3, 0, 1)
    last = np.linalg.norm(w - _reset(w, (second_o,)))
    discarded = _reset(w, (second_i, second_o))
    first = np.linalg.norm(discarded - _reset(discarded, (first_o,)))
    return float(max(last, first))


def check_certificate(w: np.ndarray, cert) -> None:
    """Re-check a decomposition w = q w_ab + (1-q) w_ba from scratch."""
    q, w_ab, w_ba = cert
    if not 0.0 <= q <= 1.0:
        raise CheckFailed(f"certificate weight {q} outside [0, 1]")
    for part, order in ((w_ab.matrix, "AB"), (w_ba.matrix, "BA")):
        _close(f"{order} component Hermiticity", part, part.conj().T, CERT_TOL)
        low = float(np.linalg.eigvalsh(part)[0])
        if low < -CERT_TOL:
            raise CheckFailed(f"{order} component has eigenvalue {low:.3g}")
        _close(f"{order} component trace", np.real(np.trace(part)), 4.0, CERT_TOL)
        defect = _order_defect(part, order)
        if defect > CERT_TOL:
            raise CheckFailed(f"{order} component leaves its order subspace by {defect:.3g}")
    recon = np.linalg.norm(q * w_ab.matrix + (1 - q) * w_ba.matrix - w) / max(1.0, np.linalg.norm(w))
    if recon > RECON_TOL:
        raise CheckFailed(f"certificate reconstructs the process only to {recon:.3g}")


# --- per-workload checks ----------------------------------------------------

def check_run_builtins(inp: dict, out: bytes) -> None:
    report = json.loads(out)
    cfg = report["scenario"]
    _equal("scenario", cfg["scenario"], inp["scenario"])
    _equal("seed", report["seed"], inp["seed"])
    p, rho = scenario_state(cfg)
    if cfg["conditioning"] is not None:
        _close("conditioning probability", report["states"]["conditioning"]["probability"], p, STATE_TOL)
    _close("negativity", report["states"]["negativity"], oracles.negativity(rho, 2, 2), STATE_TOL)
    _close("CHSH maximum", report["chsh"]["value"], oracles.horodecki_chsh_max(rho), CHSH_TOL)
    settings = report["chsh"]["settings"]
    table = behavior_table(rho, settings["party1"], settings["party2"])
    _close("CHSH at the reported settings", report["chsh"]["value"], chsh_of_table(table), STATE_TOL)
    _equal("causal verdict", report["causal"]["verdict"], causal_verdict(table))
    proc = report["process"]
    _equal("process validity", proc["validity"]["verdict"], "valid")
    _equal("separable", proc["separability"]["separable"], cfg["order_mode"] != "coherent")


def check_sweep_eta(inp: tuple, out: str) -> None:
    cfg, eta = inp
    row = out.strip().splitlines()[-1].split(",")
    _equal("grid value", float(row[0]), eta)
    p, rho = scenario_state({**cfg.echo, "visibility": eta})
    _close("negativity", float(row[2]), oracles.negativity(rho, 2, 2), STATE_TOL)
    _close("CHSH maximum", float(row[1]), oracles.horodecki_chsh_max(rho), CHSH_TOL)
    _equal("causal verdict", row[3], causal_verdict(behavior_table(rho, *horodecki_settings(rho))))


def check_switch_family(inp: dict, out) -> None:
    control = _control_vector(inp["theta"], inp["phi"], inp["outcome"])
    p, rho = switch_state(
        inp["u_a"], inp["u_b"], inp["v0"], inp["v1"], inp["psi"],
        inp["alpha"], inp["beta"], inp["visibility"], control,
    )
    _close("conditioning probability", out.probability, p, STATE_TOL)
    _close("conditioned state", out.rho, rho, STATE_TOL)
    _close("negativity", out.negativity, oracles.negativity(rho, 2, 2), STATE_TOL)
    _close("CHSH maximum", out.chsh.value, oracles.horodecki_chsh_max(rho), CHSH_TOL)
    c1, c2 = out.chsh.settings
    table = behavior_table(rho, c1.angles, c2.angles)
    _close("behavior table", out.table.probs, table, STATE_TOL)
    _close("CHSH at the returned settings", out.chsh.value, chsh_of_table(table), STATE_TOL)
    verdict = "causal" if hasattr(out.verdict, "q") else "not-causal"
    _equal("causal verdict", verdict, causal_verdict(table))


def check_process_family(inp: dict, out) -> None:
    _equal("validity", out.validity.verdict, "valid")
    cert = out.separability.certificate
    if inp["kind"] == "ordered-mixture" and cert is None:
        raise CheckFailed("ordered mixture got no separability certificate")
    if inp["kind"] == "ocb" and inp["noise"] == 0.0 and cert is not None:
        raise CheckFailed("noiseless OCB process was certified separable")
    if cert is not None:
        check_certificate(inp["process"].matrix, cert)


CHECKS = {
    "run-builtins": check_run_builtins,
    "sweep-eta": check_sweep_eta,
    "switch-family": check_switch_family,
    "process-family": check_process_family,
}
