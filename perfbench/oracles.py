"""Output checks.  Every item's output passes these or counts as failed.

The checks recompute what they can in the benchmark's own code (the 1-D
product formula, drifts, complex balance, conservation laws) and compare with
tolerances, never bytes, so a deliberate float-level change still passes.
Bounds mirror the test suite: 1e-6 for ODE endpoints as in the attraction
property test, 1e-10 total variation for stationary laws as in the
birth-death box-stability criterion.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from networks import NETWORKS, ONE_SPECIES, network_arrays

STATUSES = ("holds", "fails", "undetermined")
STATIONARY_TV = 1e-10     # criterion 6: tv(box 60, box 80) < 1e-10
STATIONARY_REL = 1e-6     # relative error where the exact law is >= REL_FLOOR
REL_FLOOR = 1e-10
ODE_TOL = 1e-6            # attraction test: drift, cb and class checks


class CheckFailed(Exception):
    pass


def need(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def check(item, record) -> dict:
    """Raise CheckFailed if the output is wrong; else return facts about it.

    The facts are ``states`` (CTMC states the item enumerated and solved)
    and ``statuses`` (verdict and implication statuses compared with the
    goldens on the default seed).
    """
    if item.kind == "ode":
        return _check_ode(item, record)
    need(record["rc"] == 0, f"exit code {record['rc']}: {record['stderr'].strip()[:200]}")
    try:
        payload = json.loads(record["stdout"])
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    command = item.params["command"]
    return {"parse": _check_parse, "classify-state": _check_classify_state,
            "analyze": _check_analyze, "stationary": _check_stationary,
            "simulate": _check_simulate}[command](item, payload)


# ---------------------------------------------------------------------------
# recomputations
# ---------------------------------------------------------------------------

def det_rates(Y, kappa, c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    return kappa * np.prod(c[None, :] ** Y, axis=1)


def complex_balance_ok(Y, RV, kappa, c, tol) -> bool:
    """|outflow - inflow| <= tol (1 + |out| + |in|) at every complex."""
    rates = det_rates(Y, kappa, c)
    targets = Y + RV
    flows = {}
    for k in range(len(kappa)):
        src, tgt = tuple(Y[k]), tuple(targets[k])
        flows.setdefault(src, [0.0, 0.0])[0] += rates[k]
        flows.setdefault(tgt, [0.0, 0.0])[1] += rates[k]
    return all(abs(o - i) <= tol * (1.0 + abs(o) + abs(i)) for o, i in flows.values())


def conservation_laws(RV) -> list[list[Fraction]]:
    """Exact basis of the left kernel of the reaction vectors."""
    rows = [[Fraction(int(round(v))) for v in col] for col in np.asarray(RV).T]
    n, r = len(rows), len(rows[0]) if rows else 0
    # augmented [RV^T-columns | I]: reduce the RV part, read kernel rows
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    pivot_row = 0
    for col in range(r):
        pivot = next((i for i in range(pivot_row, n) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[pivot_row], aug[pivot] = aug[pivot], aug[pivot_row]
        for i in range(n):
            if i != pivot_row and aug[i][col] != 0:
                f = aug[i][col] / aug[pivot_row][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[pivot_row])]
        pivot_row += 1
    return [row[r:] for row in aug[pivot_row:]]


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def _verdict_statuses(prefix: str, report: dict, keys) -> dict:
    out = {}
    for key in keys:
        status = report[key]["status"]
        need(status in STATUSES, f"{prefix}{key}: unknown status {status!r}")
        need((status == "fails") == (report[key]["witness"] is not None),
             f"{prefix}{key}: witness present iff fails")
        out[prefix + key] = status
    if out.get(prefix + "rb") == "holds":
        for key in ("cb", "rvb", "cyb"):
            need(out.get(prefix + key) != "fails", f"{prefix}rb holds but {key} fails")
    return out


def _check_parse(item, payload):
    species, complexes, Y, _, _ = network_arrays(NETWORKS[item.network])
    need(payload["species"] == species, f"species {payload['species']} != {species}")
    need((payload["n"], payload["m"], payload["r"]) == (len(species), len(complexes), len(Y)),
         "n/m/r do not match the network text")
    need(isinstance(payload["canonical"], str) and payload["canonical"], "empty canonical form")
    return {"states": 0, "statuses": {}}


def _check_classify_state(item, payload):
    _, _, Y, RV, kappa = network_arrays(NETWORKS[item.network])
    c = np.array(item.params["state"])
    need(np.allclose(payload["state"], c, rtol=1e-15, atol=0), "state echo differs")
    drift = float(np.max(np.abs(RV.T @ det_rates(Y, kappa, c))))
    scale = 1.0 + float(np.max(det_rates(Y, kappa, c)))
    need(abs(payload["drift_norm"] - drift) <= 1e-9 * scale,
         f"drift_norm {payload['drift_norm']} != {drift}")
    statuses = _verdict_statuses("", payload, ("rb", "cb", "rvb", "cyb", "equilibrium"))
    cb_own = complex_balance_ok(Y, RV, kappa, c, 1e-9)
    need(cb_own == (statuses["cb"] == "holds"), "cb verdict disagrees with the flows")
    return {"states": 0, "statuses": statuses}


def _check_analyze(item, payload):
    statuses = {}
    for entry in payload["implications"]:
        need(entry["status"] != "violated", f"implication {entry['arrow']} violated: {entry['detail']}")
        statuses["impl." + entry["arrow"]] = entry["status"]
    det = payload["det"]
    for key in ("rb_state", "cb_state"):
        statuses["det." + key] = det[key] is not None
    statuses["det.cyb_system"] = det["cyb_system"]
    statuses["det.rvb_states"] = len(det["rvb_states"])
    _, _, Y, RV, kappa = network_arrays(NETWORKS[item.network])
    if det["cb_state"] is not None:
        need(complex_balance_ok(Y, RV, kappa, det["cb_state"], 1e-6), "cb_state is not complex balanced")
    states = 0
    for i, comp in enumerate(payload["stoch"]["components"]):
        need("error" not in comp, f"component {i}: {comp.get('error')}")
        states += comp["states"]
        statuses.update(_verdict_statuses(f"comp{i}.", comp["report"],
                                          ("rb", "cb", "rvb", "cyb", "stationary")))
    if item.network == "six_complex" and item.params["seed_state"][2] in (1, 2):
        # criterion 9: rvb only on the x_C = 1 slice, rb on neither
        level = item.params["seed_state"][2]
        need(statuses["comp0.rvb"] == ("holds" if level == 1 else "fails"),
             f"six_complex C={level}: rvb {statuses['comp0.rvb']}")
        need(statuses["comp0.rb"] == "fails", f"six_complex C={level}: rb {statuses['comp0.rb']}")
    return {"states": states, "statuses": statuses}


def _distribution(entries):
    states = [tuple(e["state"]) for e in entries]
    probs = np.array([e["p"] for e in entries], dtype=float)
    need(states == sorted(set(states)), "distribution states are not sorted and unique")
    need(bool(np.all(probs >= 0.0)), "negative probability")
    need(abs(float(probs.sum()) - 1.0) <= 1e-9, f"probabilities sum to {probs.sum()!r}")
    return states, probs


def _check_stationary(item, payload):
    comp = payload["component"]
    states, probs = _distribution(payload["distribution"])
    need(len(states) <= comp["states"], "support larger than the component")
    statuses = _verdict_statuses("", payload["report"], ("rb", "cb", "rvb", "cyb", "stationary"))
    if item.network in ONE_SPECIES and item.params["seed_state"] == (0,):
        box = item.params["box"] if item.params["box"] is not None else 20
        need(comp["states"] == box + 1, f"component has {comp['states']} states, expected {box + 1}")
        exact = one_species_law(item.network, box)
        got = np.zeros(box + 1)
        for (x,), p in zip(states, probs):
            need(0 <= x <= box, f"state {x} outside the box")
            got[x] = p
        tv = 0.5 * float(np.abs(got - exact).sum())
        need(tv <= STATIONARY_TV, f"total variation {tv:.3e} from the product formula")
        big = exact >= REL_FLOOR
        rel = float(np.max(np.abs(got[big] / exact[big] - 1.0)))
        need(rel <= STATIONARY_REL, f"relative error {rel:.3e} from the product formula")
        # every birth-death (and this rvb-by-design) chain is rvb
        need(statuses["rvb"] == "holds", f"rvb {statuses['rvb']} on a 1-D rvb chain")
    if "poisson" in payload and payload["poisson"] is not None:
        tv = payload["poisson"]["tv_distance"]
        need(0.0 <= tv <= 1.0, f"poisson tv {tv} outside [0, 1]")
    return {"states": comp["states"], "statuses": statuses,
            "support": len(states)}


def one_species_law(network: str, box: int) -> np.ndarray:
    """Stationary law of a 1-D chain on {0..box} from the unit-step ladder.

    The three one-species chains are reaction vector balanced, so
    pi(x+1)/pi(x) = (rate of +1 jumps at x) / (rate of -1 jumps at x+1),
    and reflecting truncation keeps that ratio.  Computed in log space.
    """
    _, _, Y, RV, kappa = network_arrays(NETWORKS[network])
    x = np.arange(box + 1, dtype=float)
    up = np.zeros(box + 1)
    down = np.zeros(box + 1)
    for a, step, k in zip(Y[:, 0].astype(int), RV[:, 0].astype(int), kappa):
        ff = np.ones_like(x)
        for j in range(a):
            ff = ff * np.maximum(x - j, 0.0)
        if step == 1:
            up += k * ff
        elif step == -1:
            down += k * ff
    with np.errstate(divide="ignore"):
        steps = np.log(up[:-1]) - np.log(down[1:])
    logp = np.concatenate([[0.0], np.cumsum(steps)])
    top = float(np.max(logp))
    w = np.exp(logp - top)
    return w / math.fsum(w)


def _check_simulate(item, payload):
    need(tuple(payload["init"]) == tuple(item.params["init"]), "init echo differs")
    need(payload["seed"] == item.params["ssa_seed"], "seed echo differs")
    _distribution(payload["occupancy"])
    tv = payload["compare"]["tv_distance"]
    need(0.0 <= tv <= 1.0, f"tv_distance {tv} outside [0, 1]")
    return {"states": 0, "statuses": {}}


# ---------------------------------------------------------------------------
# ODE endpoints
# ---------------------------------------------------------------------------

def _check_ode(item, record):
    need(record["error"] is None, f"raised {record['error']}")
    _, _, Y, RV, kappa = network_arrays(item.text)
    c0 = np.array(item.c0)
    c = np.array(record["state"])
    need(bool(np.all(np.isfinite(c)) and np.all(c > 0)), "endpoint is not positive and finite")
    drift = float(np.max(np.abs(RV.T @ det_rates(Y, kappa, c))))
    need(drift < ODE_TOL, f"drift {drift:.3e} at the endpoint")
    need(complex_balance_ok(Y, RV, kappa, c, ODE_TOL), "endpoint is not complex balanced")
    need(record["cb_status"] == "holds", f"classify_state says cb {record['cb_status']}")
    for law in conservation_laws(RV):
        w = np.array([float(v) for v in law])
        need(abs(float(w @ (c - c0))) <= ODE_TOL, "endpoint left the compatibility class")
    need(record["cb_state"] is not None, "no complex balanced state on a deficiency-zero system")
    need(complex_balance_ok(Y, RV, kappa, record["cb_state"], ODE_TOL),
         "solve_complex_balanced returned a state that is not complex balanced")
    return {"states": 0, "statuses": {"cb": record["cb_status"]}}
