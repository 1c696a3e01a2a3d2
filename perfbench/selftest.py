"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. The generators are deterministic per seed and differ between seeds.
2. Each oracle rejects a deliberately corrupted output (mutation check).
3. A held-out seed runs clean on every workload (short runs of run.py).
Exits 0 when all pass.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import run  # sets up paths and BLAS threads before numpy loads

import oracles
import workloads

HELD_OUT_SEED = 918273
failures: list[str] = []


def expect(cond: bool, message: str):
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        failures.append(message)


def test_generators_deterministic(tmp: Path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7, tmp / "a")
        b = workloads.build(name, 7, tmp / "b")
        c = workloads.build(name, 8, tmp / "c")
        key = lambda w: [(i.id, i.argv[2:], i.text, i.c0) for i in w.items]  # noqa: E731
        expect(key(a) == key(b), f"{name}: same seed gives the same items")
        expect(key(a) != key(c), f"{name}: another seed gives other items")
        expect(len({i.id for i in a.items}) == len(a.items), f"{name}: item ids are unique")


def _rejects(item, record, mutate, label):
    bad = copy.deepcopy(record)
    if "stdout" in bad and item.kind == "cli":
        payload = json.loads(bad["stdout"])
        mutate(payload)
        bad["stdout"] = json.dumps(payload)
    else:
        mutate(bad)
    try:
        oracles.check(item, bad)
    except oracles.CheckFailed as exc:
        expect(True, f"oracle rejects {label} ({exc})")
        return
    expect(False, f"oracle rejects {label}")


def _scale_p(index, factor):
    def mutate(payload):
        dist = payload["distribution"]
        dist[index]["p"] *= factor
        total = sum(e["p"] for e in dist)
        for e in dist:
            e["p"] /= total
    return mutate


def test_oracles_reject_corruption(tmp: Path):
    import crn

    files = workloads.NETWORKS
    for name, text in files.items():
        (tmp / f"{name}.crn").write_text(text, encoding="utf-8")
    cases = [
        workloads._stationary(tmp, "birth_death", 100, (0,)),
        workloads._analyze(tmp, "six_complex", 15, (0, 0, 1)),
        workloads._analyze(tmp, "square", None, (3, 0)),
        workloads._cli_item(tmp, "classify-state", "triangle", ["--state", "A=1,B=1"],
                            "cs", state=(1.0, 1.0)),
        workloads._cli_item(tmp, "parse", "square", [], "parse"),
        workloads._cli_item(tmp, "simulate", "birth_death",
                            ["--init", "A=0", "--t-end", "100", "--seed", "3", "--compare"],
                            "sim", init=(0,), t_end=100.0, ssa_seed=3),
    ]
    records = [run.run_item(item, {}) for item in cases]
    for item, record in zip(cases, records):
        oracles.check(item, record)  # the genuine output passes
    stationary, six, square, classify, parse, simulate = zip(cases, records)

    _rejects(*stationary, _scale_p(3, 1.001), "a stationary law off by 0.1% at one state")
    _rejects(*stationary, lambda p: p["distribution"].pop(0), "a stationary law missing a state")
    _rejects(*stationary, lambda p: p["report"]["rvb"].update(status="undetermined"),
             "a 1-D rvb chain not reported rvb")
    _rejects(*six, lambda p: p["stoch"]["components"][0]["report"]["rvb"].update(
        status="fails", witness={"state": [0], "condition": "rvb", "lhs": 1, "rhs": 2}),
        "six_complex C=1 reported not rvb")
    _rejects(*square, lambda p: p["implications"][0].update(status="violated"),
             "a violated implication")
    _rejects(*square, lambda p: p["det"].update(cb_state=[2.0, 1.0]),
             "a cb_state that is not complex balanced")
    _rejects(*classify, lambda p: p.update(drift_norm=p["drift_norm"] * 1.1 + 1e-3),
             "a wrong drift norm")
    _rejects(*classify, lambda p: p["cb"].update(status="holds", witness=None),
             "a cb verdict flipped to holds")
    _rejects(*parse, lambda p: p.update(species=["A"]), "a wrong species list")
    _rejects(*simulate, lambda p: p["compare"].update(tv_distance=1.5), "a tv distance above 1")
    _rejects(*simulate, lambda p: p["occupancy"][0].update(p=p["occupancy"][0]["p"] + 0.1),
             "an occupancy that does not sum to 1")

    text = workloads.random_deficiency_zero(__import__("numpy").random.default_rng(5))
    ode = workloads.Item("ode:t", "ode", "t", text=text, c0=(0.5,) * len(
        {ch for ch in text if ch in "ABCD"}))
    rec = run.run_item(ode, {"t": crn.parse_network(text)})
    oracles.check(ode, rec)
    _rejects(ode, rec, lambda r: r.update(state=[v * 1.01 for v in r["state"]]),
             "an ODE endpoint off by 1%")
    _rejects(ode, rec, lambda r: r.update(cb_status="fails"), "an ODE endpoint not cb")
    _rejects(ode, rec, lambda r: r.update(cb_state=None), "a missing cb state")


def test_held_out_seed():
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", name,
             "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        expect(proc.returncode == 0 and result.get("correct") is True
               and result.get("failed") == 0,
               f"{name}: held-out seed {HELD_OUT_SEED} runs clean")


def main() -> int:
    if not run.use_source_tree():
        print("no crn package under src/", file=sys.stderr)
        return 2
    tmp = run.WORK / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    test_generators_deterministic(tmp)
    test_oracles_reject_corruption(tmp)
    test_held_out_seed()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
