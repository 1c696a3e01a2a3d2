"""Benchmark for `crn`: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload stoch_scale --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports `crn` from ``src/``.
Set-up is timed in fresh interpreters; then passes over the workload's items
repeat until ``--seconds`` of pass time is used.  Every output is checked
(oracles.py).  With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it carries the per-layer metrics.  Human-readable lines, the
machine record and a results file under ``perfbench/_results`` come first.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RESULTS = HERE / "_results"
GOLDENS = HERE / "goldens"
GOLDEN_SEED = 0
SETUP_PROBES = 3

import machine  # noqa: E402

machine.pin_blas_threads()

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
    "work_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "stoch.communicating_class.s": "s",
    "stoch.communicating_class.states": "count",
    "stoch.transitions.calls": "count",
    "kinetics.propensity.calls": "count",
    "stoch.stationary_distribution.s": "s",
    "stoch.stationary_distribution.support": "count",
    "stoch.classify_measure.s": "s",
    "stoch.classify_measure.boundary_skipped": "count",
    "stoch.component_is_active.s": "s",
    "stoch.poisson_product.s": "s",
    "detbal.integrate.s": "s",
    "detbal.integrate.calls": "count",
    "detbal.integrate.steps": "count",
    "kinetics.det_rates.calls": "count",
    "detbal.solve_rvb.s": "s",
    "detbal.solve_rvb.found": "count",
    "detbal.solve_complex_balanced.s": "s",
    "detbal.solve_reaction_balanced.s": "s",
    "detbal.classify_state.calls": "count",
    "ssa.occupancy_measure.s": "s",
    "ssa.jumps": "count",
    "ssa.tv_distance.s": "s",
    "cli.main.self_s": "s",
    "cli.analyze_system.self_s": "s",
    "cli._emit.s": "s",
    "cli.output_bytes": "bytes",
    "parser.parse_network.s": "s",
    "model.stoichiometric_basis.s": "s",
    "graph.cycles_of.s": "s",
    **{f"{layer}.self_s": "s" for layer in
       ("parser", "model", "graph", "kinetics", "detbal", "stoch", "ssa", "cli")},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
# Work unit of work_per_s, per workload.
WORK_UNIT = {"stoch_scale": "CTMC states", "corpus_cli": "SSA jumps",
             "ode_equilibrate": "equilibria"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-goldens", action="store_true",
                    help="write goldens/<workload>.json from one pass (default seed only)")
    args = ap.parse_args(argv)

    if not use_source_tree():
        print(f"error: no crn package under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}"
    if args.setup_probe:
        return _setup_probe(workdir)

    work = workloads.build(args.workload, args.seed, workdir)
    _write_probe_input(work, workdir)
    setup_samples = [_run_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    bench = Bench(work)

    if args.record_goldens:
        if args.seed != GOLDEN_SEED:
            print("error: goldens are recorded for the default seed only", file=sys.stderr)
            return 2
        return bench.record_goldens(GOLDENS / f"{args.workload}.json")
    if args.trace:
        result = bench.traced_run(args.seconds)
    else:
        result = bench.measured_run(args.seconds, setup_samples)
    _report(args, bench, result, machine.record(ROOT, args.workload, args.seed))
    return 0


def use_source_tree() -> bool:
    """Put the checkout's ``src/`` first on the import path, if it holds crn."""
    src = ROOT / "src"
    if not (src / "crn" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


# ---------------------------------------------------------------------------
# set-up, timed in fresh interpreters
# ---------------------------------------------------------------------------

def _write_probe_input(work, workdir: Path):
    texts = sorted({item.text for item in work.items if item.kind == "ode"})
    texts += [work.files[name] for name in sorted(work.files)]
    payload = {"texts": texts, "warmup": _item_to_json(work.warmup)}
    (workdir / "setup.json").write_text(json.dumps(payload), encoding="utf-8")


def _item_to_json(item):
    return {"id": item.id, "kind": item.kind, "network": item.network,
            "argv": list(item.argv), "text": item.text, "c0": list(item.c0)}


def _setup_probe(workdir: Path) -> int:
    """Import crn, parse the workload's networks, run the warm-up item."""
    payload = json.loads((workdir / "setup.json").read_text(encoding="utf-8"))
    import crn.cli  # noqa: F401

    systems = [crn.parse_network(text) for text in payload["texts"]]
    w = payload["warmup"]
    item = workloads.Item(w["id"], w["kind"], w["network"], argv=tuple(w["argv"]),
                          text=w["text"], c0=tuple(w["c0"]))
    run_item(item, {item.network: crn.parse_network(item.text)} if item.text else {})
    print(f"ready {len(systems)}", flush=True)
    return 0


def _run_probe(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line.startswith("ready"):
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------

def run_item(item, systems) -> dict:
    """Run one item; the returned record holds its time and raw output."""
    import crn.cli
    import crn.detbal

    if item.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = crn.cli.main(list(item.argv))
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
        except Exception as exc:  # an uncaught error is a failed item
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if error is not None:
            rc = f"raised {error}"
        stdout = out.getvalue()
        return {"time": elapsed, "rc": rc, "stdout": stdout, "stderr": err.getvalue(),
                "bytes": len(stdout.encode())}

    sys_ = systems[item.network]
    state, cb_status, cb_state, error = None, None, None, None
    t0 = time.perf_counter()
    try:
        state = np.array(item.c0)
        for _ in range(workloads.ODE_CHUNK_CAP):
            traj = crn.detbal.integrate(sys_, state, t_end=workloads.ODE_CHUNK_T,
                                        dt=workloads.ODE_DT)
            state = traj[-1][1]
            if float(np.max(np.abs(crn.detbal.drift(sys_, state)))) < 1e-9:
                break
        cb_status = crn.detbal.classify_state(sys_, state, tol=1e-6).cb.status.value
        cb_state = crn.detbal.solve_complex_balanced(sys_)
    except Exception as exc:  # an uncaught error is a failed item
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    record = {
        "time": elapsed, "error": error, "cb_status": cb_status, "bytes": 0,
        "state": None if state is None else [float(v) for v in state],
        "cb_state": None if cb_state is None else [float(v) for v in cb_state],
    }
    record["stdout"] = json.dumps(
        {k: record[k] for k in ("state", "cb_status", "cb_state")}, sort_keys=True)
    return record


class Bench:
    def __init__(self, work):
        import crn

        self.work = work
        self.systems = {item.network: crn.parse_network(item.text)
                        for item in work.items if item.kind == "ode"}
        if work.warmup.kind == "ode":
            self.systems[work.warmup.network] = crn.parse_network(work.warmup.text)
        run_item(work.warmup, self.systems)
        golden_path = GOLDENS / f"{work.name}.json"
        self.goldens = None
        if work.seed == GOLDEN_SEED and golden_path.is_file():
            self.goldens = json.loads(golden_path.read_text(encoding="utf-8"))["items"]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.failed_ids: set[str] = set()
        self.identical = 0
        self.compared = 0
        self.facts: dict[str, dict] = {}

    def run_pass(self, tracer=None) -> tuple[float, list[dict]]:
        records = []
        t0 = time.perf_counter()
        for index, item in enumerate(self.work.items):
            if tracer is not None:
                tracer.item = index
            # Start every item from a collected heap, as a fresh CLI process
            # would, so one item's garbage is not charged to the next.
            gc.collect()
            records.append(run_item(item, self.systems))
        wall = time.perf_counter() - t0
        self._check(records)
        return wall, records

    def _check(self, records):
        for item, record in zip(self.work.items, records):
            self.attempted += 1
            digest = hashlib.sha256(record["stdout"].encode()).hexdigest()
            record["sha256"] = digest
            try:
                facts = oracles.check(item, record)
                if self.goldens is not None:
                    golden = self.goldens.get(item.id)
                    oracles.need(golden is not None, "no golden for this item")
                    oracles.need(facts["statuses"] == golden["statuses"],
                                 f"statuses differ from golden: {facts['statuses']}")
                    self.compared += 1
                    self.identical += digest == golden["sha256"]
            except oracles.CheckFailed as exc:
                self.failed += 1
                self.failures.append(f"{item.id}: {exc}")
                self.failed_ids.add(item.id)
                facts = {"states": 0, "statuses": {}}
            self.facts[item.id] = facts
            record["stdout"] = None  # free large outputs once checked

    def jumps_per_item(self) -> dict[str, int]:
        """SSA jumps of each simulate item, by replaying its path."""
        import crn
        from crn.ssa import SsaConfig, ssa_path

        out = {}
        for item in self.work.items:
            if item.params.get("command") != "simulate":
                continue
            sys_ = crn.parse_network(self.work.files[f"{item.network}.crn"])
            cfg = SsaConfig(seed=item.params["ssa_seed"], t_end=item.params["t_end"])
            out[item.id] = len(ssa_path(sys_, item.params["init"], cfg)) - 1
        return out

    # -- runs -----------------------------------------------------------------

    def _passes(self, seconds, one_pass):
        """Repeat one_pass while the next one fits in ``seconds`` of pass time."""
        results, used = [], 0.0
        while True:
            results.append(one_pass(len(results)))
            used += results[-1]["wall"]
            if used + results[-1]["wall"] > seconds:
                return results

    def measured_run(self, seconds, setup_samples) -> dict:
        def one_pass(_):
            wall, records = self.run_pass()
            return {"wall": wall, "times": [r["time"] for r in records]}

        passes = self._passes(seconds, one_pass)
        items = self.work.items
        # Each item's time is its median over the run's passes, which keeps
        # one slow pass (a noisy neighbour, a page-cache miss) out of every
        # number; a pass is the sum of those medians.
        item_s = {item.id: statistics.median(p["times"][i] for p in passes)
                  for i, item in enumerate(items)}
        item_ms = [1e3 * t for t in item_s.values()]
        wall = sum(item_s.values())
        states = sum(self.facts[item.id]["states"] for item in items)
        stoch_time = sum(item_s[item.id] for item in items if self.facts[item.id]["states"])
        jumps = self.jumps_per_item()
        sim_time = sum(item_s[i] for i in jumps)
        ok_starts = sum(1 for item in items
                        if item.kind == "ode" and item.id not in self.failed_ids)
        derived = {
            "states_per_s": states / stoch_time if stoch_time else None,
            "jumps_per_s": sum(jumps.values()) / sim_time if sim_time else None,
            "equilibria_per_s": ok_starts / wall if ok_starts else None,
        }
        work_per_s = {"stoch_scale": derived["states_per_s"],
                      "corpus_cli": derived["jumps_per_s"],
                      "ode_equilibrate": derived["equilibria_per_s"]}[self.work.name]
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall,
            "item_p50_ms": statistics.median(item_ms),
            "item_p90_ms": statistics.quantiles(item_ms, n=10)[8],
            "work_per_s": work_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return {
            "metrics": metrics, "derived": derived, "passes": len(passes),
            "items": len(items), "setup_samples": setup_samples,
            "pass_walls": [p["wall"] for p in passes], "item_s": item_s,
            "states_per_pass": states, "jumps_per_pass": sum(jumps.values()),
        }

    def traced_run(self, seconds) -> dict:
        from tracer import Tracer

        tracer = Tracer()

        def one_pass(k):
            if k % 2 == 0:
                wall, records = self.run_pass()
                return {"wall": wall, "traced": False}
            tracer.reset()
            tracer.install()
            try:
                wall, records = self.run_pass(tracer)
            finally:
                tracer.uninstall()
            summary = tracer.summary()
            summary["cli.output_bytes"] = sum(r["bytes"] for r in records)
            for name in ("cli.main", "cli.analyze_system"):
                summary[f"{name}.self_s"] = summary.get(f"{name}.s", 0.0)
            return {"wall": wall, "traced": True, "summary": summary}

        passes = self._passes(seconds, one_pass)
        if len(passes) < 2:
            passes.append(one_pass(1))
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.save(RESULTS / f"spans-{self.work.name}-seed{self.work.seed}.npz")
        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes if not p["traced"]]
        summaries = [p["summary"] for p in traced]
        metrics = {}
        repeat = True
        for name, unit in PER_LAYER.items():
            values = [s.get(name, 0) for s in summaries]
            if unit == "s":
                metrics[name] = statistics.median(values)
            else:
                metrics[name] = values[0]
                repeat &= len(set(values)) == 1
        metrics["ssa.jumps"] = sum(self.jumps_per_item().values())
        traced_wall = statistics.median(p["wall"] for p in traced)
        plain_wall = statistics.median(p["wall"] for p in plain)
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        return {"metrics": metrics, "passes": len(passes), "items": len(self.work.items),
                "counts_repeat": repeat, "traced_wall_s": traced_wall,
                "untraced_wall_s": plain_wall, "all_layers": summaries[-1]}

    def record_goldens(self, path: Path) -> int:
        wall, records = self.run_pass()
        if self.failed:
            for line in self.failures:
                print("FAIL", line, file=sys.stderr)
            return 1
        items = {item.id: {"sha256": rec["sha256"], "statuses": self.facts[item.id]["statuses"]}
                 for item, rec in zip(self.work.items, records)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.work.name, "seed": GOLDEN_SEED,
                                    "commit": machine.git_commit(ROOT), "items": items},
                                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(items)} goldens to {path}")
        return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _report(args, bench, result, record):
    """Human-readable lines, the results file, then the JSON result line."""
    work = bench.work
    units = PER_LAYER if args.trace else END_TO_END
    print(f"# workload {work.name}  seed {work.seed}  trace {args.trace}  "
          f"items/pass {result['items']}  passes {result['passes']}")
    for key, value in record.items():
        print(f"# machine {key}: {value}")
    for name, value in result["metrics"].items():
        print(f"{name} {value} {units[name]}")
    if args.trace:
        print(f"# counts repeat across traced passes: {result['counts_repeat']}; "
              f"traced pass {result['traced_wall_s']:.4f} s, "
              f"untraced pass {result['untraced_wall_s']:.4f} s")
    else:
        print(f"# work_per_s counts {WORK_UNIT[work.name]}; item percentiles over "
              f"{result['items']} items, each the median of {result['passes']} passes; "
              f"setup_s is the median of {len(result['setup_samples'])} fresh interpreters")
        for name, value in result["derived"].items():
            if value is not None:
                print(f"{name} {value} 1/s")
    fail_ratio = bench.failed / bench.attempted
    print(f"fail_ratio {fail_ratio} ratio ({bench.failed} of {bench.attempted} attempted)")
    if bench.goldens is not None:
        print(f"outputs_identical {bench.identical} of {bench.compared}")
    else:
        print(f"outputs_identical n/a (goldens exist for seed {GOLDEN_SEED} only)")
    for line in bench.failures[:20]:
        print(f"# FAIL {line}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{work.name}-seed{work.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "machine": record, "result": result, "fail_ratio": fail_ratio,
        "outputs_identical": [bench.identical, bench.compared] if bench.goldens else None,
        "failures": bench.failures,
    }, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8")
    metrics = {name: {"value": float(value or 0.0), "unit": units[name]}
               for name, value in result["metrics"].items()}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
