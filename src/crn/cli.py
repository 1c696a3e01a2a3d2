"""Command-line interface.

Subcommands::

    crn parse <file>                       validate + canonical echo
    crn analyze <file> [--seed-state S --box N --tol T]
    crn classify-state <file> --state S [--tol T]
    crn stationary <file> --seed-state S --box N [--allow-truncated]
                                           [--compare-poisson]
    crn simulate <file> --init S --t-end T --seed K [--burn-in B] [--compare]

All results go to stdout as JSON (sorted keys, floats with 17 significant
digits, hence byte-deterministic for fixed inputs); ``--pretty`` prints a
human-readable summary instead.  Exit codes: 0 success, 2 input error,
3 numerical failure, 4 implication violation.  The analysis behind
``analyze`` lives in :mod:`crn.bridge`.
"""

from __future__ import annotations

import argparse
import sys as _sys

import numpy as np

from . import bridge, detbal, stoch
from .errors import (
    CrnError,
    ImplicationViolationError,
    NotWeaklyReversibleError,
    ParseError,
)
from .model import MassActionSystem, Measure, _plain
from .parser import format_network, parse_network, parse_state
from .ssa import SsaConfig, occupancy_measure, tv_distance
from .stoch import Box

__all__ = ["main", "console_entry"]


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        return '"%s"' % ("inf" if x > 0 else "-inf" if x < 0 else "nan")
    text = format(float(x), ".17g")
    return text


def _json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _json(list(obj))
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f"{_json(str(k))}:{_json(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load_system(path: str) -> MassActionSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    return parse_network(text)


def _parse_box(text: str | None, n: int) -> Box | None:
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"malformed box {text!r}")
    if len(values) == 1:
        return Box.cube(n, values[0])
    if len(values) != n:
        raise ParseError(f"box needs 1 or {n} upper bounds, got {len(values)}")
    return Box((0,) * n, tuple(values))


def _emit(payload, pretty: bool):
    if pretty:
        _pretty_print(payload)
    else:
        print(_json(payload))


def _pretty_print(payload, indent: int = 0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _pretty_print(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                _pretty_print(value, indent)
                print()
            else:
                print(f"{pad}- {value}")
    else:
        print(f"{pad}{payload}")


def cmd_parse(args) -> int:
    sys_ = _load_system(args.file)
    payload = {
        "canonical": format_network(sys_),
        "species": list(sys_.network.species.names),
        "n": sys_.network.n,
        "m": sys_.network.m,
        "r": sys_.network.r,
    }
    _emit(payload, args.pretty)
    return 0


def cmd_analyze(args) -> int:
    sys_ = _load_system(args.file)
    seeds = [
        parse_state(s, sys_.network.species, discrete=True)
        for s in (args.seed_state or [])
    ]
    box = _parse_box(args.box, sys_.network.n)
    payload, violated = bridge.analyze_system(
        sys_, seeds=seeds, box=box, tol=args.tol, rvb_starts=args.rvb_starts
    )
    _emit(payload, args.pretty)
    return 4 if violated else 0


def cmd_classify_state(args) -> int:
    sys_ = _load_system(args.file)
    c = parse_state(args.state, sys_.network.species)
    report = detbal.classify_state(sys_, c, tol=args.tol)
    payload = {"state": list(c), **_plain(report)}
    _emit(payload, args.pretty)
    return 0


def _distribution_json(mu: Measure):
    return [{"state": list(x), "p": mu(x)} for x in mu.support()]


def cmd_stationary(args) -> int:
    sys_ = _load_system(args.file)
    seed = parse_state(args.seed_state, sys_.network.species, discrete=True)
    box = _parse_box(args.box, sys_.network.n) or Box.cube(sys_.network.n, 20)
    comp = stoch.communicating_class(sys_, seed, box)
    dist = stoch.stationary_distribution(sys_, comp, allow_truncated=args.allow_truncated)
    report = stoch.classify_component_measure(sys_, comp, dist, tol=args.tol)
    payload = {
        "component": bridge.component_summary(sys_, comp),
        "distribution": _distribution_json(dist),
        "report": _plain(report),
    }
    if args.compare_poisson:
        try:
            c = detbal.solve_complex_balanced(sys_)
        except NotWeaklyReversibleError:
            c = None
        if c is None:
            payload["poisson"] = None
        else:
            product_form = stoch.poisson_product(c, comp.states)
            payload["poisson"] = {
                "equilibrium": list(c),
                "tv_distance": tv_distance(dist, product_form),
            }
    _emit(payload, args.pretty)
    return 0


def cmd_simulate(args) -> int:
    sys_ = _load_system(args.file)
    x0 = parse_state(args.init, sys_.network.species, discrete=True)
    cfg = SsaConfig(seed=args.seed, t_end=args.t_end, burn_in=args.burn_in)
    occ = occupancy_measure(sys_, x0, cfg)
    payload = {
        "init": list(x0),
        "t_end": args.t_end,
        "seed": args.seed,
        "burn_in": cfg.effective_burn_in,
        "occupancy": _distribution_json(occ),
    }
    if args.compare:
        support = occ.support()
        if args.box is not None:
            box = _parse_box(args.box, sys_.network.n)
        else:
            margin = max((cx.inf_norm for cx in sys_.network.complexes), default=0)
            upper = tuple(
                max(max(x[i] for x in support), x0[i]) + margin + 2
                for i in range(sys_.network.n)
            )
            box = Box((0,) * sys_.network.n, upper)
        comp = stoch.communicating_class(sys_, x0, box)
        dist = stoch.stationary_distribution(sys_, comp, allow_truncated=True)
        payload["compare"] = {
            "box": {"lower": list(box.lower), "upper": list(box.upper)},
            "tv_distance": tv_distance(occ, dist),
        }
    _emit(payload, args.pretty)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="crn", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="input .crn file")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("parse", help="validate and echo the canonical form")
    common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("analyze", help="full deterministic/stochastic analysis")
    common(p)
    p.add_argument("--seed-state", action="append", help="e.g. A=3,B=0 (repeatable)")
    p.add_argument("--box", help="truncation upper bounds: N or n1,n2,...")
    p.add_argument("--rvb-starts", type=int, default=32)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("classify-state", help="balance verdicts at one state")
    common(p)
    p.add_argument("--state", required=True, help="e.g. A=1,B=1")
    p.set_defaults(fn=cmd_classify_state)

    p = sub.add_parser("stationary", help="stationary distribution of a component")
    common(p)
    p.add_argument("--seed-state", required=True)
    p.add_argument("--box", help="truncation upper bounds: N or n1,n2,...")
    p.add_argument("--allow-truncated", action="store_true")
    p.add_argument("--compare-poisson", action="store_true")
    p.set_defaults(fn=cmd_stationary)

    p = sub.add_parser("simulate", help="SSA occupancy measure")
    common(p)
    p.add_argument("--init", required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", type=float, default=None)
    p.add_argument("--box", help="box for --compare")
    p.add_argument("--compare", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return 2
    except ImplicationViolationError as exc:
        print(f"implication violated: {exc}", file=_sys.stderr)
        return 4
    except CrnError as exc:
        print(f"{type(exc).__name__}: {exc}", file=_sys.stderr)
        return 3
    except ValueError as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return 2


def console_entry():  # pragma: no cover - thin wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
