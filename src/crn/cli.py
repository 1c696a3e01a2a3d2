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
import functools
import math
import sys as _sys

import numpy as np

from . import bridge, detbal, stoch
from .errors import CrnError, NetworkValidationError, NotWeaklyReversibleError, ParseError
from .model import MassActionSystem, Measure, _plain
from .parser import format_network, parse_network, parse_state
from .ssa import SsaConfig, occupancy_measure, tv_distance
from .stoch import Box

__all__ = ["main", "console_entry"]


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _fmt_float(x) -> str:
    x = float(x)
    if math.isfinite(x):
        return format(x, ".17g")
    return '"%s"' % ("inf" if x > 0 else "-inf" if x < 0 else "nan")


# Writers by exact type.  Any other value takes the first writer whose type
# it is an instance of: bool before int, plain types before numpy ones.
_WRITERS = {
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    int: int.__repr__,
    float: _fmt_float,
    str: lambda obj: '"%s"' % obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"),
    list: lambda obj: "[%s]" % ",".join(map(_json, obj)),
    dict: lambda d: "{%s}" % ",".join(f"{_json(str(k))}:{_json(v)}" for k, v in sorted(d.items())),
    np.integer: lambda obj: str(int(obj)),
    np.floating: _fmt_float,
    np.ndarray: lambda obj: _json(obj.tolist()),
}
_WRITERS[tuple] = _WRITERS[list]


def _json(obj) -> str:
    write = _WRITERS.get(type(obj))
    if write is None:
        write = next((w for kind, w in _WRITERS.items() if isinstance(obj, kind)), None)
        if write is None:
            raise TypeError(f"cannot serialize {type(obj)!r}")
    return write(obj)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load_system(path: str) -> MassActionSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    try:
        return parse_network(text)
    except NetworkValidationError as exc:  # a self-loop or a repeated reaction in the file
        raise ParseError(str(exc)) from exc


def _box_up_to(upper) -> Box:
    """The box from 0 to ``upper``, refused when stoch._Frame could not hold
    a side of it: [0, v] has v + 1 points."""
    if max(upper, default=0) >= 2**63 - 1:
        raise ParseError("box has a side of 2**63 or more points")
    return Box((0,) * len(upper), tuple(upper))


def _parse_box(text: str | None, n: int) -> Box | None:
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"malformed box {text!r}")
    if not all(-(2**63) <= v < 2**63 for v in values):
        raise ParseError(f"box bound outside the signed 64-bit range in {text!r}")
    if len(values) not in (1, n):
        bounds = "1 upper bound" if n == 1 else f"1 or {n} upper bounds"
        raise ParseError(f"box needs {bounds}, got {len(values)}")
    return _box_up_to(values * n if len(values) == 1 else values)


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
            product_form = stoch.poisson_product(c, comp.points)
            payload["poisson"] = {
                "equilibrium": list(c),
                "tv_distance": tv_distance(dist, product_form),
            }
    _emit(payload, args.pretty)
    return 0


def _check_init_inside(box: Box, x0) -> None:
    if not box.contains(x0):
        lo, up = list(box.lower), list(box.upper)
        raise ValueError(f"--init state {list(x0)} lies outside the box from {lo} to {up}")


def cmd_simulate(args) -> int:
    sys_ = _load_system(args.file)
    x0 = parse_state(args.init, sys_.network.species, discrete=True)
    cfg = SsaConfig(seed=args.seed, t_end=args.t_end, burn_in=args.burn_in)
    # a given box is read and checked before the path runs; the default one needs the path
    box = _parse_box(args.box, sys_.network.n) if args.compare else None
    if box is not None:
        _check_init_inside(box, x0)
    occ = occupancy_measure(sys_, x0, cfg)
    payload = {
        "init": list(x0),
        "t_end": args.t_end,
        "seed": args.seed,
        "burn_in": cfg.effective_burn_in,
        "occupancy": _distribution_json(occ),
    }
    if args.compare:
        if box is None:
            support = occ.support()
            margin = stoch._margin(sys_.network)
            upper = tuple(
                max(max(x[i] for x in support), x0[i]) + margin + 2
                for i in range(sys_.network.n)
            )
            box = _box_up_to(upper)
            _check_init_inside(box, x0)
        comp = stoch.communicating_class(sys_, x0, box)
        dist = stoch.stationary_distribution(sys_, comp, allow_truncated=True)
        payload["compare"] = {
            "box": {"lower": list(box.lower), "upper": list(box.upper)},
            "tv_distance": tv_distance(occ, dist),
        }
    _emit(payload, args.pretty)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    ap = argparse.ArgumentParser(prog="crn", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="input .crn file")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("parse", help="validate and echo the canonical form")
    common(p)

    p = sub.add_parser("analyze", help="full deterministic/stochastic analysis")
    common(p)
    p.add_argument("--seed-state", action="append", help="e.g. A=3,B=0 (repeatable)")
    p.add_argument("--box", help="truncation upper bounds: N or n1,n2,...")
    p.add_argument("--rvb-starts", type=int, default=32)

    p = sub.add_parser("classify-state", help="balance verdicts at one state")
    common(p)
    p.add_argument("--state", required=True, help="e.g. A=1,B=1")

    p = sub.add_parser("stationary", help="stationary distribution of a component")
    common(p)
    p.add_argument("--seed-state", required=True)
    p.add_argument("--box", help="truncation upper bounds: N or n1,n2,...")
    p.add_argument("--allow-truncated", action="store_true")
    p.add_argument("--compare-poisson", action="store_true")

    p = sub.add_parser("simulate", help="SSA occupancy measure")
    common(p)
    p.add_argument("--init", required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", type=float, default=None)
    p.add_argument("--box", help="box for --compare")
    p.add_argument("--compare", action="store_true")

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # with a nan or negative tol every equation fails, with inf every one holds
        if not (np.isfinite(args.tol) and args.tol > 0):
            raise ValueError(f"--tol must be finite and positive, got {args.tol}")
        if getattr(args, "rvb_starts", 0) < 0:
            raise ValueError(f"--rvb-starts must be nonnegative, got {args.rvb_starts}")
        # looked up per call, so a rebound cmd_* function is the one that runs
        command = globals()["cmd_" + args.command.replace("-", "_")]
        return command(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return 2
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
