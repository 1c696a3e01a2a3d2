"""Byte sweep of ``crn analyze`` and ``crn stationary`` over the corpus.

Runs, in process, ``analyze`` and ``stationary --allow-truncated
--compare-poisson`` on every network of ``demos/networks``, from every seed
state in {0, 1, 2}^n, in the cubes of side 4, 8 and 12, and prints one line:
the call count, the exit-code counts per command, the SHA-256 of every
call's (argv, exit code, stdout, stderr), and the SHA-256 of the statuses
alone (exit codes, verdicts, implication statuses and deterministic facts).
Two trees whose byte digests agree give the same bytes on all of these
calls.  The status digest leaves out the number of rvb points, which
depends on the CPU's numpy and BLAS kernels.

    python tests/byte_sweep.py [--tree PATH] [--record FILE]

``--tree`` names the checkout whose ``src`` and ``demos/networks`` are run
(by default the one holding this script).  ``--record`` writes the statuses
of the side-4 calls, which ``test_cli.py`` compares against
``sweep_statuses.json``.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import sys

TREE = pathlib.Path(__file__).resolve().parent.parent
BOXES = ("4", "8", "12")


def calls(tree: pathlib.Path = TREE, boxes=BOXES) -> list[list[str]]:
    """The sweep's argument lists, with network paths relative to ``tree``."""
    from crn import parse_network

    out = []
    for path in sorted((tree / "demos" / "networks").glob("*.crn")):
        names = parse_network(path.read_text(encoding="utf-8")).network.species.names
        rel = f"demos/networks/{path.name}"
        for box in boxes:
            for seed in itertools.product(range(3), repeat=len(names)):
                state = ",".join(f"{name}={v}" for name, v in zip(names, seed))
                out.append(["analyze", rel, "--seed-state", state, "--box", box])
                out.append(["stationary", rel, "--seed-state", state, "--box", box,
                            "--allow-truncated", "--compare-poisson"])
    return out


def run(argv: list[str], tree: pathlib.Path = TREE) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the CLI on ``argv``."""
    from crn.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(tree / argv[1]), *argv[2:]])
    return code, out.getvalue(), err.getvalue()


def _verdicts(report: dict) -> dict:
    return {name: v["status"] for name, v in sorted(report.items()) if isinstance(v, dict)}


def statuses(argv: list[str], code: int, stdout: str) -> dict:
    """The exit code and the statuses of one call's output."""
    record = {"exit": code}
    if not stdout:
        return record
    payload = json.loads(stdout)
    if argv[0] == "stationary":
        record["report"] = _verdicts(payload["report"])
        return record
    det = payload["det"]
    record["det"] = {"cb": det["cb_state"] is not None, "rb": det["rb_state"] is not None,
                     "cyb": det["cyb_system"]}
    # a component whose solve failed reads as its error's type
    record["components"] = [_verdicts(c["report"]) if "report" in c else c["error"].split(":")[0]
                            for c in payload["stoch"]["components"]]
    record["implications"] = {i["arrow"]: i["status"] for i in payload["implications"]}
    return record


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode("utf-8")).hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=pathlib.Path, default=TREE)
    parser.add_argument("--record", type=pathlib.Path)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path.insert(0, str(tree / "src"))

    outputs, records, exits = [], [], collections.Counter()
    for call in calls(tree):
        code, stdout, stderr = run(call, tree)
        outputs.append([call, code, stdout, stderr])
        records.append([call, statuses(call, code, stdout)])
        exits[f"{call[0]} {code}"] += 1
    print(f"calls={len(outputs)}", " ".join(f"{k}:{v}" for k, v in sorted(exits.items())),
          f"bytes={_digest(outputs)}", f"statuses={_digest(records)}")
    if args.record:
        side4 = [{"argv": call, **record} for call, record in records if call[5] == "4"]
        args.record.write_text("[\n" + ",\n".join(json.dumps(r) for r in side4) + "\n]\n")


if __name__ == "__main__":
    main()
