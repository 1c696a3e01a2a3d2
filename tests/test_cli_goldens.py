"""Byte goldens of the CLI on the corpus networks.

Each case is an argument list, its exit code and the SHA-256 of its stdout,
recorded in ``cli_goldens.json`` next to this file: ``classify-state`` at
four states and ``analyze`` from two seed states in the box of side 8, on
each of the corpus networks, plus two ``analyze`` runs whose implication map
reads violated (exit 4); then, per corpus network, one seeded ``simulate
--compare`` path (1 to 844 jumps) and one truncated ``stationary
--compare-poisson`` solve in the box of side 8, and one plain ``simulate``
on a transient start; then, per corpus network, the ``analyze`` case again
with one and with 64 rvb Newton starts; last, ``parse`` of each corpus
network.  A changed byte of any output fails its case.  After a deliberate
output change, re-record the file and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_goldens.py

The digests were recorded with numpy 2.4.6 on an x86-64 machine whose numpy
dispatches its AVX-512 (X86_V4) loops, with OpenBLAS 0.3.31 picking its own
kernels.  They hold on such a machine only: numpy's SIMD loops and
OpenBLAS's kernels round some floats differently on other CPUs, which moves
the last digits of ``analyze`` and ``stationary`` outputs (``parse``,
``classify-state`` and ``simulate`` do not move).  Two strict xfails below
pin this: the bytes of one ``analyze`` case, and the number of rvb points
that ``analyze`` finds on ``square``.

The statuses alone do not move: exit codes, verdicts, implication statuses
and deterministic facts.  ``sweep_statuses.json`` holds them for the side-4
third of ``byte_sweep.py``, and a test below runs those calls.
"""

from __future__ import annotations

import builtins
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from crn.cli import main

import byte_sweep
from helpers import CORPUS, load

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = pathlib.Path(__file__).resolve().parent / "cli_goldens.json"

# Values cycled over a network's species: all ones, unequal positive values,
# the same with a zero first coordinate, and a spread of magnitudes.
STATES = (
    (1.0,),
    (0.5, 2.25, 1.75),
    (0.0, 2.25, 1.75),
    (4.0, 0.25, 7.5),
)
SEEDS = ((1,), (2, 0, 1))
# Start of the simulate and stationary cases.  The second coordinate is 1 so
# that semi_open and stoch_rvb_two_species start on their recurrent slice.
START = (3, 1)
# Truncated components on which the map reads violated today (see the strict
# xfails in test_cli.py); they pin the bytes of violated entries.
VIOLATED = (
    ["analyze", "demos/networks/birth_death.crn", "--seed-state", "A=0", "--box", "4"],
    ["analyze", "demos/networks/six_complex.crn", "--seed-state", "A=0,B=0,C=2", "--box", "8"],
)
# From START the class of absolute_concentration is transient, so its
# ``--compare`` case exits 3 with no output; this run pins its path instead.
TRANSIENT = ["simulate", "demos/networks/absolute_concentration.crn", "--init", "A=3,B=1",
             "--t-end", "20", "--seed", "7"]


# Newton start counts of the extra analyze cases, beside the default 32.
RVB_STARTS = ("1", "64")


def _text(names, values) -> str:
    return ",".join(f"{name}={values[i % len(values)]:g}" for i, name in enumerate(names))


def _analyze(name: str) -> list[str]:
    names = load(name).network.species.names
    seeds = [arg for seed in SEEDS for arg in ("--seed-state", _text(names, seed))]
    return ["analyze", f"demos/networks/{name}.crn", *seeds, "--box", "8"]


def cases() -> list[list[str]]:
    out = []
    for name in sorted(CORPUS):
        path = f"demos/networks/{name}.crn"
        names = load(name).network.species.names
        for state in STATES:
            out.append(["classify-state", path, "--state", _text(names, state)])
        out.append(_analyze(name))
    out += VIOLATED
    for name in sorted(CORPUS):
        path = f"demos/networks/{name}.crn"
        start = _text(load(name).network.species.names, START)
        out.append(["simulate", path, "--init", start, "--t-end", "20", "--seed", "7", "--compare"])
        out.append(
            ["stationary", path, "--seed-state", start, "--box", "8",
             "--allow-truncated", "--compare-poisson"]
        )
    out.append(TRANSIENT)
    for name in sorted(CORPUS):
        out += [[*_analyze(name), "--rvb-starts", starts] for starts in RVB_STARTS]
    out += [["parse", f"demos/networks/{name}.crn"] for name in sorted(CORPUS)]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and SHA-256 of stdout of the CLI on ``argv``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([argv[0], str(ROOT / argv[1]), *argv[2:]])
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _load() -> list[dict]:
    return json.loads(GOLDENS.read_text())


def test_golden_cases_are_current():
    assert [entry["argv"] for entry in _load()] == cases()


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_matches_golden(argv):
    golden = next(entry for entry in _load() if entry["argv"] == argv)
    assert run(argv) == (golden["exit"], golden["sha256"])


def _without_avx512(code: str, argv: list[str]) -> str:
    """Stdout of ``code`` run on ``argv`` in a fresh interpreter with numpy's
    X86_V4 loops off, as on a CPU without AVX-512; the test modules import."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(GOLDENS.parent), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode:  # a crash is a failure, not the expected one
        raise RuntimeError(proc.stderr)
    return proc.stdout


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the goldens hold only where numpy dispatches AVX-512")
def test_analyze_golden_without_avx512_dispatch():
    # the last digits of triangle's rvb states move (7.552586601833683 reads
    # ...687)
    argv = _analyze("triangle")
    golden = next(entry for entry in _load() if entry["argv"] == argv)
    code = "import sys, test_cli_goldens as g; print(*g.run(sys.argv[1:]))"
    assert _without_avx512(code, argv).split() == [str(golden["exit"]), golden["sha256"]]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the number of rvb Newton samples depends on numpy's SIMD dispatch")
def test_rvb_point_count_without_avx512_dispatch():
    # square's Newton starts settle on 10 distinct points here and on 11
    # with the dispatch off; perfbench's corpus_cli goldens compare this
    # count as a status
    argv = ["analyze", "demos/networks/square.crn"]
    code = ("import sys, json, byte_sweep as s; "
            "print(len(json.loads(s.run(sys.argv[1:])[1])['det']['rvb_states']))")
    count = len(json.loads(byte_sweep.run(argv)[1])["det"]["rvb_states"])
    assert int(_without_avx512(code, argv)) == count


def test_sweep_statuses_match_the_record():
    # the side-4 third of byte_sweep.py: exit codes, verdicts, implication
    # statuses and deterministic facts, recorded with its --record; over the
    # whole sweep none moved with numpy's AVX-512 dispatch off or with
    # OpenBLAS's Haswell kernels
    record = json.loads((GOLDENS.parent / "sweep_statuses.json").read_text())
    assert [entry["argv"] for entry in record] == byte_sweep.calls(boxes=("4",))
    changed = []
    for entry in record:
        code, stdout, _ = byte_sweep.run(entry["argv"])
        if {"argv": entry["argv"], **byte_sweep.statuses(entry["argv"], code, stdout)} != entry:
            changed.append(" ".join(entry["argv"]))
    assert changed == []


def test_outputs_do_not_depend_on_how_sum_rounds_floats(monkeypatch):
    # From Python 3.12 the built-in sum compensates float rounding.  Every
    # float sum behind these outputs is a left-to-right fold, so with sum
    # rounding as math.fsum does no byte may change.
    builtin_sum = builtins.sum

    def rounding_sum(iterable, /, start=0):
        items = [start, *iterable]
        if any(type(v) is float for v in items) and all(type(v) in (int, float) for v in items):
            return math.fsum(items)
        return builtin_sum(items)

    monkeypatch.setattr(builtins, "sum", rounding_sum)
    changed = [entry["argv"] for entry in _load()
               if run(entry["argv"]) != (entry["exit"], entry["sha256"])]
    assert changed == []


if __name__ == "__main__":
    records = []
    for argv in cases():
        code, digest = run(argv)
        records.append({"argv": argv, "exit": code, "sha256": digest})
    GOLDENS.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"recorded {len(records)} cases in {GOLDENS}")
