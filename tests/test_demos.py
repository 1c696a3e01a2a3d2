"""Byte goldens of the demo scripts.

Each ``demos/*.py`` script runs in its own interpreter with ``src`` on the
path; it must exit 0 and print exactly the stdout whose SHA-256 is recorded
in ``demo_goldens.json`` next to this file.  Demos 02 and 04 print
``solve_rvb`` and ``analyze_system`` results, so a changed digit of a
Newton solve fails here.  After a deliberate output change, re-record the
file and say so in CHANGES.md:

    python tests/test_demos.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = pathlib.Path(__file__).resolve().parent / "demo_goldens.json"
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


def run(name: str) -> tuple[int, str]:
    """Exit code and SHA-256 of stdout of one demo script."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def _load() -> dict:
    return json.loads(GOLDENS.read_text())


def test_every_demo_has_a_golden():
    assert sorted(_load()) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_golden(name):
    assert run(name) == (0, _load()[name])


if __name__ == "__main__":
    records = {}
    for name in DEMOS:
        code, digest = run(name)
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
        records[name] = digest
    GOLDENS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(records)} demos in {GOLDENS}")
