import json
import os
import pathlib
import subprocess
import sys

import pytest

import crn
from crn.cli import main

NETWORKS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "networks"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_network_files_match_corpus():
    for name, text in crn.corpus.SYSTEMS.items():
        path = NETWORKS / f"{name}.crn"
        assert crn.parse_network(path.read_text()) == crn.parse_network(text)


def test_parse_command(capsys):
    code, out = run_cli(capsys, "parse", str(NETWORKS / "intro_generic.crn"))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["m"] == 4 and payload["r"] == 4
    assert crn.parse_network(payload["canonical"]) == crn.corpus.load("intro_generic")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.crn"
    bad.write_text("A -> B : 1, 2\n")
    code = main(["parse", str(bad)])
    assert code == 2
    assert main(["parse", str(tmp_path / "missing.crn")]) == 2


def test_classify_state_command(capsys):
    code, out = run_cli(
        capsys,
        "classify-state",
        str(NETWORKS / "triangle.crn"),
        "--state",
        "A=1,B=1",
    )
    assert code == 0
    payload = json.loads(out)
    statuses = {k: payload[k]["status"] for k in ("rb", "cb", "rvb", "cyb")}
    assert statuses == {"rb": "fails", "cb": "fails", "rvb": "holds", "cyb": "holds"}


def test_output_is_byte_deterministic(capsys):
    args = [
        "analyze",
        str(NETWORKS / "square.crn"),
        "--seed-state",
        "A=3,B=0",
        "--box",
        "20",
    ]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_square_report(capsys):
    code, out = run_cli(
        capsys,
        "analyze",
        str(NETWORKS / "square.crn"),
        "--seed-state",
        "A=3,B=0",
        "--box",
        "20",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"]["deficiency"] == 2
    assert payload["det"]["rb_state"] is None
    assert payload["det"]["cb_state"] is not None
    assert payload["det"]["cyb_system"] is False
    assert payload["det"]["rvb_states"]
    comp = payload["stoch"]["components"][0]
    assert comp["report"]["cb"]["status"] == "holds"
    assert comp["report"]["rvb"]["status"] == "fails"
    statuses = {e["arrow"]: e["status"] for e in payload["implications"]}
    assert "violated" not in statuses.values()
    assert statuses["bridge:cb"] == "verified"
    assert statuses["bridge:rb"] == "verified"
    assert statuses["bridge:cyb"] == "verified"


def test_analyze_intro_unit_bridge_rb(capsys):
    code, out = run_cli(
        capsys,
        "analyze",
        str(NETWORKS / "intro_unit.crn"),
        "--seed-state",
        "A=2,B=1,C=0",
        "--box",
        "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["det"]["rb_state"] is not None
    comp = payload["stoch"]["components"][0]
    assert comp["closed"] is True
    assert comp["report"]["rb"]["status"] == "holds"
    statuses = {e["arrow"]: e["status"] for e in payload["implications"]}
    assert statuses["bridge:rb"] == "verified"
    assert statuses["det:rb=>cb"] == "verified"
    assert statuses["det:rb=>rvb"] == "verified"
    assert statuses["det:rb=>cyb"] == "verified"
    assert statuses["stoch:rb=>cb"] == "verified"
    assert "violated" not in statuses.values()


def test_analyze_triangle(capsys):
    code, out = run_cli(
        capsys,
        "analyze",
        str(NETWORKS / "triangle.crn"),
        "--seed-state",
        "A=4,B=0",
        "--box",
        "30",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["det"]["cb_state"] is None
    assert payload["det"]["cyb_system"] is True
    # the reaction vector balanced equilibria are the diagonal states (s, s)
    assert payload["det"]["rvb_states"]
    assert all(
        abs(state[0] - state[1]) < 1e-6 for state in payload["det"]["rvb_states"]
    )
    comp = payload["stoch"]["components"][0]
    assert comp["report"]["cb"]["status"] == "fails"
    statuses = {e["arrow"]: e["status"] for e in payload["implications"]}
    assert "violated" not in statuses.values()


def test_stationary_command_square_poisson(capsys):
    code, out = run_cli(
        capsys,
        "stationary",
        str(NETWORKS / "square.crn"),
        "--seed-state",
        "A=3,B=0",
        "--box",
        "20",
        "--compare-poisson",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["component"]["closed"] is True
    assert payload["poisson"]["tv_distance"] <= 1e-10
    assert payload["report"]["rvb"]["status"] == "fails"


def test_stationary_command_birth_death(capsys):
    code, out = run_cli(
        capsys,
        "stationary",
        str(NETWORKS / "birth_death.crn"),
        "--seed-state",
        "A=0",
        "--box",
        "60",
        "--allow-truncated",
    )
    assert code == 0
    payload = json.loads(out)
    rep = payload["report"]
    assert rep["rvb"]["status"] == "holds"
    assert rep["rb"]["status"] == "fails"
    assert rep["cyb"]["status"] == "holds"


def test_stationary_not_closed_exit_code(capsys):
    code = main(
        [
            "stationary",
            str(NETWORKS / "birth_death.crn"),
            "--seed-state",
            "A=0",
            "--box",
            "60",
        ]
    )
    assert code == 3


def test_simulate_command(capsys):
    args = [
        "simulate",
        str(NETWORKS / "intro_unit.crn"),
        "--init",
        "A=2,B=1,C=0",
        "--t-end",
        "400",
        "--seed",
        "42",
        "--compare",
    ]
    code, out = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["compare"]["tv_distance"] < 0.2
    code2, out2 = run_cli(capsys, *args)
    assert out2 == out


def test_simulate_absorbing_point_mass(capsys):
    code, out = run_cli(
        capsys,
        "simulate",
        str(NETWORKS / "absolute_concentration.crn"),
        "--init",
        "A=2,B=0",
        "--t-end",
        "5",
        "--seed",
        "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["occupancy"] == [{"p": 1, "state": [2, 0]}]


# command -> (network file and arguments, keys the summary must print)
PRETTY_CASES = {
    "parse": (["triangle.crn"], ["canonical"]),
    "classify-state": (
        ["triangle.crn", "--state", "A=1,B=1"],
        ["rb:", "cb:", "rvb:", "cyb:", "equilibrium:", "drift_norm:", "status: fails"],
    ),
    "analyze": (
        ["square.crn", "--seed-state", "A=3,B=0", "--box", "12"],
        ["graph:", "det:", "components:", "stationary:", "status: holds", "implications:"],
    ),
    "stationary": (
        ["square.crn", "--seed-state", "A=3,B=0", "--box", "12", "--compare-poisson"],
        ["component:", "distribution:", "report:", "status: holds", "poisson:"],
    ),
    "simulate": (
        ["intro_unit.crn", "--init", "A=2,B=1,C=0", "--t-end", "50", "--seed", "3", "--compare"],
        ["occupancy:", "compare:", "tv_distance:"],
    ),
}


@pytest.mark.parametrize("command", list(PRETTY_CASES))
def test_pretty_mode_runs(capsys, command):
    (name, *rest), keys = PRETTY_CASES[command]
    code, out = run_cli(capsys, command, str(NETWORKS / name), *rest, "--pretty")
    assert code == 0
    for key in keys:
        assert key in out


def test_module_entry_point():
    src = str(pathlib.Path(crn.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "crn.cli", "parse", str(NETWORKS / "triangle.crn")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["species"] == ["A", "B"]


@pytest.mark.xfail(
    strict=True,
    reason="truncation turns into a verdict: on the non-rvb C=2 slice of six_complex "
    "the reflected law at box 8 misses cb at the interior state (0,2,2) by a relative "
    "1.3e-7, so bridge:cb reads violated (boxes 4-10 fail, 11 and up hold)",
)
def test_six_complex_truncated_slice_keeps_the_bridge(capsys):
    code, out = run_cli(
        capsys,
        "analyze",
        str(NETWORKS / "six_complex.crn"),
        "--seed-state",
        "A=0,B=0,C=2",
        "--box",
        "8",
    )
    statuses = {e["arrow"]: e["status"] for e in json.loads(out)["implications"]}
    assert statuses["bridge:cb"] != "violated"
    assert code == 0
