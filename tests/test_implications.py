"""Golden of the implication map on an exhaustive grid of the facts it reads.

``bridge._implications`` reads the deterministic facts of a system (is there
a reaction balanced state, is it reaction vector balanced, is there a complex
balanced state, are the rate constants cycle balanced) and, per classified
component, the measure's rb, cb, rvb and cyb statuses, whether the component
is active and whether its support holds a full grid.  Each case is one call:
the deterministic facts alone, or with one stand-in component.

The system is ``mono_triangle``: source degree 1, reaction balanced at
(1, 1, 1).  The stand-in rb state (1, 2, 3) is not reaction vector balanced.
Stand-in reports carry only the four verdicts, since a real
``MeasureBalanceReport`` refuses rb holding beside a failing cb, rvb or cyb.

``implications_golden.json`` next to this file holds, per deterministic
case, the outcome alone and with each component, in the order of
``cases()``.  A component is keyed by its rb, cb, rvb and cyb statuses
(``H`` holds, ``F`` fails, ``U`` undetermined), ``A``/``I`` for active or
inactive, and ``G``/``S`` for a support with the grid or a single state.  An
outcome lists one value per arrow of ``arrows``: ``null`` for
not-applicable, the number of checks for verified, and the indices of the
violated details into ``messages``.  After a deliberate change, re-record
the file and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_implications.py
"""

from __future__ import annotations

import json
import pathlib
import re
from itertools import product
from types import SimpleNamespace

from crn import bridge
from crn.model import Verdict

from helpers import load

GOLDEN = pathlib.Path(__file__).resolve().parent / "implications_golden.json"
SCHEMA = pathlib.Path(__file__).resolve().parent.parent / "docs" / "output-schema.md"

SYS = load("mono_triangle")
TOL = 1e-9
RB_STATES = {"balanced": [1.0, 1.0, 1.0], "absent": None, "not-rvb": [1.0, 2.0, 3.0]}
CB_STATES = {"balanced": [1.0, 1.0, 1.0], "absent": None}
VERDICTS = {
    "H": Verdict.ok(),
    "F": Verdict.fail((0, 0, 0), "stand-in", 1.0, 2.0),
    "U": Verdict.undetermined(),
}
ACTIVE = {"A": True, "I": False}
SUPPORTS = {"G": list(product((0, 1), repeat=3)), "S": [(0, 0, 0)]}
SEED = (0,)


def _system_cases():
    for rb, cb, cyb in product(RB_STATES, CB_STATES, (True, False)):
        key = f"rb_state={rb} cb_state={cb} cyb_system={str(cyb).lower()}"
        yield key, {"rb_state": RB_STATES[rb], "cb_state": CB_STATES[cb], "cyb_system": cyb}


def _component_cases():
    yield "", []
    for statuses, active, support in product(product(VERDICTS, repeat=4), ACTIVE, SUPPORTS):
        report = SimpleNamespace(
            **{name: VERDICTS[s] for name, s in zip(("rb", "cb", "rvb", "cyb"), statuses)}
        )
        comp = SimpleNamespace(seed=SEED)
        key = f"{''.join(statuses)} {active} {support}"
        yield key, [(comp, ACTIVE[active], report, SUPPORTS[support])]


def cases():
    """``(system key, component key, det, components)`` for every case."""
    return [
        (sys_key, comp_key, det, components)
        for sys_key, det in _system_cases()
        for comp_key, components in _component_cases()
    ]


def _entries(arrows, messages, outcome) -> list[dict]:
    out = []
    for arrow, value in zip(arrows, outcome):
        if value is None:
            status, detail = "not-applicable", "0 check(s)"
        elif isinstance(value, int):
            status, detail = "verified", f"{value} check(s)"
        else:
            status, detail = "violated", "; ".join(messages[i] for i in value)
        out.append({"arrow": arrow, "status": status, "detail": detail})
    return out


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_cases_are_current():
    golden = _load()
    assert [
        (sys_key, comp_key) for sys_key, rows in golden["cases"].items() for comp_key, _ in rows
    ] == [(sys_key, comp_key) for sys_key, comp_key, _, _ in cases()]


def test_implications_match_golden():
    golden = _load()
    expected = {
        (sys_key, comp_key): _entries(golden["arrows"], golden["messages"], outcome)
        for sys_key, rows in golden["cases"].items()
        for comp_key, outcome in rows
    }
    for sys_key, comp_key, det, components in cases():
        got = bridge._implications(SYS, det, components, TOL)
        assert got == expected[sys_key, comp_key], (sys_key, comp_key)


def _facts(det, components) -> dict:
    """The facts of one case, read off the grid's own values."""
    facts = {
        "det:rb": det["rb_state"] is not None,
        "det:cb": det["cb_state"] is not None,
        "det:cyb": det["cyb_system"],
        "det:rvb_at_rb": det["rb_state"] == RB_STATES["balanced"],
    }
    for _, active, report, support in components:
        for name in ("rb", "cb", "rvb", "cyb"):
            status = getattr(report, name).status.value
            facts[f"stoch:{name}"] = {"holds": True, "fails": False}.get(status)
        facts.update(active=active, rich=support == SUPPORTS["G"])
    return facts


def test_grid_fires_passes_and_fails_every_row():
    golden = _load()
    outcomes = {
        (sys_key, comp_key): outcome
        for sys_key, rows in golden["cases"].items()
        for comp_key, outcome in rows
    }
    where = {"system": "", "component": f"component seeded at {SEED}: "}
    for scope, rows in bridge._ARROWS.items():
        for arrow, premises, (fact, value), detail in rows:
            message = where[scope] + detail
            passed = failed = 0
            for sys_key, comp_key, det, components in cases():
                if scope == "component" and not components:
                    continue
                facts = _facts(det, components)
                if facts[fact] is None or any(facts[f] != v for f, v in premises):
                    continue
                if facts[fact] == value:
                    passed += 1
                    continue
                failed += 1
                outcome = outcomes[sys_key, comp_key][golden["arrows"].index(arrow)]
                assert message in [golden["messages"][i] for i in outcome], (sys_key, comp_key)
            assert passed and failed, message
    assert sorted(golden["messages"]) == sorted(
        where[scope] + row[3] for scope, rows in bridge._ARROWS.items() for row in rows
    )


def test_documented_arrows_are_the_table():
    documented = re.findall(r"^- `([^`]+)`:", SCHEMA.read_text(), re.M)
    assert sorted(documented) == sorted(
        {row[0] for rows in bridge._ARROWS.values() for row in rows}
    )


def _record():
    arrows, messages, grouped = None, [], {}
    for sys_key, comp_key, det, components in cases():
        entries = bridge._implications(SYS, det, components, TOL)
        arrows = arrows or [e["arrow"] for e in entries]
        assert [e["arrow"] for e in entries] == arrows
        outcome = []
        for e in entries:
            if e["status"] == "not-applicable":
                outcome.append(None)
            elif e["status"] == "verified":
                outcome.append(int(e["detail"].split()[0]))
            else:
                ids = []
                for message in e["detail"].split("; "):
                    if message not in messages:
                        messages.append(message)
                    ids.append(messages.index(message))
                outcome.append(ids)
        grouped.setdefault(sys_key, []).append((comp_key, outcome))
    lines = ["{", f' "arrows": {json.dumps(arrows)},', ' "messages": [']
    lines.append(",\n".join(f"  {json.dumps(m)}" for m in messages))
    lines.append(" ],")
    lines.append(' "cases": {')
    blocks = []
    for sys_key, rows in grouped.items():
        body = ",\n".join(f"  {json.dumps([k, o])}" for k, o in rows)
        blocks.append(f" {json.dumps(sys_key)}: [\n{body}\n ]")
    lines.append(",\n".join(blocks))
    lines.append(" }")
    lines.append("}")
    GOLDEN.write_text("\n".join(lines) + "\n")
    return sum(len(rows) for rows in grouped.values())


if __name__ == "__main__":
    print(f"recorded {_record()} cases in {GOLDEN}")
