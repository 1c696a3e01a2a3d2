"""Cycle balance on a cycle basis, against every directed simple cycle.

``graph.cycles_of`` returns a fundamental basis of the graph without the
complexes whose flux is zero.  The differential test swaps it for the
brute-force enumerator ``cycles_oracle`` (every directed simple cycle of the
same graph, sorted by length and then complexes) and requires the same
statuses and witnesses from ``classify_state`` and ``analyze_system``; only
``boundary_skipped``, which counts instances per checked cycle, may differ.

The hub network below shows why the zero-flux complexes must leave the
graph before its basis is taken: every fundamental cycle of the whole graph
passes through the hub D, so at a state where D has no flux they all hold
trivially, while the triangle A, B, C fails.
"""

from __future__ import annotations

import numpy as np
import pytest

import crn
from crn import Box, Measure, analyze_system, classify_measure, classify_state, parse_network
from crn.errors import CrnError

from helpers import (
    CORPUS,
    cycles_oracle,
    load,
    random_conservative_reversible_system,
    random_irreversible_system,
    random_one_species_reversible_system,
    random_positive_state,
    random_weakly_reversible_deficiency_zero,
)

HUB = """D <-> A : 1, 1
D <-> B : 1, 1
D <-> C : 1, 1
A <-> B : 1, 1
B <-> C : 1, 1
A <-> C : 2, 1
"""


@pytest.fixture
def cycle_source(monkeypatch):
    """Swap the cycle basis for another function of (net, dropped), with the
    cached cycle equations cleared on both sides of the swap."""

    def install(fn):
        crn.detbal._cycle_equations.cache_clear()
        for module in (crn.graph, crn.detbal, crn.stoch):
            monkeypatch.setattr(module, "cycles_of", fn)

    yield install
    crn.detbal._cycle_equations.cache_clear()


_BASIS = crn.graph.cycles_of


def _whole_graph_basis(net, dropped=frozenset()):
    """The basis of the whole graph, whatever the zero-flux complexes."""
    return _BASIS(net)


_ENUMERATED: dict = {}


def _enumerated(net, dropped=frozenset()):
    """Every directed simple cycle that avoids ``dropped``, in the order the
    enumerator emitted them: by length, then complexes."""
    if net not in _ENUMERATED:
        _ENUMERATED[net] = sorted(cycles_oracle(net), key=lambda c: (len(c), c))
    return tuple(c for c in _ENUMERATED[net] if not dropped.intersection(c))


def test_hub_state_with_a_zero_flux_hub_fails_on_the_triangle(cycle_source):
    sys = parse_network(HUB)
    assert [cx.format(sys.network.species) for cx in sys.network.complexes][0] == "D"
    state = [1.0, 1.0, 1.0, 0.0]  # A, B, C, D
    cyb = classify_state(sys, state).cyb
    assert cyb.fails
    assert (cyb.witness.condition, cyb.witness.lhs, cyb.witness.rhs) == ("cyb:(1, 2, 3)", 2.0, 1.0)
    # every cycle of the whole graph's basis runs through D
    cycle_source(_whole_graph_basis)
    assert classify_state(sys, state).cyb.holds


def test_hub_measure_with_a_zero_flux_hub_fails_on_the_triangle(cycle_source):
    sys = parse_network(HUB)
    x = (1, 1, 1, 0)
    support = [tuple(v + (i == a) for i, v in enumerate(x)) for a in range(3)]
    mu = Measure(dict.fromkeys(support, 1.0))

    def cyb():
        return classify_measure(sys, mu, Box.cube(4, 6), truncation_faces=frozenset()).cyb

    verdict = cyb()
    assert verdict.fails
    assert verdict.witness.condition == "cyb:(1, 2, 3)"
    assert verdict.witness.state == x
    assert (verdict.witness.lhs, verdict.witness.rhs) == pytest.approx((16.0, 8.0))
    cycle_source(_whole_graph_basis)
    assert cyb().holds


def _complete(k: int, balanced: bool, seed: int):
    """One species, complexes 0, A, ..., (k-1)A, every pair reversible; the
    rate constants are cycle balanced, or one of them is perturbed."""
    rng = np.random.default_rng(seed)
    p = np.exp(rng.uniform(-1.0, 1.0, k))
    name = ["0", "A"] + [f"{d}A" for d in range(2, k)]
    lines = []
    for i in range(k):
        for j in range(i + 1, k):
            fwd = float(np.exp(rng.uniform(-1.0, 1.0)))
            bwd = fwd * p[i] / p[j] * (1.5 if (i, j) == (1, 3) and not balanced else 1.0)
            lines.append(f"{name[i]} <-> {name[j]} : {fwd:.12f}, {bwd:.12f}")
    return parse_network("\n".join(lines))


GENERATORS = [
    random_conservative_reversible_system,
    random_one_species_reversible_system,
    random_weakly_reversible_deficiency_zero,
    random_irreversible_system,
]


def _systems():
    """The corpus, 60 draws of each generator and the complete networks."""
    for name in sorted(CORPUS):
        yield name, load(name)
    for g, generate in enumerate(GENERATORS):
        for s in range(60):
            yield f"{generate.__name__}-{s}", generate(np.random.default_rng(7000 + 100 * g + s))
    for k in range(5, 9):
        for balanced in (True, False):
            yield f"complete-{k}-{balanced}", _complete(k, balanced, k)
    yield "hub", parse_network(HUB)


def _states(rng, n):
    """Random positive states, states with zero coordinates and zero, each
    once."""
    states = [random_positive_state(rng, n) for _ in range(2)]
    for _ in range(3):
        c = random_positive_state(rng, n)
        c[rng.random(n) < 0.5] = 0.0
        states.append(c)
    return list({c.tobytes(): c for c in states + [np.zeros(n)]}.values())


def _analysis(name, sys, rng):
    n = sys.network.n
    if name.startswith("complete"):
        seeds, box = ((0,), (3,)), Box.cube(1, 12)
    elif name == "six_complex":
        seeds, box = ((0, 0, 1),), Box((0, 0, 1), (12, 12, 1))
    elif name == "hub":
        seeds, box = ((1, 1, 1, 0),), Box.cube(4, 4)
    else:
        seeds = tuple(tuple(int(v) for v in rng.integers(0, 4, n)) for _ in range(2))
        box = Box.cube(n, 20 if n == 1 else 6)
    try:
        payload, violated = analyze_system(sys, seeds=seeds, box=box, rvb_starts=4)
    except CrnError as exc:
        return type(exc).__name__
    for comp in payload["stoch"]["components"]:
        for counts in (comp, comp.get("report", {})):
            counts.pop("boundary_skipped", None)
    return payload, violated


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CrnError as exc:
        return type(exc).__name__


def test_basis_verdicts_equal_the_enumerated_cycles(cycle_source):
    cases = list(_systems())
    assert len(cases) >= 12 + 200 + 8
    runs = {}
    for source in (None, _enumerated):
        if source is not None:
            cycle_source(source)
        for name, sys in cases:
            rng = np.random.default_rng(sum(map(ord, name)))
            states = [_outcome(classify_state, sys, c) for c in _states(rng, sys.network.n)]
            runs.setdefault(name, []).append((states, _analysis(name, sys, rng)))
    for name, (basis, enumerated) in runs.items():
        assert basis == enumerated, name
