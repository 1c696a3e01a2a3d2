import numpy as np
import pytest

import crn
from crn import (
    active_subnetwork,
    deficiency,
    empty_network,
    is_reversible,
    is_weakly_reversible,
    linkage_classes,
    parse_network,
    simple_cycles,
)
from crn.errors import CycleBudgetExceededError, EmptyNetworkError

from helpers import (
    cycles_oracle,
    linkage_oracle,
    load,
    random_conservative_reversible_system,
    weakly_reversible_oracle,
)


INTRO = "A + B <-> 2C : 1, 1\nA <-> B : 1, 1"
ACR = "B -> A : 1\nA + B -> 2B : 1"


def test_linkage_classes_examples():
    net = parse_network(INTRO).network
    part = linkage_classes(net)
    assert len(part) == 2
    assert sorted(part) == linkage_oracle(net)

    sq = load("square").network
    assert len(linkage_classes(sq)) == 1

    assert len(linkage_classes(empty_network())) == 0


def test_reversibility_examples():
    assert is_reversible(parse_network(INTRO).network)
    # the paper's square carries all eight directed edges: reversible
    sq = load("square").network
    assert is_reversible(sq) and is_weakly_reversible(sq)
    # a one-way four-cycle is weakly reversible but not reversible
    ring = parse_network(
        "3A -> 2A + B : 1\n2A + B -> 3B : 1\n3B -> A + 2B : 1\nA + 2B -> 3A : 1"
    ).network
    assert not is_reversible(ring)
    assert is_weakly_reversible(ring)
    net = parse_network(ACR).network
    assert not is_weakly_reversible(net)
    assert is_reversible(empty_network())
    assert is_weakly_reversible(empty_network())


def test_weak_reversibility_matches_oracle_on_random_networks():
    rng = np.random.default_rng(3)
    for _ in range(60):
        sys = random_conservative_reversible_system(rng)
        net = sys.network
        assert is_weakly_reversible(net) == weakly_reversible_oracle(net)
        # drop one direction of a random pair and recheck
        drop = int(rng.integers(0, net.r))
        reactions = [r for i, r in enumerate(net.reactions) if i != drop]
        try:
            pruned = crn.build_network(net.species, net.complexes, reactions)
        except crn.CrnError:
            continue
        assert is_weakly_reversible(pruned) == weakly_reversible_oracle(pruned)


def test_deficiency_examples():
    assert deficiency(parse_network(INTRO).network) == 0
    assert deficiency(load("square").network) == 2
    assert deficiency(parse_network("0 <-> A : 1, 1\n2A <-> 3A : 1, 1").network) == 1
    with pytest.raises(EmptyNetworkError):
        deficiency(empty_network())


def test_deficiency_nonnegative_fuzz():
    rng = np.random.default_rng(41)
    for _ in range(40):
        net = random_conservative_reversible_system(rng).network
        assert deficiency(net) >= 0


def test_simple_cycles_triangle_and_square():
    tri = load("triangle").network
    cycles = simple_cycles(tri)
    assert len(cycles) == 2
    assert {c.complexes for c in cycles} == cycles_oracle(tri)

    sq = load("square").network
    cycles = simple_cycles(sq)
    assert len(cycles) == 2
    assert all(len(c.complexes) == 4 for c in cycles)
    assert {c.complexes for c in cycles} == cycles_oracle(sq)


def test_simple_cycles_none_for_pairs():
    net = parse_network("0 <-> A : 1, 1").network
    assert simple_cycles(net) == []


def test_simple_cycles_matches_oracle_on_random_networks():
    rng = np.random.default_rng(13)
    for _ in range(30):
        net = random_conservative_reversible_system(rng).network
        got = {c.complexes for c in simple_cycles(net)}
        assert got == cycles_oracle(net)


def test_cycle_budget(monkeypatch):
    monkeypatch.setattr(crn.graph, "_CYCLE_BUDGET", 1)
    six = load("six_complex").network
    with pytest.raises(CycleBudgetExceededError, match="more than 1 directed cycles"):
        simple_cycles(six)


def test_active_subnetwork_discrete():
    sys = parse_network(ACR)
    sub = active_subnetwork(sys, [(0, 1)])
    assert (sub.n, sub.m, sub.r) == (2, 2, 1)
    names = sub.species.names
    rxn = sub.reactions[0]
    assert sub.complexes[rxn.source].format(sub.species) == "B"
    assert sub.complexes[rxn.target].format(sub.species) == "A"
    assert names == ("A", "B")


def test_active_subnetwork_negative_state_is_empty():
    sys = parse_network(ACR)
    assert active_subnetwork(sys, [(-1, 5)]).is_empty


def test_active_subnetwork_full_at_positive_state():
    sq = load("square")
    assert active_subnetwork(sq, [np.array([5.0, 5.0])]) == sq.network
    assert active_subnetwork(sq, [(5, 5)]) == sq.network
