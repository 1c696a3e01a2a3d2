import json

import numpy as np
import pytest

import crn
from crn import (
    active_subnetwork,
    cycles_of,
    deficiency,
    empty_network,
    is_reversible,
    is_weakly_reversible,
    linkage_classes,
    parse_network,
)
from crn.cli import main
from crn.errors import EmptyNetworkError

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


def _edge_vector(net, cycle):
    """The cycle as a signed sum of its edges, each unordered pair of
    complexes one coordinate."""
    pairs = sorted({tuple(sorted((r.source, r.target))) for r in net.reactions})
    vec = np.zeros(len(pairs))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        vec[pairs.index((min(a, b), max(a, b)))] += 1 if a < b else -1
    return vec


def _spans(net, basis, cycles):
    """Whether the edge vectors of ``basis`` span those of ``cycles``."""
    if not cycles:
        return True
    rank = np.linalg.matrix_rank
    rows = [_edge_vector(net, cycle) for cycle in basis]
    return rank(np.array(rows + [_edge_vector(net, c) for c in cycles])) == rank(
        np.array(rows).reshape(len(rows), -1))


def test_cycle_basis_triangle_and_square():
    # one fundamental cycle each, the smaller of its two orientations
    tri = load("triangle").network
    assert cycles_of(tri) == ((0, 1, 2),)
    assert set(cycles_of(tri)) < cycles_oracle(tri)

    sq = load("square").network
    assert cycles_of(sq) == ((0, 1, 3, 2),)
    assert set(cycles_of(sq)) < cycles_oracle(sq)
    assert _spans(sq, cycles_of(sq), cycles_oracle(sq))


def test_cycle_basis_empty_for_pairs_and_without_dropped_complexes():
    net = parse_network("0 <-> A : 1, 1").network
    assert cycles_of(net) == ()
    # dropping a complex of the triangle leaves a path
    tri = load("triangle").network
    assert all(cycles_of(tri, frozenset({i})) == () for i in range(3))


def test_cycle_basis_spans_oracle_cycles_on_random_networks():
    rng = np.random.default_rng(13)
    for _ in range(30):
        net = random_conservative_reversible_system(rng).network
        oracle = cycles_oracle(net)
        basis = cycles_of(net)
        pairs = {tuple(sorted((r.source, r.target))) for r in net.reactions}
        assert len(basis) == len(pairs) - net.m + len(linkage_classes(net))
        assert set(basis) <= oracle
        assert basis == tuple(sorted(basis, key=lambda c: (len(c), c)))
        assert _spans(net, basis, sorted(oracle))
        for dropped in (frozenset({0}), frozenset({net.m - 1, 1})):
            sub = {c for c in oracle if not dropped & set(c)}
            assert set(cycles_of(net, dropped)) <= sub
            assert _spans(net, cycles_of(net, dropped), sorted(sub))


def test_cycle_basis_covers_each_irreversible_reaction_on_a_cycle():
    # every reaction without a reverse that lies on some directed cycle lies
    # on a shortest one of the basis
    rng = np.random.default_rng(17)
    complexes = [crn.Complex((d,)) for d in range(5)]
    for _ in range(60):
        pairs = [(i, j) for i in range(5) for j in range(5) if i != j and rng.random() < 0.35]
        reactions = [crn.Reaction(i, j) for i, j in pairs]
        used = sorted({i for pair in pairs for i in pair})
        if len(used) < 5:
            continue
        net = crn.build_network(crn.SpeciesTable(("A",)), complexes, reactions)
        oracle = cycles_oracle(net)
        basis = cycles_of(net)
        assert set(basis) <= oracle
        for r in net.reactions:
            if (r.target, r.source) in net.edge_index:
                continue
            through = [c for c in oracle if (r.source, r.target) in zip(c, c[1:] + c[:1])]
            mine = [c for c in basis if (r.source, r.target) in zip(c, c[1:] + c[:1])]
            assert bool(through) == bool(mine)
            if through:
                assert len(mine[0]) == min(map(len, through))


def _complete_network(k: int) -> str:
    """One species, complexes 0, A, ..., (k-1)A, every pair reversible, with
    cycle-balanced rate constants."""
    name = ["0", "A"] + [f"{d}A" for d in range(2, k)]
    return "".join(
        f"{name[i]} <-> {name[j]} : {i + 1}, {j + 1}\n" for i in range(k) for j in range(i + 1, k)
    )


@pytest.mark.parametrize("k", [10, 12])
def test_analyze_complete_network_checks_the_cycle_basis(tmp_path, capsys, k):
    # k = 10 has 1,112,028 directed cycles and k = 12 has 119,481,218, past
    # any enumeration; the basis has (k - 1)(k - 2)/2
    path = tmp_path / "complete.crn"
    path.write_text(_complete_network(k))
    assert main(["analyze", str(path), "--seed-state", "A=0", "--seed-state", "A=3",
                 "--box", "30"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["det"]["cyb_system"] is True
    assert len(cycles_of(parse_network(path.read_text()).network)) == (k - 1) * (k - 2) // 2


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
