"""The seed's communicating class, found by forward-backward closure.

``stoch._seed_class`` follows each reaction's moves as one map.  It is
checked against ``scipy.sparse.csgraph`` on hand-built move tables,
``communicating_class`` against the per-state reference on random
irreversible networks, and both for independence from the order of the
reactions and of the species.
"""

import itertools
import re

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from crn import Box, parse_network, stoch

import reference_stoch as ref
from helpers import CORPUS, outcome, random_irreversible_system


def _shift_table(size, shifts, live):
    """Moves of states ``0 .. size-1`` by ``shifts``, live where ``live``
    (a ``size x len(shifts)`` mask) holds and the target is a state."""
    ids = np.arange(size)[:, None]
    targets = ids + np.array(shifts)[None, :]
    targets[(targets < 0) | (targets >= size)] = -1
    return live & (targets >= 0), targets


def _csgraph_class(edges, targets, home):
    size = len(targets)
    graph = csr_matrix(
        (np.ones(int(edges.sum())), (np.nonzero(edges)[0], targets[edges])), shape=(size, size)
    )
    _, labels = connected_components(graph, directed=True, connection="strong")
    return labels == labels[home]


def _assert_matches_csgraph(edges, targets):
    for home in range(len(targets)):
        assert np.array_equal(
            stoch._seed_class(edges, targets, home), _csgraph_class(edges, targets, home)
        ), home


def _chain_live(size, up, down):
    return np.array([[i in up, i in down] for i in range(size)])


def test_absorbing_seed_is_its_own_class():
    edges, targets = _shift_table(7, [+1, -1], _chain_live(7, {0, 1, 2}, {4, 5, 6}))
    assert np.flatnonzero(stoch._seed_class(edges, targets, 3)).tolist() == [3]
    _assert_matches_csgraph(edges, targets)


def test_transient_seed_is_its_own_class():
    edges, targets = _shift_table(6, [+1], np.arange(6)[:, None] < 5)
    assert np.flatnonzero(stoch._seed_class(edges, targets, 0)).tolist() == [0]
    _assert_matches_csgraph(edges, targets)


def test_one_way_edge_keeps_two_classes_apart():
    # 0 <-> 1 <-> 2 -> 3 <-> 4 <-> 5
    edges, targets = _shift_table(6, [+1, -1], _chain_live(6, {0, 1, 2, 3, 4}, {1, 2, 4, 5}))
    assert np.flatnonzero(stoch._seed_class(edges, targets, 0)).tolist() == [0, 1, 2]
    assert np.flatnonzero(stoch._seed_class(edges, targets, 5)).tolist() == [3, 4, 5]
    _assert_matches_csgraph(edges, targets)


def test_reactions_sharing_a_vector_share_one_map():
    # two +1 columns, live at alternate states; neither alone climbs the chain
    size = 9
    live = np.array([[i % 2 == 0, i % 2 == 1, True] for i in range(size)])
    edges, targets = _shift_table(size, [+1, +1, -1], live)
    assert stoch._seed_class(edges, targets, 0).all()
    _assert_matches_csgraph(edges, targets)


def test_staircase_needs_many_sweeps(monkeypatch):
    # on a W x W grid, (a, b) -> (a+1, b) only where a == b, (a, b) -> (a, b+1)
    # only where a == b + 1, and (a, a) -> (a-1, a-1); every sweep over the
    # three maps climbs one step of the staircase
    width = 12
    ids = np.arange(width * width)
    a, b = np.divmod(ids, width)
    live = np.stack([a == b, a == b + 1, a == b], axis=1)
    targets = np.stack([
        np.where(a + 1 < width, ids + width, -1),
        np.where(b + 1 < width, ids + 1, -1),
        np.where((a > 0) & (b > 0), ids - width - 1, -1),
    ], axis=1)
    edges = live & (targets >= 0)
    closures = []
    close = stoch._close
    monkeypatch.setattr(stoch, "_close", lambda mask, step: closures.append(1) or close(mask, step))
    inside = stoch._seed_class(edges, targets, 0)
    assert set(np.flatnonzero(inside).tolist()) == (
        {k * width + k for k in range(width)} | {(k + 1) * width + k for k in range(width - 1)}
    )
    assert len(closures) >= 10 * 3
    _assert_matches_csgraph(edges, targets)


def test_no_live_move_leaves_the_seed_alone():
    edges, targets = _shift_table(4, [+1, -1], np.zeros((4, 2), dtype=bool))
    assert np.flatnonzero(stoch._seed_class(edges, targets, 2)).tolist() == [2]


def _component_fields(comp):
    return (comp.states, comp.closed, comp.truncated, comp.exit_faces, comp.internal_leak)


@pytest.mark.parametrize("seed", range(200))
def test_random_irreversible_components_match_reference(seed):
    rng = np.random.default_rng(seed)
    sys = random_irreversible_system(rng)
    n = sys.network.n
    # the per-state reference walks every candidate in Python; three-species
    # boxes stay at most 12 wide to keep it fast
    box = Box.cube(n, int(rng.integers(3, (41, 41, 13)[n - 1])))
    start = tuple(int(v) for v in rng.integers(0, np.array(box.upper) + 1))
    new, new_err = outcome(stoch.communicating_class, sys, start, box)
    old, old_err = outcome(ref.communicating_class, sys, start, box)
    assert new_err == old_err
    if new is not None:
        assert _component_fields(new) == _component_fields(old)


def _renamed(text, order):
    """``text`` with its species renamed so their columns come in ``order``."""
    names = parse_network(text).network.species.names
    new = {names[j]: f"S{pos}" for pos, j in enumerate(order)}
    return re.sub(r"[A-Za-z_]\w*", lambda m: new.get(m.group(), m.group()), text)


def _summary(sys, seed, box, order):
    """Component and verdict statuses from ``seed``, with states and faces
    written in the species order ``order`` of the original network."""
    comp, err = outcome(stoch.communicating_class, sys, seed, box)
    if comp is None:
        return err
    back = np.argsort(order)
    states = frozenset(tuple(x[i] for i in back) for x in comp.states)
    faces = frozenset((int(order[axis]), side) for axis, side in comp.exit_faces)
    dist, err = outcome(stoch.stationary_distribution, sys, comp, True)
    if dist is None:
        statuses = err
    else:
        report = stoch.classify_component_measure(sys, comp, dist)
        statuses = tuple(
            getattr(report, name).status for name in ("rb", "cb", "rvb", "cyb", "stationary")
        )
    return states, comp.closed, comp.truncated, comp.internal_leak, faces, statuses


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_component_ignores_reaction_and_species_order(name, monkeypatch):
    text = CORPUS[name]
    sys = parse_network(text)
    n = sys.network.n
    box = Box.cube(n, 8)
    identity = np.arange(n)
    reversed_order = identity[::-1]
    # parsing puts the reactions in canonical order, so reversing the lines
    # leaves the search's map order as it was; the patched run below
    # reverses that order itself
    lines_reversed = parse_network("\n".join(reversed(text.splitlines())))
    species_reversed = parse_network(_renamed(text, reversed_order))
    seeds = list(itertools.product(range(3), repeat=n))
    expected = [_summary(sys, seed, box, identity) for seed in seeds]
    for seed, want in zip(seeds, expected):
        assert _summary(lines_reversed, seed, box, identity) == want, seed
        mirrored = tuple(seed[j] for j in reversed_order)
        assert _summary(species_reversed, mirrored, box, reversed_order) == want, seed
    seed_class = stoch._seed_class
    monkeypatch.setattr(stoch, "_seed_class", lambda edges, targets, home: seed_class(
        edges[:, ::-1], targets[:, ::-1], home
    ))
    for seed, want in zip(seeds, expected):
        assert _summary(sys, seed, box, identity) == want, seed
