"""The compatibility-class lattice against the pruned enumeration kept in
``reference_stoch``.

``stoch._class_lattice`` enumerates every assignment of the tightened pivot
ranges and keeps those that land on an integer point of the box in one
filter; ``reference_stoch.class_lattice`` drops partial assignments after
each pivot, with its own interval tightening.  Both must give the same
points in the same order, as int64 arrays of the same shape, and None at
the same inputs.
"""

import itertools
import math

import numpy as np
import pytest

import crn
from crn import Box, parse_network, stoch

import reference_stoch as ref
from helpers import (
    CORPUS,
    load,
    outcome,
    random_conservative_reversible_system,
    random_irreversible_system,
    random_one_species_reversible_system,
    random_weakly_reversible_deficiency_zero,
)

GENERATORS = (
    random_conservative_reversible_system,
    random_one_species_reversible_system,
    random_weakly_reversible_deficiency_zero,
    random_irreversible_system,
)


def _assert_same_lattice(net, seed, box, lattice=stoch._class_lattice):
    """The library's lattice equals the reference's; returns it."""
    new, old = lattice(net, seed, box), ref.class_lattice(net, seed, box)
    if old is None:
        assert new is None
    else:
        assert new is not None and new.dtype == old.dtype
        np.testing.assert_array_equal(new, old, strict=True)
    return new


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_lattice_matches_reference_on_corpus(name):
    net = load(name).network
    for upper in (4, 8, 12, 20):
        box = Box.cube(net.n, upper)
        for seed in itertools.product(range(3), repeat=net.n):
            points = _assert_same_lattice(net, seed, box)
            assert points is None or seed in map(tuple, points.tolist())


def test_lattice_matches_reference_on_random_systems_and_grown_boxes(monkeypatch):
    # with a budget of 60 assignments many boxes are refused, and the class
    # search grows boxes around the seed; every lattice it asks for, in the
    # given box or a grown one, is compared
    monkeypatch.setattr(stoch, "_LATTICE_CAP", 60)
    lattice = stoch._class_lattice
    asked, refused = [], []

    def compared(net, seed, box):
        asked.append(box)
        points = _assert_same_lattice(net, seed, box, lattice)
        refused.extend([box] * (points is None))
        return points

    monkeypatch.setattr(stoch, "_class_lattice", compared)
    rng = np.random.default_rng(2718)
    given = []
    for draw in range(240):
        sys = GENERATORS[draw % len(GENERATORS)](rng)
        n = sys.network.n
        seed = tuple(int(v) for v in rng.integers(0, 4, n))
        lower = tuple(min(int(v), s) for v, s in zip(rng.integers(-2, 2, n), seed))
        upper = tuple(s + int(v) for s, v in zip(seed, rng.integers(0, 12, n)))
        given.append(Box(lower, upper))
        try:
            outcome(stoch.communicating_class, sys, seed, given[-1])
        except ValueError as exc:  # the grown box passed the budget too
            assert str(exc) == f"the class search from {seed} exceeds 60 states"
    grown = [box for box in asked if not any(box is b for b in given)]
    assert len(asked) - len(grown) == 240 and len(grown) >= 40 and len(refused) >= 20


def test_lattice_matches_reference_on_empty_network():
    net = crn.model.empty_network()
    assert _assert_same_lattice(net, (), Box((), ())).shape == (1, 0)


@pytest.mark.parametrize("text, seed, upper", [
    ("0 <-> A : 1, 1", (0,), 20),
    (CORPUS["six_complex"], (0, 0, 2), 12),
    (CORPUS["square"], (2, 2), 8),
    (CORPUS["mono_triangle"], (2, 0, 0), 8),
    ("0 <-> A : 1, 1\n0 <-> B : 1, 1\n0 <-> C : 1, 1", (0, 0, 0), 10),
    # only every third value of A is a point of the class
    ("3A <-> B : 1, 2\nA + B <-> 4A : 1, 1", (1, 2), 9),
])
def test_lattice_at_the_budget_edge(monkeypatch, text, seed, upper):
    # a budget of exactly the tightened ranges' product enumerates them; one
    # less refuses the box
    net = parse_network(text).network
    box = Box.cube(net.n, upper)
    *_, t_lo, t_hi = ref.lattice_ranges(net, seed, box)
    count = math.prod(h - l + 1 for l, h in zip(t_lo, t_hi))
    monkeypatch.setattr(stoch, "_LATTICE_CAP", count)
    points = _assert_same_lattice(net, seed, box)
    assert points is not None and 0 < len(points) <= count
    monkeypatch.setattr(stoch, "_LATTICE_CAP", count - 1)
    assert _assert_same_lattice(net, seed, box) is None
