"""The indexed stochastic layer against its per-state reference.

``reference_stoch`` keeps the state-by-state algorithms; every result of the
indexed implementation (components, distributions, measure reports with
their witnesses) must equal the reference exactly, not within a tolerance.
"""

import dataclasses
import math

import numpy as np
import pytest

import crn
from crn import Box, Measure, parse_network, stoch
from crn.kinetics import propensities, propensity
from crn.stoch import _find, _Frame

import reference_stoch as ref

# Seed states per corpus network: interior, boundary and absorbing states.
SEEDS = {
    "intro_unit": ((2, 1, 0), (0, 2, 1)),
    "intro_generic": ((1, 1, 1), (1, 0, 2)),
    "triangle": ((2, 1), (3, 0)),
    "square": ((3, 0), (2, 2)),
    "rvb_three_roots": ((0,), (3,)),
    "absolute_concentration": ((1, 1), (2, 0), (0, 0)),
    "birth_death": ((0,), (2,)),
    "stoch_rvb_only": ((0,), (1,)),
    "stoch_rvb_two_species": ((0, 1), (2, 0)),
    "semi_open": ((0, 1), (2, 0)),
    "six_complex": ((0, 0, 1), (1, 1, 2)),
    "mono_triangle": ((2, 0, 0), (1, 1, 1)),
}


def _outcome(fn, *args, **kwargs):
    """Result of a call, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs), None
    except crn.errors.CrnError as exc:
        return None, (type(exc), str(exc))


def _assert_same_measure(new: Measure, old: Measure):
    assert list(new.weights) == list(old.weights)
    assert np.array_equal(
        np.fromiter(new.weights.values(), float), np.fromiter(old.weights.values(), float)
    )


def _assert_component_matches_reference(sys, comp, box):
    """Activity, stationary distribution and measure reports of one component."""
    assert stoch.component_is_active(sys, comp) == ref.component_is_active(sys, comp)
    dist, err = _outcome(stoch.stationary_distribution, sys, comp, allow_truncated=True)
    old_dist, old_err = _outcome(ref.stationary_distribution, sys, comp, allow_truncated=True)
    assert err == old_err
    uniform = Measure({x: 1.0 for x in comp.states})
    measures = [uniform] if dist is None else [dist, uniform]
    if dist is not None:
        _assert_same_measure(dist, old_dist)
    domain, faces = ref.classification_domain(sys, comp)
    assert stoch.classification_domain(sys, comp) == (domain, faces)
    for mu in measures:
        assert stoch.classify_component_measure(sys, comp, mu) == ref.classify_measure(
            sys, mu, domain, truncation_faces=faces
        )
        assert stoch.classify_measure(sys, mu, box) == ref.classify_measure(sys, mu, box)


def _assert_matches_reference(sys, seed, box):
    comp, err = _outcome(stoch.communicating_class, sys, seed, box)
    old_comp, old_err = _outcome(ref.communicating_class, sys, seed, box)
    assert err == old_err
    if comp is None:
        return
    assert comp == old_comp
    _assert_component_matches_reference(sys, comp, box)


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_indexed_layer_matches_reference_on_corpus(name):
    sys = crn.corpus.load(name)
    n = sys.network.n
    for seed in SEEDS[name]:
        for box in (Box.cube(n, 4), Box.cube(n, 12), Box((-2,) * n, (6,) * n)):
            _assert_matches_reference(sys, seed, box)
    # the default CLI box, on the first seed
    _assert_matches_reference(sys, SEEDS[name][0], Box.cube(n, 20))


@pytest.mark.parametrize(
    "name", ["square", "stoch_rvb_only", "stoch_rvb_two_species", "six_complex"]
)
def test_indexed_layer_matches_reference_with_inexact_rates(name):
    # rate constants whose sums round, so any change of summation order shows
    base = crn.corpus.load(name)
    rng = np.random.default_rng(sorted(SEEDS).index(name))
    sys = crn.MassActionSystem(
        base.network, tuple(float(k) for k in np.exp(rng.uniform(-2.0, 2.0, base.network.r)))
    )
    n = sys.network.n
    for seed in SEEDS[name]:
        _assert_matches_reference(sys, seed, Box.cube(n, 12))
    _assert_matches_reference(sys, SEEDS[name][0], Box((-1,) * n, (20,) * n))


@pytest.mark.parametrize("upper", [799, 800])
def test_indexed_layer_matches_reference_across_solver_crossover(upper):
    sys = crn.corpus.load("birth_death")
    _assert_matches_reference(sys, (0,), Box.cube(1, upper))


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_reachable_candidates_match_reference(name, monkeypatch):
    # with no class small enough to enumerate, every component is found
    # among the states reachable from its seed
    monkeypatch.setattr(stoch, "_LATTICE_CAP", 0)
    sys = crn.corpus.load(name)
    n = sys.network.n
    for seed in SEEDS[name]:
        for box in (Box.cube(n, 12), Box((-2,) * n, (6,) * n)):
            _assert_matches_reference(sys, seed, box)


def test_small_component_of_an_open_class_in_a_large_box():
    # the compatibility class spans the 10**5 x 10**5 face of A and B; the
    # components are reached from the seed instead
    sys = parse_network("2A -> 3A : 1\n2B -> 3B : 1\nC -> D : 1\nD -> C : 2")
    box = Box.cube(4, 10**5)
    stuck = stoch.communicating_class(sys, (1, 1, 0, 0), box)
    assert stuck.states == ((1, 1, 0, 0),) and stuck.closed
    pair = stoch.communicating_class(sys, (1, 1, 1, 0), box)
    assert pair.states == ((1, 1, 0, 1), (1, 1, 1, 0)) and pair.closed
    for seed in ((1, 1, 0, 0), (1, 1, 1, 0)):
        _assert_matches_reference(sys, seed, box)
    # a truncated component, explored forward to its exit face
    sys = parse_network("A -> 2A : 1\n2A -> A : 2\n2B -> 3B : 1")
    _assert_matches_reference(sys, (1, 1), Box((0, 0), (30, 10**5)))


@pytest.mark.parametrize(
    "name, upper", [("six_complex", 12), ("rvb_three_roots", 12), ("birth_death", 799),
                    ("birth_death", 800)]
)
def test_indexed_layer_matches_reference_on_unsorted_states(name, upper):
    # a component built by hand may list its states in any order
    sys = crn.corpus.load(name)
    box = Box.cube(sys.network.n, upper)
    comp = stoch.communicating_class(sys, SEEDS[name][0], box)
    assert len(comp.states) > 1
    _assert_component_matches_reference(
        sys, dataclasses.replace(comp, states=comp.states[::-1]), box
    )


def test_indexed_layer_matches_reference_on_slanted_class():
    # reaction vectors +-(3, -1): the echelon basis (3, -1) has pivot entry
    # 3, so only every third value of A is a point of the class
    sys = parse_network("3A <-> B : 1, 2\nA + B <-> 4A : 1, 1")
    for seed in ((0, 1), (1, 2)):
        _assert_matches_reference(sys, seed, Box.cube(2, 9))


def test_indexed_layer_matches_reference_on_empty_network():
    sys = crn.MassActionSystem(crn.model.empty_network(), ())
    _assert_matches_reference(sys, (), Box((), ()))


def _scalar_propensity(sys, x):
    """Propensities from the definition, in Python ints."""
    out = []
    for k in range(sys.network.r):
        y = [int(v) for v in sys.network.source_matrix[k]]
        if any(xi < yi for xi, yi in zip(x, y)):
            out.append(0.0)
            continue
        prod = 1
        for xi, yi in zip(x, y):
            prod *= math.prod(range(xi - yi + 1, xi + 1))
        out.append(sys.kappa[k] * prod)
    return out


def test_batched_propensities_are_exact():
    sys = crn.corpus.load("stoch_rvb_only")  # holds 4A: exceeds int64 at 10**5
    states = [(0,), (1,), (3,), (4,), (10**4,), (10**5,)]
    batch = propensities(sys, states)
    for x, row in zip(states, batch):
        assert row.tolist() == _scalar_propensity(sys, x)
        assert propensity(sys, x).tolist() == row.tolist()
    big = sys.network.source_matrix.max()
    assert math.perm(10**5, int(big)) > 2**63


def test_propensities_take_counts_beyond_int64():
    sys = crn.corpus.load("stoch_rvb_only")
    states = [(2**63,), (3,), (2**64 + 5,)]
    batch = propensities(sys, states)
    for x, row in zip(states, batch):
        assert row.tolist() == _scalar_propensity(sys, x)
        assert propensity(sys, x).tolist() == row.tolist()
    assert not propensity(sys, (-(2**70),)).any()


def test_batched_propensities_vanish_off_the_orthant():
    sys = crn.corpus.load("six_complex")
    states = [(-1, 0, 0), (0, -3, 2), (5, 5, -1), (-(10**6), 10**6, 10**6)]
    assert not propensities(sys, states).any()
    assert propensities(sys, np.zeros((0, 3), dtype=np.int64)).shape == (0, sys.network.r)


def test_communicating_class_does_not_enumerate_the_box():
    sys = crn.corpus.load("mono_triangle")
    small = stoch.communicating_class(sys, (3, 0, 0), Box.cube(3, 20))
    large = stoch.communicating_class(sys, (3, 0, 0), Box.cube(3, 10**4))
    assert len(large.states) == 10 and large.closed
    assert large.states == small.states


def test_frame_keys_fall_back_to_exact_integers():
    # a bounding box of more than 2**63 points takes Python-int keys
    points = np.array([[0, 0, 0, 0, 0], [0, 1, 0, 0, 5], [10**5, 0, 10**5, 10**5, 10**5]])
    frame = _Frame(points.min(axis=0), points.max(axis=0))
    assert frame.dtype is object
    keys = frame.keys(points)
    assert list(keys) == sorted(keys)
    queries = np.array([[0, 1, 0, 0, 5], [0, 1, 0, 0, 4], [-1, 0, 0, 0, 0]])
    assert _find(keys, frame.keys(queries)).tolist() == [1, -1, -1]
