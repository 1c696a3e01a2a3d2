"""The indexed stochastic layer against its per-state reference.

``reference_stoch`` keeps the state-by-state algorithms.  Components,
supports, verdict statuses, witness states and conditions, and
``boundary_skipped`` must equal the reference exactly.  Stationary weights
and witness lhs/rhs must agree to the componentwise relative tolerance
``RTOL``: the library's banded GTH sums each row and back-substitution dot
product over the band, in lexicographic state order, while the reference
sums them over whole rows in the component's own order, so the two round
differently (by at most 4.3 ulp, relative, on the corpus components here).
"""

import math

import numpy as np
import pytest

import crn
from crn import Box, Measure, parse_network, stoch
from crn.kinetics import propensities
from crn.stoch import _find, _Frame

import reference_stoch as ref
from helpers import load, outcome, random_irreversible_system, relisted

RTOL = 1e-13  # about 450 ulp

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


def _assert_same_measure(new: Measure, old: Measure):
    """Same support, listed in lexicographic order; weights within RTOL."""
    assert list(new.weights) == sorted(old.weights)
    np.testing.assert_allclose(
        [new.weights[x] for x in new.weights], [old.weights[x] for x in new.weights],
        rtol=RTOL, atol=0,
    )


def _assert_same_report(new, old):
    """Same statuses, witness states and conditions and ``boundary_skipped``;
    witness lhs and rhs within RTOL."""
    assert new.boundary_skipped == old.boundary_skipped
    for name in ("rb", "cb", "rvb", "cyb", "stationary"):
        v, w = getattr(new, name), getattr(old, name)
        assert v.status == w.status, name
        if v.witness is not None:
            assert (v.witness.state, v.witness.condition) == (w.witness.state, w.witness.condition)
            np.testing.assert_allclose(
                [v.witness.lhs, v.witness.rhs], [w.witness.lhs, w.witness.rhs], rtol=RTOL, atol=0
            )


def _assert_component_matches_reference(sys, comp, box, order=None):
    """Activity, stationary distribution and measure reports of one component;
    the reference eliminates its states in ``order``, by default sorted."""
    assert stoch.component_is_active(sys, comp) == ref.component_is_active(sys, comp)
    dist, err = outcome(stoch.stationary_distribution, sys, comp, allow_truncated=True)
    old_dist, old_err = outcome(
        ref.stationary_distribution, sys, comp, allow_truncated=True, order=order
    )
    assert err == old_err
    uniform = Measure({x: 1.0 for x in comp.states})
    measures = [uniform] if dist is None else [dist, uniform]
    domain, faces = ref.classification_domain(sys, comp)
    assert stoch.classification_domain(sys, comp) == (domain, faces)
    if dist is not None:
        _assert_same_measure(dist, old_dist)
        _assert_same_report(
            stoch.classify_component_measure(sys, comp, dist),
            ref.classify_measure(sys, old_dist, domain, truncation_faces=faces),
        )
    for mu in measures:
        assert stoch.classify_component_measure(sys, comp, mu) == ref.classify_measure(
            sys, mu, domain, truncation_faces=faces
        )
        assert stoch.classify_measure(sys, mu, box) == ref.classify_measure(sys, mu, box)
    # a support reaching past the component, to the corners of the domain:
    # the rates the index does not hold are evaluated
    wider = Measure({**uniform.weights, domain.lower: 0.5, domain.upper: 2.0})
    assert outcome(stoch.classify_component_measure, sys, comp, wider) == outcome(
        ref.classify_measure, sys, wider, domain, truncation_faces=faces
    )


def _assert_matches_reference(sys, seed, box):
    comp, err = outcome(stoch.communicating_class, sys, seed, box)
    old_comp, old_err = outcome(ref.communicating_class, sys, seed, box)
    assert err == old_err
    if comp is None:
        return
    assert comp == old_comp
    _assert_component_matches_reference(sys, comp, box)


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_indexed_layer_matches_reference_on_corpus(name):
    sys = load(name)
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
    base = load(name)
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
    # 800 and 801 states, on either side of the size where an earlier
    # version switched from GTH to sparse LU
    sys = load("birth_death")
    _assert_matches_reference(sys, (0,), Box.cube(1, upper))


def _whole_box_refused(monkeypatch, boxes):
    """Make the class lattice of each box in ``boxes`` count as too large, so
    that a search in one of them grows a box around its seed.  Grown boxes
    are new objects, so one that reaches every face is still enumerated."""
    lattice = stoch._class_lattice
    monkeypatch.setattr(stoch, "_class_lattice", lambda net, seed, box: (
        None if any(box is b for b in boxes) else lattice(net, seed, box)
    ))


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_grown_box_matches_reference(name, monkeypatch):
    # every component is found among the class's lattice points in a box
    # grown around its seed, never in the whole box
    sys = load(name)
    n = sys.network.n
    boxes = [Box.cube(n, 12), Box((-2,) * n, (6,) * n)]
    _whole_box_refused(monkeypatch, boxes)
    for seed in SEEDS[name]:
        for box in boxes:
            _assert_matches_reference(sys, seed, box)


def test_grown_box_matches_reference_on_random_networks(monkeypatch):
    # with a budget of 40 states, every box of 13**n points is grown; each
    # search finds the reference's component or stops at the budget
    monkeypatch.setattr(stoch, "_LATTICE_CAP", 40)
    rng = np.random.default_rng(123)
    found = 0
    for _ in range(300):
        sys = random_irreversible_system(rng)
        n = sys.network.n
        seed = tuple(int(v) for v in rng.integers(0, 4, n))
        box = Box.cube(n, 12)
        try:
            comp, err = outcome(stoch.communicating_class, sys, seed, box)
        except ValueError as exc:
            assert str(exc) == f"the class search from {seed} exceeds 40 states"
            continue
        assert (comp, err) == outcome(ref.communicating_class, sys, seed, box)
        found += 1
    assert found >= 200


def test_grown_box_stops_at_the_state_budget(monkeypatch):
    # an open chain reaches every state of the box: the grown box doubles
    # until its class passes the budget, each round enumerated anew
    monkeypatch.setattr(stoch, "_LATTICE_CAP", 100)
    sys = load("birth_death")
    grown = []
    lattice = stoch._class_lattice
    monkeypatch.setattr(stoch, "_class_lattice", lambda net, seed, box: (
        grown.append((box.lower, box.upper)) or lattice(net, seed, box)
    ))
    with pytest.raises(ValueError, match=r"^the class search from \(3,\) exceeds 100 states$"):
        stoch.communicating_class(sys, (3,), Box.cube(1, 10**4))
    assert grown == [((0,), (10**4,)), ((2,), (4,)), ((1,), (5,)), ((0,), (7,)), ((0,), (11,)),
                     ((0,), (19,)), ((0,), (35,)), ((0,), (67,)), ((0,), (131,))]
    # in an open class of the same box, a closed component stops the growth
    sys = parse_network("2A -> 3A : 1\nB <-> C : 1, 2")
    comp = stoch.communicating_class(sys, (1, 3, 0), Box.cube(3, 10**4))
    assert comp.closed and comp.states == ((1, 0, 3), (1, 1, 2), (1, 2, 1), (1, 3, 0))


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
    # a component built by hand may list its states in any order; the
    # reference eliminates in that order, the library in lexicographic order
    sys = load(name)
    box = Box.cube(sys.network.n, upper)
    comp = stoch.communicating_class(sys, SEEDS[name][0], box)
    assert len(comp.states) > 1
    listed = relisted(sys, comp, comp.states[::-1])
    assert listed == comp
    _assert_component_matches_reference(sys, listed, box, order=comp.states[::-1])


def test_indexed_layer_matches_reference_on_slanted_class():
    # reaction vectors +-(3, -1): the echelon basis (3, -1) has pivot entry
    # 3, so only every third value of A is a point of the class
    sys = parse_network("3A <-> B : 1, 2\nA + B <-> 4A : 1, 1")
    for seed in ((0, 1), (1, 2)):
        _assert_matches_reference(sys, seed, Box.cube(2, 9))


def test_indexed_layer_matches_reference_on_empty_network():
    sys = crn.MassActionSystem(crn.model.empty_network(), ())
    _assert_matches_reference(sys, (), Box((), ()))


def test_poisson_product_matches_reference_bit_for_bit():
    # the product form is evaluated on arrays; from tuples in any order, with
    # repeats, or from a component's array it must equal the per-state loop
    rng = np.random.default_rng(0)
    for name in sorted(SEEDS):
        sys = load(name)
        n = sys.network.n
        for box in (Box.cube(n, 12), Box((-2,) * n, (6,) * n)):
            comp = stoch.communicating_class(sys, SEEDS[name][0], box)
            c = np.exp(rng.uniform(-2.0, 2.0, size=n))
            old, old_err = outcome(ref.poisson_product, c, comp.states)
            for states in (comp.states, comp.points, list(reversed(comp.states)) * 2):
                new, err = outcome(stoch.poisson_product, c, states)
                assert err == old_err, name
                if new is not None:
                    assert list(new.weights.items()) == list(old.weights.items()), name
    for product in (ref.poisson_product, stoch.poisson_product):
        # the first negative state in sorted order is named
        with pytest.raises(ValueError, match=r"state \(-1, 3\) has a negative coordinate"):
            product([1.0, 2.0], [(1, 1), (2, -1), (-1, 3), (0, 0)])
    # the tail of a long chain underflows and leaves the support
    states = [(x,) for x in range(3000)]
    old = ref.poisson_product([0.5], states)
    assert len(old.weights) < 3000
    assert list(stoch.poisson_product([0.5], states).weights.items()) == list(old.weights.items())


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
    sys = load("stoch_rvb_only")  # holds 4A: exceeds int64 at 10**5
    states = [(0,), (1,), (3,), (4,), (10**4,), (10**5,)]
    batch = propensities(sys, states)
    for x, row in zip(states, batch):
        assert row.tolist() == _scalar_propensity(sys, x)
    big = sys.network.source_matrix.max()
    assert math.perm(10**5, int(big)) > 2**63


def test_propensities_take_counts_beyond_int64():
    sys = load("stoch_rvb_only")
    states = [(2**63,), (3,), (2**64 + 5,)]
    batch = propensities(sys, states)
    for x, row in zip(states, batch):
        assert row.tolist() == _scalar_propensity(sys, x)
    assert not propensities(sys, [(-(2**70),)]).any()


def test_batched_propensities_vanish_off_the_orthant():
    sys = load("six_complex")
    states = [(-1, 0, 0), (0, -3, 2), (5, 5, -1), (-(10**6), 10**6, 10**6)]
    assert not propensities(sys, states).any()
    assert propensities(sys, np.zeros((0, 3), dtype=np.int64)).shape == (0, sys.network.r)


def test_communicating_class_does_not_enumerate_the_box():
    sys = load("mono_triangle")
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


@pytest.mark.parametrize("lo, hi", [
    ([0], [2**63 - 1]),
    ([0, 0], [2**63 - 1, 5]),
    ([-(2**63)], [-1]),
])
def test_frame_refuses_a_side_of_2_pow_63_points(lo, hi):
    with pytest.raises(ValueError, match=r"a side of 2\*\*63 or more points"):
        _Frame(lo, hi)


def test_closed_component_at_the_top_of_int64_is_classified():
    # the padded domain of this closed component reaches past 2**63 - 1
    top = 2**63 - 1
    sys = parse_network("A + B <-> C : 1, 1")
    comp = stoch.communicating_class(sys, (top - 1, 1, 0), Box((top - 3, 0, 0), (top, 1, 1)))
    assert comp.closed and comp.states == ((top - 2, 0, 1), (top - 1, 1, 0))
    dist = stoch.stationary_distribution(sys, comp)
    domain, faces = stoch.classification_domain(sys, comp)
    assert domain.upper[0] > top
    report = stoch.classify_component_measure(sys, comp, dist)
    assert report == ref.classify_measure(sys, dist, domain, truncation_faces=faces)
    assert report.boundary_skipped == 0
    assert all(getattr(report, name).holds for name in ("rb", "cb", "rvb", "cyb", "stationary"))
