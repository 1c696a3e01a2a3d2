import math

import pytest

import crn
from crn import (
    Box,
    Measure,
    classify_component_measure,
    classify_measure,
    communicating_class,
    component_is_active,
    parse_network,
    poisson_product,
    reaction_vector_classes,
    stationary_distribution,
    tv_distance,
)
from crn.errors import (
    BoxTooSmallError,
    EmptySupportError,
    NotClosedError,
)
from crn.kinetics import propensities

import reference_stoch as ref
from helpers import CORPUS, load, loaded_modules, stationary_oracle


ACR = CORPUS["absolute_concentration"]


def test_propensity_falling_factorials():
    sys = parse_network("2A <-> 3A : 6, 1")
    rates = propensities(sys, [(3,)])[0]
    net = sys.network
    by_label = {
        net.complexes[r.source].format(net.species): rates[k]
        for k, r in enumerate(net.reactions)
    }
    assert by_label["2A"] == 6 * 3 * 2
    assert by_label["3A"] == 1 * 3 * 2 * 1


def test_propensity_indicator_and_empty_complex():
    sys = parse_network("0 -> A : 6\n2A -> A : 1")
    rates = propensities(sys, [(0,), (-2,)])
    assert rates.tolist() == [[6.0, 0.0], [0.0, 0.0]]


def test_moves_keep_reaction_identity():
    sys = parse_network("0 <-> A : 1, 1")
    assert propensities(sys, [(2,)]).tolist() == [[1.0, 2.0]]
    assert sys.network.reaction_vectors.tolist() == [[1], [-1]]
    # absorbing state: nothing
    acr = parse_network(ACR)
    assert not propensities(acr, [(2, 0)]).any()


def test_moves_stoch_rvb_plus_one_rate():
    sys = load("stoch_rvb_only")
    up_one, _ = reaction_vector_classes(sys.network)[(1,)]
    assert len(up_one) == 2  # two distinct reactions, kept separate
    rates = propensities(sys, [(1,)])[0]
    assert sum(rates[k] for k in up_one) == 2.0  # total +1 rate is x+1 at x=1


def test_communicating_class_acr():
    sys = parse_network(ACR)
    comp = communicating_class(sys, (1, 1), Box.cube(2, 10))
    assert comp.states == ((0, 2), (1, 1))
    assert not comp.closed and not comp.truncated
    assert comp.internal_leak


def test_communicating_class_birth_death_truncated():
    sys = parse_network("0 <-> A : 1, 1")
    comp = communicating_class(sys, (0,), Box.cube(1, 100))
    assert len(comp.states) == 101
    assert comp.truncated and not comp.closed
    assert comp.exit_faces == frozenset({(0, +1)})


def test_communicating_class_negative_singleton():
    sys = parse_network("0 <-> A : 1, 1")
    comp = communicating_class(sys, (-1,), Box((-5,), (5,)))
    assert comp.states == ((-1,),)
    assert comp.closed and not comp.truncated


def test_box_too_small():
    sys = parse_network("0 -> A : 1\nA -> 0 : 1")
    with pytest.raises(BoxTooSmallError):
        communicating_class(sys, (0,), Box.cube(1, 0))


def test_stationary_distribution_monomolecular_pair():
    sys = parse_network("A <-> B : 1, 1")
    comp = communicating_class(sys, (2, 0), Box.cube(2, 5))
    assert comp.closed
    dist = stationary_distribution(sys, comp)
    expected = {(0, 2): 0.25, (1, 1): 0.5, (2, 0): 0.25}
    for x, p in expected.items():
        assert abs(dist(x) - p) < 1e-12
    inside = set(comp.states)
    oracle = stationary_oracle(
        comp.states,
        {x: [t for t in ref.transitions(sys, x) if t[0] in inside] for x in comp.states},
    )
    assert max(abs(dist(x) - oracle[x]) for x in comp.states) < 1e-10


def test_stationary_distribution_not_closed_guard():
    sys = parse_network(ACR)
    comp = communicating_class(sys, (1, 1), Box.cube(2, 10))
    with pytest.raises(NotClosedError):
        stationary_distribution(sys, comp)
    with pytest.raises(NotClosedError):
        stationary_distribution(sys, comp, allow_truncated=True)


def test_stationary_distribution_absorbing_point_mass():
    sys = parse_network(ACR)
    comp = communicating_class(sys, (2, 0), Box.cube(2, 10))
    assert comp.closed and comp.states == ((2, 0),)
    dist = stationary_distribution(sys, comp)
    assert dist.weights == {(2, 0): 1.0}


def test_stationary_stoch_rvb_tail_accuracy():
    sys = load("stoch_rvb_only")
    comp = communicating_class(sys, (0,), Box.cube(1, 30))
    dist = stationary_distribution(sys, comp, allow_truncated=True)
    ref = {}
    w = 1.0
    for x in range(31):
        ref[(x,)] = w
        w /= 2 * x + 1
    z = sum(ref.values())
    err = max(
        abs(dist((x,)) - ref[(x,)] / z) / (ref[(x,)] / z) for x in range(26)
    )
    assert err < 1e-6


def test_stationary_scale_free():
    text = CORPUS["birth_death"]
    sys = parse_network(text)
    doubled = crn.MassActionSystem(sys.network, tuple(2 * k for k in sys.kappa))
    comp = communicating_class(sys, (0,), Box.cube(1, 40))
    d1 = stationary_distribution(sys, comp, allow_truncated=True)
    comp2 = communicating_class(doubled, (0,), Box.cube(1, 40))
    d2 = stationary_distribution(doubled, comp2, allow_truncated=True)
    assert tv_distance(d1, d2) <= 1e-12


def test_poisson_product_examples():
    m = poisson_product([1.0, 1.0], [(0, 2), (1, 1), (2, 0)])
    assert abs(m((0, 2)) - 0.25) < 1e-15
    assert abs(m((1, 1)) - 0.5) < 1e-15
    m = poisson_product([1.0], [(x,) for x in range(20)])
    ref = [math.exp(-1) / math.factorial(x) for x in range(20)]
    z = sum(ref)
    assert max(abs(m((x,)) - ref[x] / z) for x in range(20)) < 1e-12
    point = poisson_product([2.0, 3.0], [(0, 0)])
    assert point.weights == {(0, 0): 1.0}
    with pytest.raises(EmptySupportError):
        poisson_product([1.0], [])


def test_classify_birth_death_measure():
    sys = load("birth_death")
    comp = communicating_class(sys, (0,), Box.cube(1, 60))
    dist = stationary_distribution(sys, comp, allow_truncated=True)
    rep = classify_component_measure(sys, comp, dist)
    assert rep.rvb.holds and rep.cyb.holds and rep.stationary.holds
    assert rep.rb.fails and rep.rb.witness is not None
    assert rep.cb.fails


def test_classify_square_poisson_product():
    sys = load("square")
    comp = communicating_class(sys, (3, 0), Box.cube(2, 20))
    assert comp.closed and component_is_active(sys, comp)
    c = crn.solve_complex_balanced(sys)
    dist = poisson_product(c, comp.states)
    rep = classify_component_measure(sys, comp, dist)
    assert rep.cb.holds and rep.rb.fails
    assert rep.stationary.holds
    assert rep.boundary_skipped == 0


def test_classify_absorbing_point_mass_all_hold():
    sys = parse_network(ACR)
    comp = communicating_class(sys, (2, 0), Box.cube(2, 10))
    dist = stationary_distribution(sys, comp)
    rep = classify_component_measure(sys, comp, dist)
    for v in (rep.rb, rep.cb, rep.rvb, rep.cyb, rep.stationary):
        assert v.holds
    assert rep.boundary_skipped == 0


def test_is_stationary_uniform_fails():
    sys = parse_network("0 <-> A : 1, 1")
    comp = communicating_class(sys, (0,), Box.cube(1, 20))
    uniform = Measure({(x,): 1.0 / 21.0 for x in range(21)}, normalized=True)
    domain, faces = crn.classification_domain(sys, comp)
    report = classify_measure(sys, uniform, domain, truncation_faces=faces)
    assert report.stationary.fails


def test_is_stationary_poisson_holds():
    sys = parse_network("0 <-> A : 1, 1")
    comp = communicating_class(sys, (0,), Box.cube(1, 40))
    dist = stationary_distribution(sys, comp, allow_truncated=True)
    domain, faces = crn.classification_domain(sys, comp)
    assert classify_measure(sys, dist, domain, truncation_faces=faces).stationary.holds


def test_six_complex_component_slices():
    sys = load("six_complex")
    comp1 = communicating_class(sys, (0, 0, 1), Box((0, 0, 1), (30, 30, 1)))
    d1 = stationary_distribution(sys, comp1, allow_truncated=True)
    r1 = classify_component_measure(sys, comp1, d1)
    assert r1.rvb.holds and r1.cb.holds and r1.rb.fails

    comp2 = communicating_class(sys, (0, 0, 2), Box((0, 0, 2), (30, 30, 2)))
    d2 = stationary_distribution(sys, comp2, allow_truncated=True)
    r2 = classify_component_measure(sys, comp2, d2)
    assert r2.rvb.fails and r2.rb.fails and r2.cb.holds


def test_classify_measure_default_domain_is_conservative():
    # with the spec-default all-faces margin, a slab domain leaves every
    # equation undetermined rather than guessing
    sys = load("six_complex")
    comp = communicating_class(sys, (0, 0, 1), Box((0, 0, 1), (10, 10, 1)))
    dist = stationary_distribution(sys, comp, allow_truncated=True)
    rep = classify_measure(sys, dist, comp.box)
    assert rep.rvb.status is crn.Status.UNDETERMINED
    assert rep.boundary_skipped > 0


def test_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse adds about 0.35 s to a fresh interpreter, and the
    # component search is numpy alone, so importing crn never loads it
    assert "scipy.sparse" not in loaded_modules("import crn, crn.cli")
