"""Measure classification through the shared offset table.

``reference_classify`` keeps the classifier that built every equation's
candidate states on its own.  The table-driven one must give the same
report: statuses, witness states and labels, lhs and rhs bit for bit, and
``boundary_skipped``.  Near the ends of int64, where the old frame wrapped,
the per-state ``reference_stoch`` classifier, which works in Python ints, is
the oracle.
"""

import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from crn import Box, MassActionSystem, Measure, parse_network, stoch

import reference_classify
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

CONDITIONS = ("rb", "cb", "rvb", "cyb", "stationary")


def _bits(report):
    """The report with each witness's lhs and rhs as their float64 bytes."""
    if report is None:
        return None
    verdicts = []
    for name in CONDITIONS:
        v = getattr(report, name)
        w = v.witness
        verdicts.append((v.status, w and (w.state, w.condition, struct.pack("<dd", w.lhs, w.rhs))))
    return verdicts, report.boundary_skipped


def _measures(sys, comp):
    """Stationary (uniform where the component has none), uniform, reaching
    one step past the component, and the first with every third state
    dropped."""
    uniform = Measure({x: 1.0 for x in comp.states})
    dist = stoch.stationary_distribution(sys, comp, allow_truncated=True) if (
        comp.closed or (comp.truncated and not comp.internal_leak)) else uniform
    domain, _ = stoch.classification_domain(sys, comp)
    wider = {tuple(int(v) + 1 for v in x): 0.25 for x in comp.states}
    wider = Measure({x: w for x, w in wider.items() if domain.contains(x)} | uniform.weights)
    holes = Measure({x: w for i, (x, w) in enumerate(dist.weights.items()) if i % 3 != 1})
    return dist, uniform, wider, holes


def _result(fn, *args, **kwargs):
    """``_bits`` of a report, or the type and message of the error raised."""
    report, error = outcome(fn, *args, **kwargs)
    return _bits(report), error


def _assert_same_as_reference(sys, comp):
    domain, faces = stoch.classification_domain(sys, comp)
    old = reference_classify.classify
    for mu in _measures(sys, comp):
        assert _result(stoch.classify_component_measure, sys, comp, mu) == _result(
            old, sys, mu, domain, 1e-9, faces, comp)
        for truncation_faces in {None, frozenset(), faces}:
            assert _result(
                stoch.classify_measure, sys, mu, domain, truncation_faces=truncation_faces
            ) == _result(old, sys, mu, domain, 1e-9, truncation_faces)


def _components(sys, seeds, box):
    for seed in seeds:
        try:
            yield stoch.communicating_class(sys, seed, box)
        except (ValueError, stoch.BoxTooSmallError):
            continue


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_table_matches_per_equation_classifier_on_corpus(name):
    sys = load(name)
    n = sys.network.n
    seeds = list(itertools.product(range(3), repeat=n))[::3]
    for box in (Box.cube(n, 4), Box.cube(n, 12), Box((-2,) * n, (6,) * n)):
        for comp in _components(sys, seeds, box):
            _assert_same_as_reference(sys, comp)


def test_table_matches_per_equation_classifier_on_random_networks():
    rng = np.random.default_rng(2210)
    makers = (
        random_conservative_reversible_system,
        random_one_species_reversible_system,
        random_weakly_reversible_deficiency_zero,
        random_irreversible_system,
    )
    for draw in range(40):
        sys = makers[draw % 4](rng)
        n = sys.network.n
        seed = tuple(int(v) for v in rng.integers(0, 3, size=n))
        for comp in _components(sys, [seed], Box.cube(n, int(rng.integers(3, 9)))):
            _assert_same_as_reference(sys, comp)


def test_table_matches_per_equation_classifier_with_inexact_rates():
    rng = np.random.default_rng(17)
    for name in ("square", "six_complex"):
        net = load(name).network
        sys = MassActionSystem(net, tuple(float(k) for k in np.exp(rng.uniform(-2, 2, net.r))))
        seeds = list(itertools.product(range(3), repeat=net.n))[::2]
        for comp in _components(sys, seeds, Box.cube(net.n, 8)):
            _assert_same_as_reference(sys, comp)


def test_flux_sums_keep_reaction_order():
    # the network orders the reactions out of 0 as 0 -> C, 0 -> B, 0 -> A;
    # their rates sum to 0.6 in that order and to 0.6000000000000001 in reverse
    sys = parse_network("0 <-> A : 0.1, 1\n0 <-> B : 0.2, 1\n0 <-> C : 0.3, 1")
    mu = Measure({(0, 0, 0): 1.0})
    domain = Box.cube(3, 3).expand((3,) * 3, (0,) * 3)
    report = stoch.classify_measure(sys, mu, domain, truncation_faces=frozenset())
    witness = report.cb.witness
    assert (witness.state, witness.condition) == ((0, 0, 0), "cb:0")
    assert witness.lhs == 0.3 + 0.2 + 0.1 != 0.1 + 0.2 + 0.3
    assert _bits(report) == _bits(
        reference_classify.classify(sys, mu, domain, 1e-9, frozenset()))


@pytest.mark.parametrize("below_top", [0, 2, 4, 7])
def test_classification_near_the_int64_top_matches_the_python_int_reference(below_top):
    # x + 1 past 2**63 - 1 wrapped in the old frame, and T and T - 2 read
    # ``stationary: holds`` with nothing skipped; the states are now held
    # relative to the support, as the per-state reference holds them exactly
    sys = load("birth_death")
    top = 2**63 - 1 - below_top
    mu = Measure({(top - i,): 1.0 for i in range(5)})
    domain = Box((top - 10,), (top,))
    for faces in (None, frozenset(), frozenset({(0, +1)})):
        new = stoch.classify_measure(sys, mu, domain, truncation_faces=faces)
        assert _bits(new) == _bits(ref.classify_measure(sys, mu, domain, truncation_faces=faces))
    report = stoch.classify_measure(sys, mu, domain)
    assert report.stationary.fails and report.boundary_skipped == 33


@pytest.mark.parametrize("above_bottom", [0, 1, 5])
def test_classification_near_the_int64_bottom_matches_the_python_int_reference(above_bottom):
    sys = load("birth_death")
    bottom = -(2**63) + above_bottom
    mu = Measure({(bottom + i,): 1.0 for i in range(5)})
    domain = Box((bottom,), (bottom + 10,))
    for faces in (None, frozenset()):
        new = stoch.classify_measure(sys, mu, domain, truncation_faces=faces)
        assert _bits(new) == _bits(ref.classify_measure(sys, mu, domain, truncation_faces=faces))


def test_empty_network_and_empty_support():
    empty = parse_network("")
    for mu in (Measure({(): 1.0}), Measure({})):
        report = stoch.classify_measure(empty, mu, Box((), ()))
        assert report == ref.classify_measure(empty, mu, Box((), ()))
        assert all(getattr(report, name).holds for name in CONDITIONS)
    sys = load("six_complex")
    top = 2**63 - 1
    for domain in (Box.cube(3, 5), Box((top - 3,) * 3, (top,) * 3)):
        report = stoch.classify_measure(sys, Measure({}), domain)
        assert report == ref.classify_measure(sys, Measure({}), domain)
        assert report.boundary_skipped == 0
    # a support no int64 frame can hold is refused
    wide = Measure({(-(2**62),): 1.0, (2**62,): 1.0})
    with pytest.raises(ValueError, match="2\\*\\*63 or more points"):
        stoch.classify_measure(load("birth_death"), wide, Box((-(2**62),), (2**62,)))


def test_classification_memory_per_state_is_bounded():
    # the traced peak of classifying the stationary distribution of the
    # 3,721-state x_C = 2 slice of six_complex, per state; 1,107 bytes for
    # the per-equation classifier and about 832 for the table, measured with
    # numpy 2.4.6 on Python 3.11
    sys = load("six_complex")
    comp = stoch.communicating_class(sys, (0, 0, 2), Box.cube(3, 60))
    mu = stoch.stationary_distribution(sys, comp, allow_truncated=True)
    assert len(comp.points) == 3721
    stoch.classify_component_measure(sys, comp, mu)  # fills the network's caches
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        stoch.classify_component_measure(sys, comp, mu)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak / 3721 <= 1220


def test_measure_weights_are_checked_as_numbers():
    for bad in (float("nan"), float("inf"), float("-inf"), -1.0, -1, 10**400):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            Measure({(0,): bad})
    # an int weight a float holds is accepted, and classifies as its float
    sys = load("birth_death")
    for big in (10**19, 10**20):
        exact = Measure({(i,): big * (i + 1) for i in range(6)})
        rounded = Measure({(i,): float(big * (i + 1)) for i in range(6)})
        assert exact.total() == rounded.total()
        domain = Box((0,), (20,))
        assert _bits(stoch.classify_measure(sys, exact, domain)) == _bits(
            stoch.classify_measure(sys, rounded, domain))
