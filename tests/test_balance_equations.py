"""The balance equations against their hand-written reference, and across regimes.

``classify_state`` must give exactly the report of the loop-per-condition
reference in ``reference_detbal``: statuses, witness labels and witness
floats bit for bit.

For a product-form measure the stochastic rb, cb and cyb equations at ``x``
are the deterministic ones at ``c`` times ``pi(x - y)`` (Anderson, Craciun &
Kurtz 2010), so ``classify_measure`` of a Poisson product and
``classify_state`` at its ``c`` must agree on the status and on the first
failing equation, at random ``c`` and at the balanced states.  rvb does not
transfer this way and is left out.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import crn
from crn import Box, classify_measure, classify_state, poisson_product
from crn.errors import BalanceConsistencyError

import reference_detbal as ref
from helpers import CORPUS, load, random_positive_state, random_weakly_reversible_deficiency_zero


def _report_or_error(classify, sys, c):
    try:
        return classify(sys, c)
    except BalanceConsistencyError as exc:
        return type(exc)


def _balanced_states(sys):
    """The reaction and complex balanced states the solvers find."""
    found = []
    for solve in (crn.solve_reaction_balanced, crn.solve_complex_balanced):
        try:
            c = solve(sys)
        except (crn.errors.NotReversibleError, crn.errors.NotWeaklyReversibleError):
            continue
        if c is not None:
            found.append(c)
    return found


def _states(rng, sys):
    """Random positive states, states with zero coordinates, one state with
    a negative coordinate, and the balanced states."""
    n = sys.network.n
    states = [random_positive_state(rng, n) for _ in range(6)]
    states += [random_positive_state(rng, n, 1e-3, 1e3) for _ in range(3)]
    for _ in range(4):
        c = random_positive_state(rng, n)
        c[rng.random(n) < 0.5] = 0.0
        states.append(c)
    states.append(np.zeros(n))
    c = random_positive_state(rng, n)
    c[rng.integers(n)] = -0.5
    states.append(c)
    return states + _balanced_states(sys)


def _assert_matches_reference(sys, states):
    for c in states:
        assert _report_or_error(classify_state, sys, c) == _report_or_error(
            ref.classify_state, sys, c
        ), (sys, c)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_classify_state_matches_reference_on_corpus(name):
    sys = load(name)
    rng = np.random.default_rng(sorted(CORPUS).index(name))
    _assert_matches_reference(sys, _states(rng, sys))


def test_classify_state_matches_reference_on_random_deficiency_zero_systems():
    rng = np.random.default_rng(61)
    for _ in range(20):
        sys = random_weakly_reversible_deficiency_zero(rng)
        _assert_matches_reference(sys, _states(rng, sys))


def _box_states(n, upper):
    return list(itertools.product(range(upper + 1), repeat=n))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_poisson_product_measure_reads_the_equations_of_its_state(name):
    sys = load(name)
    n = sys.network.n
    upper = 14 if n < 3 else 9
    box = Box.cube(n, upper)
    faces = frozenset((i, +1) for i in range(n))
    states = _box_states(n, upper)
    rng = np.random.default_rng([7, sorted(CORPUS).index(name)])
    randoms = [random_positive_state(rng, n, 0.5, 2.5) for _ in range(4)]
    for c in randoms + _balanced_states(sys):
        det = classify_state(sys, c)
        stoch = classify_measure(sys, poisson_product(c, states), box, truncation_faces=faces)
        for cond in ("rb", "cb", "cyb"):
            d, s = getattr(det, cond), getattr(stoch, cond)
            assert s.status == d.status, (name, c, cond)
            if d.fails:
                assert s.witness.condition == d.witness.condition, (name, c, cond)
