"""``solve_rvb`` runs its Newton starts as one array batch; it must return
exactly what the sequential search in ``reference_detbal`` returns: the
same arrays, bit for bit, in the same order."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from crn import MassActionSystem, parse_network, solve_rvb
from crn.model import ReactionNetwork, SpeciesTable, empty_network

import reference_detbal
from helpers import (
    CORPUS,
    load,
    random_conservative_reversible_system,
    random_weakly_reversible_deficiency_zero,
)

# Newton steps overflow exp(40 u) on the way: 178 of the reference's 861
# exponentials at 32 starts have a non-finite entry.
OVERFLOW = "0 <-> 40A : 1, 1e-30\nA <-> B : 1, 1\n"


def assert_same_as_reference(sys, starts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_rvb(sys, starts)
        want = reference_detbal.solve_rvb(sys, starts)
    assert len(got) == len(want)
    for c, ref in zip(got, want):
        assert np.array_equal(c, ref)


@pytest.mark.parametrize("starts", [0, 1, 7, 32, 64])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_matches_sequential_search(name, starts):
    assert_same_as_reference(load(name), starts)


def test_random_deficiency_zero_systems_match_sequential_search():
    rng = np.random.default_rng(20)
    for _ in range(20):
        assert_same_as_reference(random_weakly_reversible_deficiency_zero(rng), 32)


def test_random_conservative_reversible_systems_match_sequential_search():
    rng = np.random.default_rng(10)
    for _ in range(10):
        assert_same_as_reference(random_conservative_reversible_system(rng), 32)


@pytest.mark.parametrize("starts", [1, 5, 32, 64])
def test_overflowing_newton_steps_match_sequential_search(starts):
    sys = parse_network(OVERFLOW)
    assert_same_as_reference(sys, starts)
    assert len(solve_rvb(sys, starts)) == 1


def test_no_reaction_vector_classes():
    lone = MassActionSystem(ReactionNetwork(SpeciesTable(("A",)), (), ()), ())
    for sys in (lone, MassActionSystem(empty_network(), ())):
        assert_same_as_reference(sys, 32)
        assert solve_rvb(sys) == []
