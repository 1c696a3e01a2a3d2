import numpy as np
import pytest
from fractions import Fraction

import crn
from crn import (
    Complex,
    Reaction,
    SpeciesTable,
    build_network,
    empty_network,
    reaction_vector,
    stoichiometric_basis,
)
from crn.errors import (
    DuplicateReactionError,
    OrphanComplexError,
    SelfLoopError,
    UnknownReactionError,
    UnusedSpeciesError,
)

from helpers import load, random_conservative_reversible_system


def intro_network():
    species = SpeciesTable(("A", "B", "C"))
    complexes = [
        Complex((1, 1, 0)),  # A+B
        Complex((0, 0, 2)),  # 2C
        Complex((1, 0, 0)),  # A
        Complex((0, 1, 0)),  # B
    ]
    reactions = [
        Reaction(0, 1),
        Reaction(1, 0),
        Reaction(2, 3),
        Reaction(3, 2),
    ]
    return build_network(species, complexes, reactions)


def test_species_table_validation():
    with pytest.raises(ValueError):
        SpeciesTable(("A", "A"))
    with pytest.raises(ValueError):
        SpeciesTable(("0",))
    with pytest.raises(ValueError):
        SpeciesTable(("1up",))
    assert len(SpeciesTable(("A", "b_2"))) == 2


def test_build_intro_network_counts():
    net = intro_network()
    assert (net.n, net.m, net.r) == (3, 4, 4)
    # canonical order: lexicographic on coefficient vectors
    assert [c.coeffs for c in net.complexes] == [
        (0, 0, 2),
        (0, 1, 0),
        (1, 0, 0),
        (1, 1, 0),
    ]


def test_build_empty_network():
    net = build_network(SpeciesTable(()), [], [])
    assert net.is_empty
    assert net == empty_network()


def test_self_loop_rejected():
    species = SpeciesTable(("A",))
    with pytest.raises(SelfLoopError):
        build_network(species, [Complex((1,))], [Reaction(0, 0)])
    # duplicate complex entries collapsing to a self loop
    with pytest.raises(SelfLoopError):
        build_network(species, [Complex((1,)), Complex((1,))], [Reaction(0, 1)])


def test_duplicate_reaction_rejected():
    species = SpeciesTable(("A", "B"))
    cxs = [Complex((1, 0)), Complex((0, 1))]
    with pytest.raises(DuplicateReactionError):
        build_network(species, cxs, [Reaction(0, 1), Reaction(0, 1)])


def test_unused_species_and_orphan_complex():
    species = SpeciesTable(("A", "B"))
    with pytest.raises(UnusedSpeciesError):
        build_network(
            species, [Complex((1, 0)), Complex((2, 0))], [Reaction(0, 1)]
        )
    with pytest.raises(OrphanComplexError):
        build_network(
            SpeciesTable(("A", "B")),
            [Complex((1, 0)), Complex((0, 1)), Complex((1, 1))],
            [Reaction(0, 1)],
        )


def test_build_is_idempotent_and_order_insensitive():
    net = intro_network()
    rebuilt = build_network(net.species, net.complexes, net.reactions)
    assert rebuilt == net
    # permuted complex input ordering yields the identical value
    species = SpeciesTable(("A", "B", "C"))
    complexes = [
        Complex((0, 1, 0)),
        Complex((1, 0, 0)),
        Complex((0, 0, 2)),
        Complex((1, 1, 0)),
    ]
    reactions = [Reaction(3, 2), Reaction(2, 3), Reaction(1, 0), Reaction(0, 1)]
    assert build_network(species, complexes, reactions) == net


def test_reaction_vectors():
    net = intro_network()
    # A+B -> 2C
    iAB = net.complexes.index(Complex((1, 1, 0)))
    i2C = net.complexes.index(Complex((0, 0, 2)))
    vec = reaction_vector(net, Reaction(iAB, i2C))
    assert vec.tolist() == [-1, -1, 2]
    iA = net.complexes.index(Complex((1, 0, 0)))
    iB = net.complexes.index(Complex((0, 1, 0)))
    assert reaction_vector(net, Reaction(iA, iB)).tolist() == [-1, 1, 0]
    with pytest.raises(UnknownReactionError):
        reaction_vector(net, Reaction(iAB, iA))


def test_reaction_vector_is_a_copy():
    net = intro_network()
    table = net.reaction_vectors.copy()
    for k, rxn in enumerate(net.reactions):
        vec = reaction_vector(net, rxn)
        assert vec.dtype == np.int64 and vec.tolist() == table[k].tolist()
        vec[:] = 99
    assert np.array_equal(net.reaction_vectors, table)


def test_reaction_vector_one_species_growth():
    net = build_network(
        SpeciesTable(("A",)),
        [Complex((2,)), Complex((3,))],
        [Reaction(0, 1), Reaction(1, 0)],
    )
    assert reaction_vector(net, Reaction(0, 1)).tolist() == [1]


def test_stoichiometric_basis_intro():
    net = intro_network()
    basis, conserved = stoichiometric_basis(net)
    assert len(basis) == 2
    assert conserved == [(Fraction(1), Fraction(1), Fraction(1))]


def test_stoichiometric_basis_square():
    sq = load("square").network
    basis, conserved = stoichiometric_basis(sq)
    assert len(basis) == 1
    assert conserved == [(Fraction(1), Fraction(1))]


def test_stoichiometric_basis_empty():
    basis, conserved = stoichiometric_basis(empty_network())
    assert basis == [] and conserved == []


def test_basis_spans_and_conserved_orthogonal():
    rng = np.random.default_rng(7)
    for _ in range(25):
        sys = random_conservative_reversible_system(rng)
        net = sys.network
        basis, conserved = stoichiometric_basis(net)
        assert len(basis) + len(conserved) == net.n
        B = np.array([b for b in basis], dtype=float).reshape(len(basis), net.n)
        for vec in net.reaction_vectors:
            if len(basis):
                x, residual, *_ = np.linalg.lstsq(B.T, vec.astype(float), rcond=None)
                err = np.max(np.abs(B.T @ x - vec))
            else:
                err = np.max(np.abs(vec)) if net.r else 0.0
            assert err < 1e-9
            for w in conserved:
                dot = float(sum(float(a) * b for a, b in zip(w, vec)))
                assert abs(dot) < 1e-12


def test_measure_validation():
    with pytest.raises(ValueError):
        crn.Measure({(0,): -1.0})
    with pytest.raises(ValueError):
        crn.Measure({(0,): 0.7}, normalized=True)
    m = crn.Measure({(0,): 0.5, (1,): 0.25, (2,): 0.0})
    assert m.support() == [(0,), (1,)]


def test_verdict_witness_invariant():
    with pytest.raises(ValueError):
        crn.Verdict(crn.Status.FAILS)
    v = crn.Verdict.fail((1, 2), "rb:test", 1.0, 2.0)
    assert v.fails and v.witness.condition == "rb:test"
