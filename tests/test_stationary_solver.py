"""The stationary solver against exact rational laws, and its invariance
under the component size and the order in which a component lists its
states.

The exact laws are computed with ``fractions.Fraction`` from the rate
constants, independently of the library's propensity kernel: the product
formula for 1-D birth-death chains, and Gaussian elimination on the global
balance equations for a 2-D slice.  Every exact value that is a normal
float must be matched to a relative error of 1e-12.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import crn
from crn import Box, stoch
from crn.errors import SolveFailureError

NORMAL = 2.0**-1022  # smallest positive normal float
REL = 1e-12


def _exact_rate(sys, k, x) -> Fraction:
    """Propensity of reaction ``k`` at ``x`` from the definition."""
    y = sys.network.source_matrix[k]
    prod = math.prod(math.perm(int(xi), int(yi)) for xi, yi in zip(x, y))
    return Fraction(sys.kappa[k]) * prod


def birth_death_law(sys, upper: int) -> tuple[list[float], int]:
    """Exact stationary law of the 1-D chain reflected on ``0..upper``.

    Returns the law, correctly rounded to floats, at ``0..last``, where past
    ``last`` every weight ratio is below 1 and the law has fallen below the
    normal range, so every later state has an exact weight below ``NORMAL``.
    With ``r_y = birth(y) / death(y + 1) = p_y / q_y`` in lowest terms,
    ``pi(x) = p_0 ... p_{x-1} * q_x ... q_{upper-1} / A`` where ``A`` is the
    sum of the numerators, accumulated from the top state down.
    """
    net = sys.network
    steps = [int(v) for v in net.reaction_vectors[:, 0]]
    assert set(steps) <= {-1, 1}

    def rate(x, step):
        return sum(
            (_exact_rate(sys, k, (x,)) for k in range(net.r) if steps[k] == step), Fraction(0)
        )

    ratios = [rate(y, 1) / rate(y + 1, -1) for y in range(upper)]
    p = [r.numerator for r in ratios]
    q = [r.denominator for r in ratios]
    # A / C = 1 + r_y + r_y r_{y+1} + ... with C = q_y ... q_{upper-1}
    big_a, big_c = 1, 1
    for y in range(upper - 1, -1, -1):
        big_c *= q[y]
        big_a = big_c + p[y] * big_a
    # decreasing[x]: every ratio from x on is below 1
    decreasing = [True] * (upper + 1)
    for y in range(upper - 1, -1, -1):
        decreasing[y] = decreasing[y + 1] and p[y] < q[y]
    law = []
    head, tail = 1, big_c
    for x in range(upper + 1):
        law.append(head * tail / big_a)  # correctly rounded
        if decreasing[x] and law[-1] < NORMAL:
            break
        if x < upper:
            head *= p[x]
            tail //= q[x]
    return law, len(law) - 1


def _assert_matches_exact(dist, states, exact):
    """Relative error within REL where ``exact`` is normal, and nothing
    above the normal range where it is not."""
    for x, value in zip(states, exact):
        if value >= NORMAL:
            assert abs(dist(x) - value) <= REL * value, (x, dist(x), value)
        else:
            assert dist(x) < NORMAL * (1 + REL), (x, dist(x), value)


@pytest.mark.parametrize(
    "name, upper",
    [("birth_death", 800), ("birth_death", 2000), ("birth_death", 20000),
     ("rvb_three_roots", 2000)],
)
def test_one_dimensional_chain_matches_exact_product_formula(name, upper):
    sys = crn.corpus.load(name)
    comp = stoch.communicating_class(sys, (0,), Box.cube(1, upper))
    assert comp.states == tuple((x,) for x in range(upper + 1))
    dist = stoch.stationary_distribution(sys, comp, allow_truncated=True)
    exact, last = birth_death_law(sys, upper)
    assert last < upper  # the tail falls below the normal range
    _assert_matches_exact(dist, comp.states, exact)
    # past ``last`` the exact law is below NORMAL, and so is the computed one
    assert max(w for x, w in dist.weights.items() if x[0] > last) < NORMAL * (1 + REL)


def _exact_stationary(sys, states) -> list[Fraction]:
    """Gaussian elimination on the global balance equations of the chain
    restricted to ``states``, with one equation replaced by sum = 1."""
    index = {x: i for i, x in enumerate(states)}
    size = len(states)
    rows = [[Fraction(0)] * (size + 1) for _ in range(size)]
    for x, i in index.items():
        for k in range(sys.network.r):
            target = tuple(int(a + d) for a, d in zip(x, sys.network.reaction_vectors[k]))
            rate = _exact_rate(sys, k, x)
            if rate and target in index:
                rows[index[target]][i] += rate  # inflow into target
                rows[i][i] -= rate
    rows[-1] = [Fraction(1)] * (size + 1)
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][size] / rows[i][i] for i in range(size)]


@pytest.mark.parametrize("seed", [(0, 0, 1), (1, 1, 2)])
def test_two_dimensional_slice_matches_exact_rational_solve(seed):
    # six_complex with the catalyst C fixed: an open 2-D class in A and B,
    # truncated by the box
    sys = crn.corpus.load("six_complex")
    comp = stoch.communicating_class(sys, seed, Box.cube(3, 5))
    assert len(comp.states) == 36 and comp.truncated
    dist = stoch.stationary_distribution(sys, comp, allow_truncated=True)
    exact = [float(v) for v in _exact_stationary(sys, comp.states)]
    assert all(v >= NORMAL for v in exact)
    _assert_matches_exact(dist, comp.states, exact)


def _statuses(report):
    return tuple(getattr(report, name).status for name in ("rb", "cb", "rvb", "cyb", "stationary"))


def test_birth_death_support_and_verdicts_do_not_depend_on_the_box():
    sys = crn.corpus.load("birth_death")
    results = []
    for upper in (799, 800, 2000, 20000):
        comp = stoch.communicating_class(sys, (0,), Box.cube(1, upper))
        dist = stoch.stationary_distribution(sys, comp, allow_truncated=True)
        report = stoch.classify_component_measure(sys, comp, dist)
        results.append((upper, dist, _statuses(report)))
    _, first, statuses = results[0]
    assert len(first.support()) == 147
    for upper, dist, other in results[1:]:
        assert dist.support() == first.support(), upper
        assert other == statuses, upper
        np.testing.assert_allclose(
            [dist(x) for x in first.support()], [first(x) for x in first.support()],
            rtol=REL, atol=0,
        )


@pytest.mark.parametrize(
    "name, seed, upper",
    [("birth_death", (0,), 799), ("birth_death", (0,), 800), ("rvb_three_roots", (0,), 60),
     ("six_complex", (1, 1, 2), 12), ("square", (3, 0), 12)],
)
def test_state_order_does_not_change_the_distribution(name, seed, upper):
    sys = crn.corpus.load(name)
    comp = stoch.communicating_class(sys, seed, Box.cube(sys.network.n, upper))
    assert len(comp.states) > 1
    sorted_dist = stoch.stationary_distribution(sys, comp, allow_truncated=True)
    shuffled = [comp.states[i] for i in np.random.default_rng(0).permutation(len(comp.states))]
    for states in (comp.states[::-1], tuple(shuffled)):
        dist = stoch.stationary_distribution(
            sys, dataclasses.replace(comp, states=states), allow_truncated=True
        )
        assert dist == sorted_dist
        assert list(dist.weights) == list(sorted_dist.weights)


@pytest.mark.parametrize("size", [400, 1000])
def test_component_without_moves_is_not_irreducible(size):
    # birth_death moves by +-1, so no move joins two even counts
    sys = crn.corpus.load("birth_death")
    states = tuple((2 * i,) for i in range(size))
    comp = stoch.ComponentResult(
        states=states, closed=True, truncated=False, seed=states[0],
        box=Box.cube(1, 2 * size), exit_faces=frozenset(), internal_leak=False,
    )
    with pytest.raises(SolveFailureError, match="not irreducible"):
        stoch.stationary_distribution(sys, comp)
