"""The stationary solver against exact rational laws, and its invariance
under the component size and the order in which a component lists its
states.

The exact laws are computed with ``fractions.Fraction`` from the rate
constants, independently of the library's propensity kernel: the product
formula for 1-D birth-death chains, and Gaussian elimination on the global
balance equations for a 2-D slice.  Every exact value that is a normal
float must be matched to a relative error of 1e-12.

Components whose kept moves all reach a neighbouring state are solved in
one vector pass where that matches the banded GTH loop; their weights must
equal the loop's on the same band bit for bit.  The band itself, scattered
one reaction at a time, must equal bit for bit the one that
``reference_stoch.grouped_band`` assembles one reaction-vector group at a
time.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import crn
from crn import Box, stoch
from crn.errors import SolveFailureError

import reference_stoch as ref
from helpers import CORPUS, load, outcome, relisted

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
    sys = load(name)
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
    sys = load("six_complex")
    comp = stoch.communicating_class(sys, seed, Box.cube(3, 5))
    assert len(comp.states) == 36 and comp.truncated
    dist = stoch.stationary_distribution(sys, comp, allow_truncated=True)
    exact = [float(v) for v in _exact_stationary(sys, comp.states)]
    assert all(v >= NORMAL for v in exact)
    _assert_matches_exact(dist, comp.states, exact)


def _statuses(report):
    return tuple(getattr(report, name).status for name in ("rb", "cb", "rvb", "cyb", "stationary"))


def test_birth_death_support_and_verdicts_do_not_depend_on_the_box():
    sys = load("birth_death")
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
    sys = load(name)
    comp = stoch.communicating_class(sys, seed, Box.cube(sys.network.n, upper))
    assert len(comp.states) > 1
    sorted_dist = stoch.stationary_distribution(sys, comp, allow_truncated=True)
    shuffled = [comp.states[i] for i in np.random.default_rng(0).permutation(len(comp.states))]
    for states in (comp.states[::-1], tuple(shuffled)):
        listed = relisted(sys, comp, states)
        assert listed == comp
        dist = stoch.stationary_distribution(sys, listed, allow_truncated=True)
        assert dist == sorted_dist
        assert list(dist.weights) == list(sorted_dist.weights)


@pytest.mark.parametrize("size", [400, 1000])
def test_component_without_moves_is_not_irreducible(size):
    # birth_death moves by +-1, so no move joins two even counts
    sys = load("birth_death")
    states = tuple((2 * i,) for i in range(size))
    comp = stoch.ComponentResult.from_states(
        sys, states, closed=True, truncated=False, seed=states[0],
        box=Box.cube(1, 2 * size), exit_faces=frozenset(), internal_leak=False,
    )
    with pytest.raises(SolveFailureError, match="not irreducible"):
        stoch.stationary_distribution(sys, comp)


def _one_pass_and_loop(sys, comp, monkeypatch):
    """The weights as solved, the weights with the one-pass solve switched
    off so that the banded loop solves the same band, and whether the
    one-pass solve gave the first."""
    taken = []
    one_pass = stoch._chain_weights

    def spy(R, size):
        pi = one_pass(R, size)
        taken.append(pi is not None)
        return pi

    with monkeypatch.context() as patch:
        patch.setattr(stoch, "_chain_weights", spy)
        dist = stoch.stationary_distribution(sys, comp, allow_truncated=True)
    with monkeypatch.context() as patch:
        patch.setattr(stoch, "_chain_weights", lambda R, size: None)
        loop = stoch.stationary_distribution(sys, comp, allow_truncated=True)
    return list(dist.weights.items()), list(loop.weights.items()), taken == [True]


@pytest.mark.parametrize("upper", [1, 2, 20, 799, 800, 20000])
@pytest.mark.parametrize("name", ["birth_death", "rvb_three_roots"])
def test_one_dimensional_chain_matches_the_banded_loop_bit_for_bit(name, upper, monkeypatch):
    sys = load(name)
    comp = stoch.communicating_class(sys, (0,), Box.cube(1, upper))
    weights, loop, taken = _one_pass_and_loop(sys, comp, monkeypatch)
    assert taken and weights == loop


def test_line_component_matches_the_banded_loop_bit_for_bit(monkeypatch):
    # the class of (5, 5) is the line a + b = 10; in lexicographic order each
    # move reaches a neighbouring state
    sys = crn.parse_network("A <-> B : 2, 3")
    comp = stoch.communicating_class(sys, (5, 5), Box.cube(2, 12))
    assert len(comp.states) == 11 and comp.closed
    weights, loop, taken = _one_pass_and_loop(sys, comp, monkeypatch)
    assert taken and weights == loop


@pytest.mark.parametrize(
    "text, upper",
    # weights pass 1e250, where the loop rescales them: far past it on the
    # first chain, by at most 1e10 on the second
    [("0 <-> A : 1000, 1", 3000), ("0 <-> A : 600, 1", 2000)],
    ids=["1000-3000", "600-2000"],
)
def test_chain_that_rescales_runs_the_banded_loop(text, upper, monkeypatch):
    sys = crn.parse_network(text)
    comp = stoch.communicating_class(sys, (0,), Box.cube(1, upper))
    weights, loop, taken = _one_pass_and_loop(sys, comp, monkeypatch)
    assert not taken and weights == loop


def test_random_chains_match_the_banded_loop_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(0)
    kinds = set()
    for _ in range(20):
        k = [f"{v:.17g}" for v in 10.0 ** rng.uniform(-30, 30, size=4)]
        sys = crn.parse_network(f"0 <-> A : {k[0]}, {k[1]}\nA <-> 2A : {k[2]}, {k[3]}")
        comp = stoch.communicating_class(sys, (0,), Box.cube(1, int(rng.integers(2, 500))))
        weights, loop, taken = _one_pass_and_loop(sys, comp, monkeypatch)
        assert weights == loop
        kinds.add(taken)
    assert kinds == {True, False}


def test_chain_without_a_backward_rate_names_the_state():
    # 2A -> A needs two molecules, so state 1 has no move back to state 0
    sys = crn.parse_network("0 -> A : 1\n2A -> A : 1")
    states = tuple((x,) for x in range(50))
    comp = stoch.ComponentResult.from_states(
        sys, states, closed=True, truncated=False, seed=states[0],
        box=Box.cube(1, 49), exit_faces=frozenset(), internal_leak=False,
    )
    with pytest.raises(SolveFailureError, match=r"not irreducible: no route from state \(1,\)"):
        stoch.stationary_distribution(sys, comp)


@pytest.mark.parametrize(
    "text, upper",
    [
        # bandwidth 1: the weights overflow
        ("0 <-> A : 1e200, 1e-100\nA <-> 2A : 1e50, 1", 400),
        # bandwidth 2: the elimination and back-substitution overflow, and
        # inf times 0 gives nan
        ("0 <-> A : 1e200, 1e-100\nA <-> 2A : 1e50, 1\n0 <-> 2A : 1, 1", 400),
        ("0 <-> A : 1e300, 1e-300\nA <-> 2A : 1e150, 1e-300\n0 <-> 2A : 1e-200, 1e150", 60),
        ("0 <-> A : 1e-200, 1e-300\nA <-> 2A : 1e150, 1e-300\n0 <-> 2A : 1e200, 1e-200", 60),
    ],
    ids=["band1", "band2", "band2-nan-in-matmul", "band2-nan-in-divide"],
)
def test_overflowing_solve_raises_without_a_warning(text, upper):
    # the suite turns warnings into errors, so a numpy warning would escape
    # in place of the error
    sys = crn.parse_network(text)
    comp = stoch.communicating_class(sys, (0,), Box.cube(1, upper))
    with pytest.raises(SolveFailureError, match="state-reduction solve overflowed"):
        stoch.stationary_distribution(sys, comp, allow_truncated=True)


def _bands(sys, comp, monkeypatch):
    """The bands that ``stationary_distribution`` hands to its elimination
    loop, with their bandwidths; none when it stops before the solve."""
    bands = []
    banded = stoch._banded_weights

    def spy(R, size, lower, upper, points):
        bands.append((R.tobytes(), lower, upper))
        return banded(R, size, lower, upper, points)

    with monkeypatch.context() as patch:
        patch.setattr(stoch, "_chain_weights", lambda R, size: None)
        patch.setattr(stoch, "_banded_weights", spy)
        outcome(stoch.stationary_distribution, sys, comp, allow_truncated=True)
    return bands


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_band_equals_the_grouped_assembly_bit_for_bit(name, monkeypatch):
    # with rate constants whose sums round, summing a band entry's reactions
    # in any other order than the grouped sum's would show
    base = load(name)
    n, r = base.network.n, base.network.r
    rng = np.random.default_rng(sorted(CORPUS).index(name))
    inexact = crn.MassActionSystem(
        base.network, tuple(float(k) for k in np.exp(rng.uniform(-2.0, 2.0, r)))
    )
    solved = 0
    for sys, upper in itertools.product((base, inexact), (4, 8)):
        for seed in itertools.product(range(3), repeat=n):
            comp, _ = outcome(stoch.communicating_class, sys, seed, Box.cube(n, upper))
            for band in [] if comp is None else _bands(sys, comp, monkeypatch):
                R, lower, upper_ = ref.grouped_band(sys, comp)
                assert band == (R.tobytes(), lower, upper_)
                solved += 1
    assert solved >= 3**n
