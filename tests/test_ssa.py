import itertools
import math

import numpy as np
import pytest

import crn
from crn import Box, Measure, SsaConfig, occupancy_measure, parse_network, ssa_path, tv_distance
from crn.errors import NonFiniteStateError, NotNormalizedError, PathExplosionError
from crn.kinetics import propensities
from crn.model import MassActionSystem
from crn.ssa import DEFAULT_JUMP_CAP

import reference_stoch as ref
from helpers import CORPUS, load


def test_absorbing_initial_state():
    sys = load("absolute_concentration")
    path = ssa_path(sys, (2, 0), SsaConfig(seed=1, t_end=10.0))
    assert path == [(0.0, (2, 0))]
    occ = occupancy_measure(sys, (2, 0), SsaConfig(seed=1, t_end=10.0))
    assert occ.weights == {(2, 0): 1.0}


def test_start_off_the_orthant_is_absorbing():
    # every propensity vanishes off the orthant, 0 -> A included, as in
    # test_communicating_class_negative_singleton
    sys = load("birth_death")
    cfg = SsaConfig(seed=0, t_end=10.0)
    assert ssa_path(sys, (-1,), cfg) == [(0.0, (-1,))]
    assert occupancy_measure(sys, (-1,), cfg).weights == {(-1,): 1.0}


def test_memo_restart_keeps_the_path(monkeypatch):
    # a path that outgrows the rate memo starts it again; rows are recomputed
    # bit for bit, so the path does not change
    sys = load("six_complex")
    cfg = SsaConfig(seed=3, t_end=5.0)
    path = ssa_path(sys, (30, 20, 10), cfg)
    monkeypatch.setattr(crn.ssa, "_MEMO_ROWS", 8)
    assert ssa_path(sys, (30, 20, 10), cfg) == path
    assert len({x for _, x in path}) > 8


def test_path_reproducible():
    sys = parse_network("0 <-> A : 1, 1")
    cfg = SsaConfig(seed=7, t_end=25.0)
    p1 = ssa_path(sys, (0,), cfg)
    p2 = ssa_path(sys, (0,), cfg)
    assert p1 == p2
    assert len(p1) > 10
    p3 = ssa_path(sys, (0,), SsaConfig(seed=8, t_end=25.0))
    assert p3 != p1


def test_holding_time_is_exponential():
    # one jump to an absorbing state: the first event time is the full
    # holding time, distributed Exp(1) for rate constant 0.5 at x=2
    sys = parse_network("2A -> A : 0.5")
    times = []
    base = SsaConfig(seed=1234, t_end=1e9)
    for i in range(100_000):
        path = ssa_path(sys, (2,), base.replica(i))
        times.append(path[1][0])
    mean = float(np.mean(times))
    assert abs(mean - 1.0) < 0.02


def test_holding_time_birth_death_small_sample():
    sys = parse_network("0 <-> A : 1, 1")
    times = []
    base = SsaConfig(seed=99, t_end=50.0)
    for i in range(300):
        path = ssa_path(sys, (0,), base.replica(i))
        times.append(path[1][0])
    assert abs(float(np.mean(times)) - 1.0) < 0.2


def test_config_needs_a_finite_positive_horizon():
    for t_end in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            SsaConfig(seed=0, t_end=t_end)
    with pytest.raises(ValueError, match="finite"):
        SsaConfig(seed=0, t_end=math.inf, burn_in=1.0)


def test_path_explosion_guard():
    sys = parse_network("0 <-> A : 1, 1")
    with pytest.raises(PathExplosionError):
        ssa_path(sys, (0,), SsaConfig(seed=3, t_end=1e4), jump_cap=50)


def test_occupancy_matches_poisson_short_run():
    sys = parse_network("0 <-> A : 1, 1")
    occ = occupancy_measure(sys, (0,), SsaConfig(seed=5, t_end=2e4))
    ref = {}
    for x in range(40):
        ref[(x,)] = math.exp(-1.0) / math.factorial(x)
    z = sum(ref.values())
    pois = Measure({x: w / z for x, w in ref.items()}, normalized=True)
    assert tv_distance(occ, pois) < 0.05
    # occupancy is bit-reproducible, like the path it derives from
    assert occ == occupancy_measure(sys, (0,), SsaConfig(seed=5, t_end=2e4))


def test_occupancy_stoch_rvb_long_run():
    sys = load("stoch_rvb_only")
    occ = occupancy_measure(sys, (0,), SsaConfig(seed=17, t_end=1e5))
    ref = {}
    w = 1.0
    for x in range(40):
        ref[(x,)] = w
        w /= 2 * x + 1
    z = sum(ref.values())
    target = Measure({x: v / z for x, v in ref.items()}, normalized=True)
    assert tv_distance(occ, target) < 0.03


def test_occupancy_support_within_reach():
    sys = load("square")
    occ = occupancy_measure(sys, (3, 0), SsaConfig(seed=11, t_end=200.0))
    comp = crn.communicating_class(sys, (3, 0), Box.cube(2, 10))
    assert set(occ.support()) <= set(comp.states)


def test_tv_distance_examples():
    a = Measure({(0,): 0.25, (1,): 0.5, (2,): 0.25}, normalized=True)
    b = Measure({(0,): 0.5, (1,): 0.5}, normalized=True)
    assert abs(tv_distance(a, b) - 0.25) < 1e-15
    assert tv_distance(a, a) == 0.0
    c = Measure({(9,): 1.0}, normalized=True)
    assert tv_distance(a, c) == 1.0
    with pytest.raises(NotNormalizedError):
        tv_distance(a, Measure({(0,): 0.3}))


def test_tv_decreases_with_horizon():
    sys = parse_network("0 <-> A : 1, 1")
    ref = {}
    for x in range(50):
        ref[(x,)] = math.exp(-1.0) / math.factorial(x)
    z = sum(ref.values())
    pois = Measure({x: w / z for x, w in ref.items()}, normalized=True)
    for seed in (21, 22):
        tvs = [
            tv_distance(
                occupancy_measure(sys, (0,), SsaConfig(seed=seed, t_end=t)), pois
            )
            for t in (1e3, 1e4, 1e5)
        ]
        assert tvs[2] < tvs[0]
        assert tvs[1] <= tvs[0] + 0.02
        assert tvs[2] <= tvs[1] + 0.02


# -- the fused jump loop against the generator and linear scan it replaced --

SEED_HORIZONS = ((1, 2.0), (2, 7.5), (12345, 20.0))


def outcome(fn, *args, **kwargs):
    """A function's result, or the message of the PathExplosionError it raised."""
    try:
        return fn(*args, **kwargs)
    except PathExplosionError as exc:
        return str(exc)


def assert_same_as_reference(sys, x0, cfg, jump_cap=DEFAULT_JUMP_CAP, memo_rows=2**16):
    path = outcome(ssa_path, sys, x0, cfg, jump_cap)
    assert path == outcome(ref.ssa_path, sys, x0, cfg, jump_cap, memo_rows=memo_rows)
    occ = outcome(occupancy_measure, sys, x0, cfg, jump_cap)
    want = outcome(ref.occupancy_measure, sys, x0, cfg, jump_cap, memo_rows=memo_rows)
    if isinstance(want, str):
        assert occ == want
    else:
        assert list(occ.weights.items()) == list(want.weights.items())
    return path


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_jump_loop_matches_reference_on_corpus(name):
    # semi_open grows without bound; its long paths end at the jump cap,
    # which both loops must reach at the same jump
    sys = load(name)
    jumps = 0
    for x0 in itertools.product(range(4), repeat=sys.network.n):
        for seed, t_end in SEED_HORIZONS:
            path = assert_same_as_reference(sys, x0, SsaConfig(seed, t_end), jump_cap=3000)
            jumps += len(path) - 1 if isinstance(path, list) else 3000
    assert jumps > 0


def test_jump_loop_matches_reference_across_memo_restarts(monkeypatch):
    sys = load("six_complex")
    monkeypatch.setattr(crn.ssa, "_MEMO_ROWS", 8)
    for seed, t_end in SEED_HORIZONS:
        path = assert_same_as_reference(sys, (30, 20, 10), SsaConfig(seed, t_end), memo_rows=8)
        assert len({x for _, x in path}) > 8


def fetched_twice(monkeypatch, sys, x0, cfg):
    """States whose propensities the path fetched again after a memo restart."""
    heads = []
    kernel = crn.ssa.propensities

    def counted(sys, batch):
        heads.append(batch[0])
        return kernel(sys, batch)

    monkeypatch.setattr(crn.ssa, "propensities", counted)
    occupancy_measure(sys, x0, cfg)
    monkeypatch.setattr(crn.ssa, "propensities", kernel)
    return {x for x in heads if heads.count(x) > 1}


@pytest.mark.parametrize("memo_rows", [1, 2, 8])
@pytest.mark.parametrize("text, x0, t_end", [
    ("0 <-> A : 10, 1", (10,), 20.0),
    pytest.param(CORPUS["six_complex"], (3, 2, 1), 10.0, id="six_complex"),
])
def test_memo_restarts_renumber_states_the_path_comes_back_to(monkeypatch, memo_rows, text, x0, t_end):
    # a state is fetched once per memo; fetched again, it was numbered before
    # a restart and its occupancy carries over into the new numbering
    sys = parse_network(text)
    monkeypatch.setattr(crn.ssa, "_MEMO_ROWS", memo_rows)
    for seed in (1, 2, 12345):
        cfg = SsaConfig(seed, t_end)
        assert len(fetched_twice(monkeypatch, sys, x0, cfg)) > 1
        path = assert_same_as_reference(sys, x0, cfg, memo_rows=memo_rows)
        # the jump cap is overrun at the same jump as the reference's
        jumps = len(path) - 1
        assert ssa_path(sys, x0, cfg, jump_cap=jumps) == path
        with pytest.raises(PathExplosionError):
            ssa_path(sys, x0, cfg, jump_cap=jumps - 1)
        assert_same_as_reference(sys, x0, cfg, jump_cap=jumps - 1, memo_rows=memo_rows)


def test_jump_loop_matches_reference_with_zero_rates_between_positive_ones():
    # a reaction of order 2 or 3 has rate zero below its source, so running
    # sums tie; the first sum above u, and the last reaction past them, win
    sys = parse_network("A -> 0 : 1\n2B -> 0 : 1\n3C -> 0 : 1\n0 -> B : 1\n0 -> A : 2\n0 -> C : 3")
    tied = 0
    for x0 in itertools.product(range(3), repeat=3):
        for seed, t_end in SEED_HORIZONS:
            path = assert_same_as_reference(sys, x0, SsaConfig(seed, t_end))
            for row in propensities(sys, [x for _, x in path]).tolist():
                positive = [k for k, a in enumerate(row) if a > 0]
                tied += any(row[k] == 0 for k in range(positive[0], positive[-1]))
    assert tied > 100


class DyadicGenerator:
    """Stands in for numpy's Generator: unit holding times, and uniforms on a
    grid of quarters, so that u = uniform * total lands on running sums."""

    def __init__(self, bit_generator):
        self.draws = itertools.cycle((0.0, 0.25, 0.5, 0.75, 0.125))

    def standard_exponential(self, size):
        return np.ones(size)

    def random(self, size):
        return np.array(list(itertools.islice(self.draws, size)))


def test_exact_ties_pick_the_first_running_sum_above_u(monkeypatch):
    # u equal to a running sum must move past it (and past every zero rate
    # after it), as the scan did; with dyadic rates ties happen every jump
    monkeypatch.setattr(np.random, "Generator", DyadicGenerator)
    sys = parse_network("A -> 0 : 1\n2B -> 0 : 1\n3C -> 0 : 1\n0 -> B : 1\n0 -> A : 2\n0 -> C : 4")
    ties = 0
    for x0 in itertools.product(range(3), repeat=3):
        path = assert_same_as_reference(sys, x0, SsaConfig(0, 10.0))
        for (_, x), u in zip(path, itertools.cycle((0.0, 0.25, 0.5, 0.75, 0.125))):
            row = propensities(sys, [x]).tolist()[0]
            ties += u * sum(row) in itertools.accumulate(row)
    assert ties > 20


def test_jump_loop_matches_reference_across_draw_blocks():
    # a path of more than three blocks of draws, at the library's block size
    sys = parse_network("0 <-> A : 100, 1")
    path = assert_same_as_reference(sys, (100,), SsaConfig(4, 5.0))
    assert len(path) - 1 > 3 * crn.ssa._DRAW_BLOCK


@pytest.mark.parametrize("size", [1, 2, 7])
def test_jump_loop_matches_reference_with_small_draw_blocks(monkeypatch, size):
    # many block boundaries per path; both loops read the patched size
    monkeypatch.setattr(crn.ssa, "_DRAW_BLOCK", size)
    sys = load("six_complex")
    for seed, t_end in SEED_HORIZONS:
        path = assert_same_as_reference(sys, (3, 2, 1), SsaConfig(seed, t_end))
        assert len(path) - 1 > 5 * size


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
def test_draw_layout_is_a_block_of_exponentials_then_a_block_of_uniforms(seed):
    # 64 zero-order reactions 0 -> kA of rate 1: the total is 64 in every
    # state, so each holding time is exactly e / 64 and each jump adds
    # floor(64 u) + 1 molecules; check the first jump of the first two blocks
    size = crn.ssa._DRAW_BLOCK
    sys = parse_network("\n".join(f"0 -> {k}A : 1" for k in range(1, 65)))
    path = ssa_path(sys, (0,), SsaConfig(seed, 1.5 * size / 64))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))
    for first in (0, size):
        exponential, uniform = rng.standard_exponential(size)[0], rng.random(size)[0]
        (t, x), (s, y) = path[first], path[first + 1]
        # exact from t = 0; a later difference carries the rounding of the sum t
        assert math.isclose((s - t) * 64, exponential, rel_tol=1e-9 if first else 0.0)
        assert y[0] - x[0] == int(64 * uniform) + 1


@pytest.mark.parametrize("x0", [(2**40,), (2**52 + 1,), (2**62,), (2**63 - 2,)])
def test_jump_loop_matches_reference_beyond_int64_products(x0):
    # falling factorials of these counts pass 2**63, so the kernel runs on
    # Python ints; 2**63 - 2 has a successor beyond int64 itself
    sys = parse_network("0 <-> A : 1, 1\n2A -> 3A : 1e-3")
    assert propensities(sys, [x0]).max() > 2**63
    for seed, scale in ((1, 0.5), (2, 2.0), (3, 8.0)):
        t_end = scale * 100 / float(x0[0]) ** 2 * 1e3
        path = assert_same_as_reference(sys, x0, SsaConfig(seed, t_end))
        assert len(path) > 20


@pytest.mark.parametrize("k", [-40, -20, 20, 40])
def test_rate_scaling_only_rescales_time(k):
    # rates times 2**k and horizon times 2**-k: every draw scales exactly,
    # so the states repeat and every time is the original times 2**-k
    factor = 2.0**k
    for name in sorted(CORPUS):
        sys = load(name)
        scaled = MassActionSystem(sys.network, tuple(c * factor for c in sys.kappa))
        x0 = (2,) * sys.network.n
        for seed, t_end in SEED_HORIZONS:
            cfg, cfg_scaled = SsaConfig(seed, t_end), SsaConfig(seed, t_end / factor)
            path = ssa_path(sys, x0, cfg)
            assert ssa_path(scaled, x0, cfg_scaled) == [(t / factor, x) for t, x in path]
            occ = occupancy_measure(scaled, x0, cfg_scaled)
            assert list(occ.weights.items()) == list(occupancy_measure(sys, x0, cfg).weights.items())


@pytest.mark.parametrize("text, x0", [
    ("A -> 2A : 1e308", (10,)),
    ("17A -> 0 : 1\n0 -> A : 1", (2**62,)),
])
def test_total_propensity_beyond_float_range_raises(text, x0):
    sys = parse_network(text)
    with pytest.raises(NonFiniteStateError):
        occupancy_measure(sys, x0, SsaConfig(seed=0, t_end=1.0))
    with pytest.raises(NonFiniteStateError):
        ssa_path(sys, x0, SsaConfig(seed=0, t_end=1.0))
