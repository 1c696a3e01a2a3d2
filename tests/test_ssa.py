import math

import numpy as np
import pytest

import crn
from crn import Box, Measure, SsaConfig, occupancy_measure, parse_network, ssa_path, tv_distance
from crn.errors import NotNormalizedError, PathExplosionError


def test_absorbing_initial_state():
    sys = parse_network(crn.corpus.ABSOLUTE_CONCENTRATION)
    path = ssa_path(sys, (2, 0), SsaConfig(seed=1, t_end=10.0))
    assert path == [(0.0, (2, 0))]
    occ = occupancy_measure(sys, (2, 0), SsaConfig(seed=1, t_end=10.0))
    assert occ.weights == {(2, 0): 1.0}


def test_start_off_the_orthant_is_absorbing():
    # every propensity vanishes off the orthant, 0 -> A included, as in
    # test_communicating_class_negative_singleton
    sys = parse_network(crn.corpus.BIRTH_DEATH)
    cfg = SsaConfig(seed=0, t_end=10.0)
    assert ssa_path(sys, (-1,), cfg) == [(0.0, (-1,))]
    assert occupancy_measure(sys, (-1,), cfg).weights == {(-1,): 1.0}


def test_memo_restart_keeps_the_path(monkeypatch):
    # a path that outgrows the rate memo starts it again; rows are recomputed
    # bit for bit, so the path does not change
    sys = crn.corpus.load("six_complex")
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
    sys = parse_network(crn.corpus.STOCH_RVB_ONLY)
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
    sys = parse_network(crn.corpus.SQUARE)
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
