"""Randomized theorem-derived invariants, run on fixed-seed instance streams.

Each suite draws 200 instances from its own master-seeded generator; failed
preconditions (e.g. no active finite component in reach) skip the draw, and
the suite asserts that enough instances were actually exercised.
"""

import numpy as np

import crn
from crn import (
    Box,
    classify_component_measure,
    classify_state,
    communicating_class,
    component_is_active,
    active_subnetwork,
    drift,
    integrate,
    is_reversible,
    is_weakly_reversible,
    poisson_product,
    reaction_vector_classes,
    solve_complex_balanced,
    solve_rvb,
    solve_reaction_balanced,
    stationary_distribution,
    system_cycle_balanced,
    tv_distance,
)
from crn import analyze_system
from crn.errors import NotReversibleError, NotWeaklyReversibleError

from helpers import (
    random_conservative_reversible_system,
    random_positive_state,
    random_weakly_reversible_deficiency_zero,
)

N_INSTANCES = 200


def try_solve_rb(sys):
    try:
        return solve_reaction_balanced(sys)
    except NotReversibleError:
        return None


def try_solve_cb(sys):
    try:
        return solve_complex_balanced(sys)
    except NotWeaklyReversibleError:
        return None


def active_component(sys, rng, max_total=8):
    """A closed active component of a degree-homogeneous system, or None."""
    net = sys.network
    degree = net.complexes[0].degree
    for total in range(degree, max_total + 1):
        seed = [0] * net.n
        seed[int(rng.integers(0, net.n))] = total
        comp = communicating_class(sys, tuple(seed), Box.cube(net.n, total))
        if comp.closed and component_is_active(sys, comp):
            return comp
    return None


def test_det_balanced_states_hierarchy_and_necessity():
    rng = np.random.default_rng(2024)
    rb_hits = 0
    for _ in range(N_INSTANCES):
        sys = random_conservative_reversible_system(rng)
        c_rb = try_solve_rb(sys)
        c_cb = try_solve_cb(sys)
        states = [random_positive_state(rng, sys.network.n)]
        if c_rb is not None:
            states.append(c_rb)
        if c_cb is not None:
            states.append(c_cb)
        for c in states:
            rep = classify_state(sys, c)
            # balanced states are equilibria
            if rep.rb.holds or rep.cb.holds or rep.rvb.holds:
                assert rep.equilibrium.holds
            # hierarchy: rb implies everything else
            if rep.rb.holds:
                rb_hits += 1
                assert rep.cb.holds and rep.rvb.holds and rep.cyb.holds
            # cb and cyb together imply rb
            if rep.cb.holds and rep.cyb.holds:
                assert rep.rb.holds
            # necessary conditions on the active subnetwork
            sub = active_subnetwork(sys, [c])
            if rep.rb.holds:
                assert is_reversible(sub)
            if rep.cb.holds:
                assert is_weakly_reversible(sub)
            if rep.rvb.holds and not sub.is_empty:
                classes = reaction_vector_classes(sub).classes
                assert all(fwd and bwd for fwd, bwd in classes.values())
    assert rb_hits >= 40


def test_det_cycle_balance_is_statewise_constant():
    rng = np.random.default_rng(4812)
    both = {True: 0, False: 0}
    for _ in range(N_INSTANCES):
        sys = random_conservative_reversible_system(rng)
        expected = system_cycle_balanced(sys)
        verdicts = {
            classify_state(sys, random_positive_state(rng, sys.network.n)).cyb.holds
            for _ in range(10)
        }
        assert verdicts == {expected}
        both[expected] += 1
    # the stream must exercise both outcomes
    assert both[True] >= 20 and both[False] >= 10


def test_det_complex_balanced_systems_attract_within_class():
    rng = np.random.default_rng(999)
    exercised = 0
    draws = 0
    while exercised < 60 and draws < 400:
        draws += 1
        sys = random_weakly_reversible_deficiency_zero(rng)
        c_cb = solve_complex_balanced(sys)
        if c_cb is None:
            continue
        exercised += 1
        net = sys.network
        endpoints = []
        for _ in range(5):
            c0 = random_positive_state(rng, net.n, lo=0.3, hi=2.0)
            state = c0
            for _ in range(60):
                traj = integrate(sys, state, t_end=10.0, dt=5e-3)
                state = traj[-1][1]
                if float(np.max(np.abs(drift(sys, state)))) < 1e-9:
                    break
            assert float(np.max(np.abs(drift(sys, state)))) < 1e-6
            assert classify_state(sys, state, tol=1e-6).cb.holds
            assert crn.same_compatibility_class(net, c0, state, tol=1e-6)
            endpoints.append((c0, state))
        # one equilibrium per compatibility class: same class -> same endpoint
        for i in range(len(endpoints)):
            for j in range(i + 1, len(endpoints)):
                if crn.same_compatibility_class(
                    net, endpoints[i][0], endpoints[j][0], tol=1e-9
                ):
                    assert np.allclose(
                        endpoints[i][1], endpoints[j][1], atol=1e-5
                    )
    assert exercised >= 60


def test_det_solver_outputs_reverify():
    rng = np.random.default_rng(31337)
    for _ in range(60):
        sys = random_conservative_reversible_system(rng)
        c_rb = try_solve_rb(sys)
        if c_rb is not None:
            assert classify_state(sys, c_rb).rb.holds
        c_cb = try_solve_cb(sys)
        if c_cb is not None:
            assert classify_state(sys, c_cb).cb.holds
        for c in solve_rvb(sys, starts=8):
            assert classify_state(sys, c).rvb.holds


def test_stoch_balanced_measures_invariants():
    rng = np.random.default_rng(777)
    exercised = 0
    rb_hits = 0
    cb_hits = 0
    draws = 0
    while exercised < N_INSTANCES and draws < 3 * N_INSTANCES:
        draws += 1
        sys = random_conservative_reversible_system(rng)
        comp = active_component(sys, rng)
        if comp is None:
            continue
        exercised += 1
        dist = stationary_distribution(sys, comp)
        rep = classify_component_measure(sys, comp, dist)
        assert rep.boundary_skipped == 0
        assert rep.stationary.holds
        # balanced measures are stationary (the solve already guarantees it;
        # the classification must agree)
        if rep.rb.holds or rep.cb.holds or rep.rvb.holds:
            assert rep.stationary.holds
        # hierarchy
        if rep.rb.holds:
            rb_hits += 1
            assert rep.cb.holds and rep.rvb.holds and rep.cyb.holds
        if rep.cb.holds and rep.cyb.holds:
            assert rep.rb.holds
        # necessary conditions on the component's active subnetwork
        sub = active_subnetwork(sys, list(comp.states))
        if rep.rb.holds:
            assert is_reversible(sub)
        if rep.cb.holds:
            cb_hits += 1
            assert is_weakly_reversible(sub)
        if rep.rvb.holds:
            classes = reaction_vector_classes(sub).classes
            assert all(fwd and bwd for fwd, bwd in classes.values())
        # product form for complex balanced systems
        c_cb = try_solve_cb(sys)
        if c_cb is not None:
            assert rep.cb.holds
            assert tv_distance(dist, poisson_product(c_cb, comp.states)) <= 1e-10
    assert exercised == N_INSTANCES
    assert rb_hits >= 40 and cb_hits >= 40


def test_stoch_cb_and_rvb_imply_rb_on_monomolecular():
    rng = np.random.default_rng(2718)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        names = "ABCD"[:n]
        lines = []
        for a, b in zip(names, names[1:]):
            k1, k2 = np.exp(rng.uniform(-1, 1, size=2))
            lines.append(f"{a} <-> {b} : {k1}, {k2}")
        sys = crn.parse_network("\n".join(lines))
        total = int(rng.integers(2, 6))
        seed = tuple([total] + [0] * (n - 1))
        comp = communicating_class(sys, seed, Box.cube(n, total))
        assert comp.closed and component_is_active(sys, comp)
        dist = stationary_distribution(sys, comp)
        rep = classify_component_measure(sys, comp, dist)
        assert rep.cb.holds and rep.rvb.holds
        assert rep.rb.holds


def test_analyze_never_violates_on_corpus():
    cases = {
        "intro_unit": ((2, 1, 0),),
        "intro_generic": ((2, 1, 0),),
        "triangle": ((4, 0),),
        "square": ((3, 0),),
        "rvb_three_roots": ((0,),),
        "absolute_concentration": ((1, 2), (2, 0)),
        "birth_death": ((0,),),
        "stoch_rvb_only": ((0,),),
        "semi_open": ((0, 1),),
        "mono_triangle": ((2, 0, 0),),
        "six_complex": (),
    }
    boxes = {
        "rvb_three_roots": Box.cube(1, 40),
        "birth_death": Box.cube(1, 60),
        "stoch_rvb_only": Box.cube(1, 30),
        "semi_open": Box((0, 0), (40, 8)),
    }
    for name, seeds in cases.items():
        sys = crn.corpus.load(name)
        payload, violated = analyze_system(
            sys, seeds=seeds, box=boxes.get(name), rvb_starts=16
        )
        assert not violated, (name, payload["implications"])
    # the six-complex slices need per-axis boxes
    sys = crn.corpus.load("six_complex")
    for level in (1, 2):
        payload, violated = analyze_system(
            sys,
            seeds=((0, 0, level),),
            box=Box((0, 0, level), (25, 25, level)),
            rvb_starts=16,
        )
        assert not violated, payload["implications"]


def test_stationary_scale_free_random():
    rng = np.random.default_rng(515)
    done = 0
    while done < 30:
        sys = random_conservative_reversible_system(rng)
        comp = active_component(sys, rng)
        if comp is None:
            continue
        done += 1
        doubled = crn.MassActionSystem(
            sys.network, tuple(2.0 * k for k in sys.kappa)
        )
        d1 = stationary_distribution(sys, comp)
        comp2 = communicating_class(doubled, comp.seed, comp.box)
        d2 = stationary_distribution(doubled, comp2)
        assert tv_distance(d1, d2) <= 1e-12
