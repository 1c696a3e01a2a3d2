"""The adaptive ODE integrator against closed forms and the old fixed-step RK4.

``crn.detbal.integrate`` runs one LSODA solve per call.  These tests hold it
to exact solutions (decay chains, a bimolecular annihilation, a linear
network through the matrix exponential), to the conservation laws along the
whole trajectory, and to the endpoints of the fixed-step RK4 it replaced,
kept in ``reference_detbal`` as a test-only reference.  They also check that
a divergence raises without leaking solver output, and that importing the
package does not load the solver.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from crn import drift, integrate, parse_network
from crn.errors import NonFiniteStateError
from crn.model import conserved_matrix

from helpers import (
    CORPUS,
    load,
    loaded_modules,
    random_positive_state,
    random_weakly_reversible_deficiency_zero,
)
from reference_detbal import direct_sum, rk4_integrate

T_END = 50.0
DT = 1e-3


def _annihilation(t):
    # A + B -> 0 at rate 3 from (2, 1): A - B = 1 and B' = -3 B (B + 1)
    q = 0.5 * np.exp(-3.0 * t)
    b = q / (1.0 - q)
    return np.array([b + 1.0, b])


@pytest.mark.parametrize(
    "text, c0, exact",
    [
        ("A -> 0 : 50", [2.0], lambda t: np.array([2.0 * np.exp(-50.0 * t)])),
        ("A + B -> 0 : 3", [2.0, 1.0], _annihilation),
        (
            "A -> B : 1\nB -> 0 : 100",
            [1.0, 0.0],
            lambda t: np.array([np.exp(-t), (np.exp(-t) - np.exp(-100.0 * t)) / 99.0]),
        ),
        # a flow stopped by the undershoot of A would leave B stuck near 1
        (
            "A -> 0 : 100\nB -> C : 1",
            [1.0, 1.0, 0.0],
            lambda t: np.array([np.exp(-100.0 * t), np.exp(-t), 1.0 - np.exp(-t)]),
        ),
    ],
    ids=["decay", "annihilation", "fast_chain", "decay_beside_slow_flow"],
)
def test_integrate_stays_nonnegative_and_matches_closed_form(text, c0, exact):
    traj = integrate(parse_network(text), c0, t_end=200.0, dt=1e-2)
    assert len(traj) == 20001
    for t, c in traj:
        assert np.all(c >= 0.0), (t, c)
        assert np.max(np.abs(c - exact(t))) <= 1e-9, (t, c, exact(t))


def test_integrate_linear_network_matches_matrix_exponential():
    sys = parse_network("A <-> B : 2, 1\nB <-> C : 3, 0.5")
    net = sys.network
    # c' = K c for first-order reactions
    K = net.reaction_vectors.T @ (np.array(sys.kappa)[:, None] * net.source_matrix)
    c0 = np.array([1.0, 0.5, 0.25])
    traj = integrate(sys, c0, t_end=20.0, dt=1e-2)
    for t, c in traj:
        assert np.max(np.abs(c - expm(K * t) @ c0)) <= 1e-9, t


def test_integrate_output_spacing_does_not_change_the_solution():
    # Lotka-Volterra cycles around (1, 1) and keeps H = a - ln a + b - ln b
    sys = parse_network("A -> 2A : 1\nA + B -> 2B : 1\nB -> 0 : 1")
    H = lambda c: c[0] - np.log(c[0]) + c[1] - np.log(c[1])
    fine = integrate(sys, [1.5, 0.5], t_end=200.0, dt=0.5)
    coarse = integrate(sys, [1.5, 0.5], t_end=200.0, dt=200.0)
    assert [t for t, _ in coarse] == [0.0, 200.0]
    assert np.max(np.abs(coarse[-1][1] - fine[-1][1])) <= 1e-7
    assert max(abs(H(c) - H(fine[0][1])) for _, c in fine) <= 1e-7


def _check_against_reference(systems, starts):
    ref = rk4_integrate(direct_sum(systems), np.concatenate(starts), T_END, DT)
    ref_end = ref[-1][1]
    offset = 0
    for sys, c0 in zip(systems, starts):
        net = sys.network
        traj = integrate(sys, c0, T_END, DT)
        assert [t for t, _ in traj] == [t for t, _ in ref]
        block = ref_end[offset : offset + net.n]
        offset += net.n
        assert np.max(np.abs(traj[-1][1] - block)) <= 1e-8, (net, traj[-1][1], block)
        W = conserved_matrix(net)
        if W.size:
            states = np.array([c for _, c in traj])
            assert np.max(np.abs(states @ W.T - W @ c0)) <= 1e-9, net


def test_integrate_matches_rk4_reference_on_corpus():
    systems = [load(name) for name in sorted(CORPUS)]
    # semi_open's production A + B -> 2A + B outruns A -> 0 only while B > 2
    starts = [np.linspace(0.5, 1.5, sys.network.n) for sys in systems]
    _check_against_reference(systems, starts)


def test_integrate_matches_rk4_reference_on_random_deficiency_zero_systems():
    rng = np.random.default_rng(2718)
    systems = [random_weakly_reversible_deficiency_zero(rng) for _ in range(20)]
    starts = [random_positive_state(rng, s.network.n, lo=0.3, hi=2.0) for s in systems]
    _check_against_reference(systems, starts)


def test_integrate_field_is_the_drift(monkeypatch):
    # the solver's right-hand side is RV @ det_rates, bit for bit, at finite
    # nonnegative states; odeint is replaced by a stub that evaluates it
    import scipy.integrate

    rng = np.random.default_rng(4)
    systems = [load(name) for name in sorted(CORPUS)]
    systems += [random_weakly_reversible_deficiency_zero(rng) for _ in range(10)]
    pairs = []

    def evaluate(field, c, times, **_):
        for _ in range(5):
            z = np.exp(rng.uniform(-4.0, 4.0, len(c)))
            z[rng.random(len(c)) < 0.2] = 0.0
            pairs.append((field(z, 0.0), z))
        return np.tile(c, (len(times), 1)), {"message": "Integration successful."}

    monkeypatch.setattr(scipy.integrate, "odeint", evaluate)
    for sys in systems:
        pairs.clear()
        integrate(sys, np.ones(sys.network.n), t_end=1.0, dt=1.0)
        assert len(pairs) == 5
        for got, z in pairs:
            assert got.tobytes() == drift(sys, z).tobytes(), sys


@pytest.mark.parametrize(
    "text, c0, dt, match",
    [
        # blow-up at t = 0.1: the solver stops short of it
        ("2A -> 3A : 1", [10.0], 1e-2, r"t=0\.09"),
        # overflow at t = ln(1.8) without a solver failure
        ("A -> 2A : 1", [1e308], 0.1, r"t=0\.6"),
    ],
    ids=["blow_up", "overflow"],
)
def test_integrate_divergence_is_quiet(capfd, text, c0, dt, match):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteStateError, match=match):
            integrate(parse_network(text), c0, t_end=50.0, dt=dt)
    assert not caught
    assert capfd.readouterr() == ("", "")


def test_import_leaves_the_solver_unloaded():
    # scipy.integrate adds about 0.3 s to a fresh interpreter; CLI calls never integrate
    assert "scipy.integrate" not in loaded_modules("import crn, crn.cli")
