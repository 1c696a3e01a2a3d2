import math

import numpy as np
import pytest

from crn import (
    classify_state,
    det_rates,
    drift,
    integrate,
    is_equilibrium,
    parse_network,
    reaction_vector_classes,
    same_compatibility_class,
    solve_complex_balanced,
    solve_rvb,
    solve_reaction_balanced,
    system_cycle_balanced,
)
from crn.errors import NonFiniteStateError, NotReversibleError, NotWeaklyReversibleError

from helpers import (
    CORPUS,
    load,
    random_conservative_reversible_system,
    random_irreversible_system,
    random_weakly_reversible_deficiency_zero,
)


TRIANGLE = CORPUS["triangle"]
SQUARE = CORPUS["square"]
THREE_ROOTS = CORPUS["rvb_three_roots"]
ACR = CORPUS["absolute_concentration"]
STOCH_RVB = CORPUS["stoch_rvb_only"]


def rate_by_label(sys, c):
    net = sys.network
    rates = det_rates(sys, c)
    return {
        (
            net.complexes[r.source].format(net.species),
            net.complexes[r.target].format(net.species),
        ): rates[k]
        for k, r in enumerate(net.reactions)
    }


def test_det_rates_triangle_all_ones():
    sys = parse_network(TRIANGLE)
    rates = rate_by_label(sys, [1.0, 1.0])
    assert rates[("2A", "A + B")] == 1.0
    assert rates[("A + B", "2A")] == 2.0
    assert rates[("A + B", "2B")] == 2.0
    assert rates[("2B", "A + B")] == 1.0
    assert rates[("2A", "2B")] == 1.0
    assert rates[("2B", "2A")] == 1.0


def test_det_rates_one_species_monomials():
    sys = parse_network(THREE_ROOTS)
    assert det_rates(sys, [2.0]).tolist() == [6.0, 22.0, 24.0, 8.0]


def test_det_rates_negative_state_all_zero():
    sys = parse_network(SQUARE)
    assert det_rates(sys, [-1.0, 2.0]).tolist() == [0.0] * 8


def test_det_rates_zero_factor_is_zero_past_an_overflow():
    # A**2 overflows to inf at A = 1e200, and inf * 0 would be nan with a
    # warning, which the suite turns into an error
    rates = rate_by_label(parse_network("2A + B <-> C : 1, 1"), [1e200, 0.0, 1.0])
    assert rates == {("2A + B", "C"): 0.0, ("C", "2A + B"): 1.0}


def _rate_test_systems(rng):
    systems = [load(name) for name in sorted(CORPUS)]
    systems += [random_irreversible_system(rng) for _ in range(30)]
    return systems + [random_weakly_reversible_deficiency_zero(rng) for _ in range(10)]


def _folded_rates(sys, c):
    """kappa_k times a Python float fold of reaction k's source factors,
    left to right: IEEE products, whatever numpy's SIMD dispatch."""
    species, _, _, starts, _ = sys.network.source_factors
    ends = [*starts[1:].tolist(), len(species)]
    rates = []
    for kappa, start, end in zip(sys.kappa, starts.tolist(), ends):
        mono = 1.0
        for p in range(start + 1, end):  # column ``start`` is the constant 1
            mono *= float(c[species[p]])
        rates.append(float(kappa) * mono)
    return rates


def test_det_rates_equal_a_python_fold_of_the_source_factors():
    rng = np.random.default_rng(31)
    for sys in _rate_test_systems(rng):
        for _ in range(5):
            c = np.exp(rng.uniform(-4.0, 4.0, sys.network.n))
            c[rng.random(sys.network.n) < 0.2] = 0.0
            got = det_rates(sys, c).tolist()
            assert [v.hex() for v in got] == [v.hex() for v in _folded_rates(sys, c)], sys


def test_det_rates_of_a_stack_equal_its_rows():
    rng = np.random.default_rng(32)
    for sys in _rate_test_systems(rng):
        n, r = sys.network.n, sys.network.r
        C = np.exp(rng.uniform(-4.0, 4.0, (12, n)))
        C[rng.random((12, n)) < 0.2] = 0.0
        C[rng.random((12, n)) < 0.1] = 1e200  # some products overflow
        C[0, -1] = -1.0  # a row off the orthant
        rows = np.array([det_rates(sys, c) for c in C]).reshape(12, r)
        assert det_rates(sys, C).tobytes() == rows.tobytes(), sys
        assert det_rates(sys, C[:0]).shape == (0, r)
        assert np.all(det_rates(sys, C)[0] == 0.0)


def test_drift_zeros_at_rvb_roots():
    sys = parse_network(THREE_ROOTS)
    for z in (1.0, 2.0, 3.0):
        assert abs(drift(sys, [z])[0]) < 1e-12
        assert is_equilibrium(sys, [z]).holds


def test_drift_acr_equilibrium():
    sys = parse_network(ACR)
    assert np.allclose(drift(sys, [1.0, 4.0]), 0.0)
    assert is_equilibrium(sys, [1.0, 4.0]).holds
    assert not is_equilibrium(sys, [2.0, 1.0]).holds


def test_reaction_vector_classes_merge_sign():
    net = parse_network(ACR).network
    classes = reaction_vector_classes(net)
    assert list(classes) == [(1, -1)]
    fwd, bwd = classes[(1, -1)]
    assert len(fwd) == 1 and len(bwd) == 1
    total = sorted(list(fwd) + list(bwd))
    assert total == list(range(net.r))


def test_classify_triangle_state():
    sys = parse_network(TRIANGLE)
    rep = classify_state(sys, [1.0, 1.0])
    assert rep.rb.fails and rep.cb.fails
    assert rep.rvb.holds and rep.cyb.holds
    assert rep.equilibrium.holds
    # complex-balance witness: influx 3 vs outflux 2 at a corner complex
    assert {rep.cb.witness.lhs, rep.cb.witness.rhs} == {2.0, 3.0}


def test_classify_square_state():
    sys = parse_network(SQUARE)
    rep = classify_state(sys, [1.0, 1.0])
    assert rep.cb.holds and rep.rvb.holds
    assert rep.rb.fails and rep.cyb.fails
    assert abs(rep.cyb.witness.lhs - 16.0) < 1e-9
    assert abs(rep.cyb.witness.rhs - 1.0) < 1e-12


def test_classify_negative_state_everything_holds():
    sys = parse_network(SQUARE)
    rep = classify_state(sys, [-1.0, 1.0])
    assert rep.rb.holds and rep.cb.holds and rep.rvb.holds and rep.cyb.holds
    assert rep.equilibrium.holds and rep.drift_norm == 0.0


def test_system_cycle_balanced():
    assert system_cycle_balanced(parse_network(TRIANGLE))
    assert not system_cycle_balanced(parse_network(SQUARE))
    assert system_cycle_balanced(parse_network(THREE_ROOTS))
    # a cycle edge without its reverse: no product of constants can match
    assert not system_cycle_balanced(parse_network("A -> B : 1\nB -> C : 1\nC -> A : 2"))
    assert not system_cycle_balanced(parse_network("A <-> B : 1, 1\nB -> C : 1\nC <-> A : 1, 1"))


@pytest.mark.parametrize("check", [classify_state, is_equilibrium])
def test_overflowing_rate_is_not_a_verdict(check):
    # kappa * A**3 overflows; the drift would read nan and rvb inf = inf fails
    sys = load("birth_death")
    with pytest.raises(NonFiniteStateError, match=r"not finite"):
        check(sys, [1e200])
    assert check(sys, [1e100]) is not None  # 1e300: large, still finite


def test_solve_reaction_balanced_intro():
    sys = parse_network("A + B <-> 2C : 1, 1\nA <-> B : 1, 1")
    c = solve_reaction_balanced(sys)
    assert c is not None
    assert classify_state(sys, c).rb.holds
    # c_A = c_B and c_A c_B = c_C^2
    assert abs(c[0] - c[1]) < 1e-9
    assert abs(c[0] * c[1] - c[2] ** 2) < 1e-9


def test_solve_reaction_balanced_square_inconsistent():
    assert solve_reaction_balanced(parse_network(SQUARE)) is None


def test_solve_reaction_balanced_requires_reversible():
    with pytest.raises(NotReversibleError):
        solve_reaction_balanced(parse_network(ACR))


def test_solve_reaction_balanced_symmetric_triangle():
    sys = load("mono_triangle")
    c = solve_reaction_balanced(sys)
    assert np.allclose(c, 1.0)


@pytest.mark.parametrize("text", [
    "0 <-> A : 1e300, 1e-300",  # the constants' ratio overflows: log-linear rhs inf
    "0 <-> B : 1e300, 1e-4\nA <-> 2B : 1, 1",  # a consistent log c_A of about 1400
])
def test_solve_reaction_balanced_beyond_float_range_is_not_a_state(text):
    with pytest.raises(NonFiniteStateError, match=r"rb state exp\(.*\) is not finite"):
        solve_reaction_balanced(parse_network(text))


def test_solve_complex_balanced_square():
    sys = parse_network(SQUARE)
    c = solve_complex_balanced(sys)
    assert c is not None
    assert classify_state(sys, c).cb.holds
    assert abs(c[0] - c[1]) < 1e-8


def test_solve_complex_balanced_triangle_none():
    assert solve_complex_balanced(parse_network(TRIANGLE)) is None


def test_solve_complex_balanced_needs_weak_reversibility():
    with pytest.raises(NotWeaklyReversibleError):
        solve_complex_balanced(parse_network(ACR))


def test_solve_complex_balanced_deficiency_zero_random():
    from helpers import random_weakly_reversible_deficiency_zero

    rng = np.random.default_rng(23)
    for _ in range(15):
        sys = random_weakly_reversible_deficiency_zero(rng)
        c = solve_complex_balanced(sys)
        assert c is not None
        assert classify_state(sys, c).cb.holds


def test_solve_rvb_three_roots():
    sys = parse_network(THREE_ROOTS)
    roots = solve_rvb(sys)
    assert len(roots) == 3
    assert np.allclose(sorted(float(c[0]) for c in roots), [1.0, 2.0, 3.0], atol=1e-8)
    for c in roots:
        assert classify_state(sys, c).rvb.holds


def test_solve_rvb_acr_line():
    sys = parse_network(ACR)
    roots = solve_rvb(sys)
    assert roots
    assert all(abs(float(c[0]) - 1.0) < 1e-8 for c in roots)


def test_solve_rvb_stochastic_rvb_system_empty():
    assert solve_rvb(parse_network(STOCH_RVB)) == []


def test_solve_rvb_refuses_negative_starts():
    sys = parse_network(THREE_ROOTS)
    for starts in (-1, -32):
        with pytest.raises(ValueError, match="rvb starts must be nonnegative"):
            solve_rvb(sys, starts)
    assert solve_rvb(sys, 0) == []


def test_solve_rvb_refuses_more_than_2_pow_16_starts():
    sys = parse_network(THREE_ROOTS)
    for starts in (2**16 + 1, 10**15):
        with pytest.raises(ValueError, match=f"at most 2\\*\\*16 = 65536, got {starts}$"):
            solve_rvb(sys, starts)


def test_stoch_rvb_polynomials_have_no_common_root():
    # Independent oracle: the per-displacement balance conditions of the
    # five-complex chain, assembled from its rate constants.
    # +-1 jumps: 1 + a = a + 2a^2          -> 1 - 2a^2 = 0
    # +-2 jumps: 2 + 4a + a^2 = 12a^3+4a^4 -> 2 + 4a + a^2 - 12a^3 - 4a^4 = 0
    roots1 = np.roots([-2.0, 0.0, 1.0])
    pos1 = [r.real for r in roots1 if abs(r.imag) < 1e-12 and r.real > 0]
    assert len(pos1) == 1
    a = pos1[0]
    assert abs(a - 1.0 / math.sqrt(2.0)) < 1e-12
    p2 = np.polyval([-4.0, -12.0, 1.0, 4.0, 2.0], a)
    assert abs(p2) > 1e-3  # not a common root, so no RVB equilibrium

    sys = parse_network(STOCH_RVB)
    classes = reaction_vector_classes(sys.network)
    rates = det_rates(sys, [a])
    residuals = []
    for xi, (fwd, bwd) in classes.items():
        residuals.append(sum(rates[k] for k in fwd) - sum(rates[k] for k in bwd))
    assert min(abs(r) for r in residuals) < 1e-12  # the +-1 class balances
    assert max(abs(r) for r in residuals) > 1e-3  # the +-2 class does not


def test_integrate_converges_to_smallest_root():
    sys = parse_network(THREE_ROOTS)
    traj = integrate(sys, [0.5], t_end=50.0, dt=1e-3)
    assert abs(traj[-1][1][0] - 1.0) < 1e-6
    # reference run at a finer step agrees
    ref = integrate(sys, [0.5], t_end=50.0, dt=2.5e-4)
    assert abs(traj[-1][1][0] - ref[-1][1][0]) < 1e-9


def test_integrate_square_midpoint():
    sys = parse_network(SQUARE)
    traj = integrate(sys, [3.0, 1.0], t_end=50.0, dt=1e-3)
    assert np.allclose(traj[-1][1], [2.0, 2.0], atol=1e-6)
    # conservation along the trajectory
    totals = [float(state.sum()) for _, state in traj[:: len(traj) // 10]]
    assert max(abs(t - 4.0) for t in totals) < 1e-8 * 50


def test_integrate_zero_horizon():
    sys = parse_network(SQUARE)
    traj = integrate(sys, [3.0, 1.0], t_end=0.0)
    assert len(traj) == 1 and traj[0][0] == 0.0


def test_integrate_divergence_guard():
    sys = parse_network("2A -> 3A : 1")
    with pytest.raises(NonFiniteStateError):
        integrate(sys, [10.0], t_end=50.0, dt=1e-2)


def test_same_compatibility_class():
    sys = parse_network(THREE_ROOTS)
    assert same_compatibility_class(sys.network, [1.0], [3.0])
    net = parse_network(ACR).network
    assert not same_compatibility_class(net, [1.0, 1.0], [1.0, 3.0])
    assert same_compatibility_class(net, [1.0, 3.0], [1.0, 3.0])


def test_relations_between_balanced_states_random():
    rng = np.random.default_rng(77)
    checked_rb = 0
    for _ in range(40):
        sys = random_conservative_reversible_system(rng, balanced=True)
        c = solve_reaction_balanced(sys)
        if c is None:
            continue
        rep = classify_state(sys, c)
        assert rep.rb.holds
        assert rep.cb.holds and rep.rvb.holds and rep.cyb.holds
        assert rep.equilibrium.holds
        checked_rb += 1
    assert checked_rb >= 30
