"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single ``criterion N: PASS`` / ``FAIL`` line (run pytest
with ``-s`` to see them inline; they are also captured in the test report).
"""

import contextlib
import json
import math
import time

import numpy as np

from crn import (
    Box,
    Measure,
    SsaConfig,
    classify_component_measure,
    classify_state,
    communicating_class,
    component_is_active,
    drift,
    occupancy_measure,
    parse_network,
    poisson_product,
    same_compatibility_class,
    solve_complex_balanced,
    solve_rvb,
    solve_reaction_balanced,
    stationary_distribution,
    system_cycle_balanced,
    tv_distance,
)
from crn.cli import main
from crn.errors import NotReversibleError

from helpers import CORPUS, load, random_weakly_reversible_deficiency_zero
import test_properties


@contextlib.contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL — {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS — {description} ({elapsed:.2f}s)")


def test_criterion_1_triangle_classification(capsys, tmp_path):
    with criterion(1, "triangle state (1,1): rb/cb fail, rvb/cyb hold"):
        path = tmp_path / "triangle.crn"
        path.write_text(CORPUS["triangle"])
        start = time.perf_counter()
        code = main(
            ["classify-state", str(path), "--state", "A=1,B=1", "--tol", "1e-9"]
        )
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        statuses = {k: payload[k]["status"] for k in ("rb", "cb", "rvb", "cyb")}
        assert statuses == {
            "rb": "fails",
            "cb": "fails",
            "rvb": "holds",
            "cyb": "holds",
        }
        assert elapsed < 1.0


def test_criterion_2_square_classification():
    with criterion(2, "square state (1,1): cb/rvb hold, cyb/rb fail; products 16 vs 1"):
        start = time.perf_counter()
        sys = load("square")
        rep = classify_state(sys, [1.0, 1.0], tol=1e-9)
        assert rep.cb.holds and rep.rvb.holds
        assert rep.cyb.fails and rep.rb.fails
        assert abs(rep.cyb.witness.lhs - 16.0) < 1e-8
        assert abs(rep.cyb.witness.rhs - 1.0) < 1e-12
        assert not system_cycle_balanced(sys)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_three_rvb_equilibria():
    with criterion(3, "three reaction vector balanced equilibria at 1, 2, 3"):
        sys = load("rvb_three_roots")
        roots = solve_rvb(sys)
        values = sorted(float(c[0]) for c in roots)
        assert len(values) == 3
        for got, want in zip(values, (1.0, 2.0, 3.0)):
            assert abs(got - want) <= 1e-8
        for c in roots:
            assert float(np.max(np.abs(drift(sys, c)))) <= 1e-10
        for a in roots:
            for b in roots:
                assert same_compatibility_class(sys.network, a, b)


def test_criterion_4_acr_line_and_empty_class():
    with criterion(4, "(1, l-1) is rvb for l in {2,3,5}; no equilibrium on total=1"):
        sys = load("absolute_concentration")
        for l in (2, 3, 5):
            rep = classify_state(sys, [1.0, float(l - 1)], tol=1e-9)
            assert rep.rvb.holds
        # grid scan over the positive part of the class z_A + z_B = 1
        worst = math.inf
        for t in np.arange(0.01, 1.0, 0.01):
            c = np.array([t, 1.0 - t])
            worst = min(worst, float(np.max(np.abs(drift(sys, c)))))
        assert worst > 1e-6


def test_criterion_5_stochastic_rvb_example():
    with criterion(5, "stochastic-RVB chain: product formula, rvb holds, no det solution"):
        sys = load("stoch_rvb_only")
        comp = communicating_class(sys, (0,), Box.cube(1, 30))
        dist = stationary_distribution(sys, comp, allow_truncated=True)
        ref = {}
        w = 1.0
        for x in range(31):
            ref[(x,)] = w
            w /= 2 * x + 1
        z = sum(ref.values())
        sup_rel = max(
            abs(dist((x,)) - ref[(x,)] / z) / (ref[(x,)] / z) for x in range(26)
        )
        assert sup_rel < 1e-6
        rep = classify_component_measure(sys, comp, dist)
        assert rep.rvb.holds
        assert solve_rvb(sys) == []


def test_criterion_6_birth_death():
    with criterion(6, "birth-death: rvb holds, rb fails with witness, cyb holds; box-stable"):
        sys = load("birth_death")
        comp = communicating_class(sys, (0,), Box.cube(1, 60))
        dist = stationary_distribution(sys, comp, allow_truncated=True)
        rep = classify_component_measure(sys, comp, dist, tol=1e-9)
        assert rep.rvb.holds
        assert rep.rb.fails and rep.rb.witness is not None
        assert rep.cyb.holds
        comp80 = communicating_class(sys, (0,), Box.cube(1, 80))
        dist80 = stationary_distribution(sys, comp80, allow_truncated=True)
        assert tv_distance(dist, dist80) < 1e-10


def test_criterion_7_product_form_bridge():
    with criterion(7, "complex balanced systems have product-form stationary laws"):
        cases = []
        sq = load("square")
        cases.append((sq, communicating_class(sq, (3, 0), Box.cube(2, 20))))
        cases.append((sq, communicating_class(sq, (12, 0), Box.cube(2, 20))))
        intro = load("intro_unit")
        cases.append(
            (intro, communicating_class(intro, (2, 1, 0), Box.cube(3, 3)))
        )
        cases.append(
            (intro, communicating_class(intro, (5, 3, 0), Box.cube(3, 8)))
        )
        rng = np.random.default_rng(1212)
        added = 0
        while added < 5:
            wr = random_weakly_reversible_deficiency_zero(rng)
            comp = test_properties.active_component(wr, rng)
            if comp is None:
                continue
            cases.append((wr, comp))
            added += 1
        for sys, comp in cases:
            start = time.perf_counter()
            assert comp.closed and len(comp.states) <= 5000
            c = solve_complex_balanced(sys)
            assert c is not None
            dist = stationary_distribution(sys, comp)
            product_form = poisson_product(c, comp.states)
            assert tv_distance(dist, product_form) <= 1e-10
            assert time.perf_counter() - start < 10.0


def test_criterion_8_bridge_reaction_balance_agreement():
    # One-species systems: their component supports are integer intervals,
    # on which no nonzero low-degree polynomial vanishes, so stochastic
    # reaction balance of the stationary distribution is equivalent to the
    # deterministic log-linear consistency.  (On stoichiometrically thin
    # supports, e.g. tiny conservation simplexes, the equivalence genuinely
    # fails; see the support-richness gate in the implication checker.)
    from helpers import random_one_species_reversible_system

    with criterion(8, "deterministic and stochastic reaction balance agree on 50 systems"):
        rng = np.random.default_rng(808)
        agreements = 0
        det_true = 0
        for _ in range(50):
            sys = random_one_species_reversible_system(rng)
            max_degree = max(c.degree for c in sys.network.complexes)
            seed = (max_degree,)
            comp = communicating_class(sys, seed, Box.cube(1, 40))
            assert component_is_active(sys, comp)
            try:
                det_rb = solve_reaction_balanced(sys) is not None
            except NotReversibleError:
                det_rb = False
            dist = stationary_distribution(sys, comp, allow_truncated=True)
            rep = classify_component_measure(sys, comp, dist)
            stoch_rb = rep.rb.holds
            assert det_rb == stoch_rb
            det_true += int(det_rb)
            agreements += 1
        assert agreements == 50
        assert 10 <= det_true <= 40  # both outcomes are exercised


def test_criterion_9_six_complex_slices():
    with criterion(9, "six-complex counterexample: rvb only on the x_C=1 slice"):
        sys = load("six_complex")
        comp1 = communicating_class(sys, (0, 0, 1), Box((0, 0, 1), (40, 40, 1)))
        dist1 = stationary_distribution(sys, comp1, allow_truncated=True)
        rep1 = classify_component_measure(sys, comp1, dist1)
        assert rep1.rvb.holds
        assert rep1.rb.fails
        comp2 = communicating_class(sys, (0, 0, 2), Box((0, 0, 2), (40, 40, 2)))
        dist2 = stationary_distribution(sys, comp2, allow_truncated=True)
        rep2 = classify_component_measure(sys, comp2, dist2)
        assert rep2.rvb.fails
        assert rep2.rb.fails


def test_criterion_10_property_suites():
    with criterion(10, "randomized theorem invariants and corpus implication map"):
        start = time.perf_counter()
        test_properties.test_det_balanced_states_hierarchy_and_necessity()
        test_properties.test_det_cycle_balance_is_statewise_constant()
        test_properties.test_det_complex_balanced_systems_attract_within_class()
        test_properties.test_det_solver_outputs_reverify()
        test_properties.test_stoch_balanced_measures_invariants()
        test_properties.test_stoch_cb_and_rvb_imply_rb_on_monomolecular()
        test_properties.test_analyze_never_violates_on_corpus()
        test_properties.test_stationary_scale_free_random()
        assert time.perf_counter() - start < 300.0


def test_criterion_11_ssa_consistency():
    with criterion(11, "SSA occupancy matches the Poisson(1) law"):
        start = time.perf_counter()
        sys = parse_network("0 <-> A : 1, 1")
        occ = occupancy_measure(sys, (0,), SsaConfig(seed=2026, t_end=1e5))
        upper = max(x[0] for x in occ.support())
        ref = {}
        for x in range(max(upper + 1, 30)):
            ref[(x,)] = math.exp(-1.0) / math.factorial(x)
        z = sum(ref.values())
        pois = Measure({x: w / z for x, w in ref.items()}, normalized=True)
        assert tv_distance(occ, pois) < 0.02
        assert time.perf_counter() - start < 30.0
