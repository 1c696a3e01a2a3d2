"""Test-only references for the deterministic layer.

``rk4_integrate`` is a copy of the fourth-order Runge-Kutta loop that
``crn.detbal.integrate`` ran before it moved to one adaptive LSODA solve:
Python steps of size ``dt`` (the last one shortened to end at ``t_end``),
no error control, and the mass-action field set to zero wherever a
coordinate is negative.  The differential tests hold the adaptive solver to
its endpoints.  ``direct_sum`` lets one reference run serve many systems.

``classify_state`` is a copy of ``crn.detbal.classify_state`` as it was
before the balance equations moved into one table: one hand-written loop
per condition.  Its cycle loop reads the cycle basis without the complexes
whose rates vanish, as the library does.  The differential test requires
the same report, witness labels and floats included.

``solve_rvb`` is a copy of ``crn.detbal.solve_rvb`` as it was before its
Newton starts ran as one array batch: one start at a time, one residual
evaluation per backtracking step, and ``classify_state`` on every
candidate.  The differential test requires the same list of arrays, in the
same order, bit for bit.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from scipy.linalg import block_diag

from crn import detbal
from crn.detbal import (
    StateBalanceReport,
    _equilibrium,
    _log_product_mismatch,
    reaction_vector_classes,
)
from crn.errors import NonFiniteStateError
from crn.graph import cycles_of
from crn.kinetics import det_rates
from crn.model import MassActionSystem, Verdict, det_state


def rk4_integrate(
    sys: MassActionSystem,
    c0,
    t_end: float,
    dt: float = 1e-3,
) -> list[tuple[float, np.ndarray]]:
    """Fixed-step fourth-order Runge-Kutta integration of the rate equations."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    net = sys.network
    c = det_state(c0, net.n)
    Y = net.source_matrix
    RV = net.reaction_vectors.T.astype(float)
    kappa = np.asarray(sys.kappa)

    def field(z):
        if net.r == 0 or np.any(z < 0):
            return np.zeros(net.n)
        return RV @ (kappa * np.prod(np.power(z[None, :], Y), axis=1))

    t = 0.0
    traj = [(0.0, c.copy())]
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end - 1e-12 * max(1.0, t_end):
            h = min(dt, t_end - t)
            k1 = field(c)
            k2 = field(c + 0.5 * h * k1)
            k3 = field(c + 0.5 * h * k2)
            k4 = field(c + h * k3)
            c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(c)):
                raise NonFiniteStateError(f"trajectory diverged at t={t + h}")
            t += h
            traj.append((t, c.copy()))
    return traj


def direct_sum(systems):
    """The rate equations of ``systems`` side by side, as one system.

    Species and reactions are concatenated in order (block-diagonal source
    and reaction-vector matrices), so the state of block ``i`` is its own
    slice of the concatenated state.  RK4 acts blockwise: while no
    coordinate turns negative, each block of an ``rk4_integrate`` run on the
    sum is that block's own fixed-step trajectory, and one run costs about
    as much as one of the small systems alone.
    """
    nets = [s.network for s in systems]
    net = SimpleNamespace(
        n=sum(net.n for net in nets),
        r=sum(net.r for net in nets),
        source_matrix=block_diag(*(net.source_matrix for net in nets)),
        reaction_vectors=block_diag(*(net.reaction_vectors for net in nets)),
    )
    return SimpleNamespace(network=net, kappa=np.concatenate([s.kappa for s in systems]))


def _close(lhs: float, rhs: float, tol: float) -> bool:
    return abs(lhs - rhs) <= tol * (1.0 + abs(lhs) + abs(rhs))


def _reaction_pairs(net) -> list[tuple[int, int]]:
    """Unordered complex pairs connected by at least one reaction."""
    pairs = {tuple(sorted((r.source, r.target))) for r in net.reactions}
    return sorted(pairs)


def classify_state(sys: MassActionSystem, c, tol: float = 1e-9) -> StateBalanceReport:
    """Evaluate the four balance conditions literally at ``c``."""
    net = sys.network
    c = det_state(c, net.n)
    rates = det_rates(sys, c)
    state = tuple(float(v) for v in c)

    def rate_of(i: int, j: int) -> float:
        k = net.edge_index.get((i, j))
        return float(rates[k]) if k is not None else 0.0

    rb = Verdict.ok()
    for i, j in _reaction_pairs(net):
        lhs, rhs = rate_of(i, j), rate_of(j, i)
        if not _close(lhs, rhs, tol):
            rb = Verdict.fail(
                state,
                f"rb:{net.complexes[i].format(net.species)}<->"
                f"{net.complexes[j].format(net.species)}",
                lhs,
                rhs,
            )
            break

    cb = Verdict.ok()
    for i in range(net.m):
        out = sum(float(rates[k]) for k, r in enumerate(net.reactions) if r.source == i)
        inc = sum(float(rates[k]) for k, r in enumerate(net.reactions) if r.target == i)
        if not _close(out, inc, tol):
            cb = Verdict.fail(
                state, f"cb:{net.complexes[i].format(net.species)}", out, inc
            )
            break

    rvb = Verdict.ok()
    for xi, (fwd, bwd) in reaction_vector_classes(net).items():
        lhs = sum(float(rates[k]) for k in fwd)
        rhs = sum(float(rates[k]) for k in bwd)
        if not _close(lhs, rhs, tol):
            rvb = Verdict.fail(state, f"rvb:{xi}", lhs, rhs)
            break

    # a cycle through a complex whose rates vanish holds: the basis of the
    # graph without those complexes decides the rest
    cyb = Verdict.ok()
    idle = frozenset(r.source for k, r in enumerate(net.reactions) if rates[k] == 0.0)
    for cycle in cycles_of(net, idle):
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        fwd = [rate_of(a, b) for a, b in edges]
        bwd = [rate_of(b, a) for a, b in edges]
        bad = _log_product_mismatch(fwd, bwd, tol, 1.0)
        if bad is not None:
            cyb = Verdict.fail(state, f"cyb:{cycle}", *bad)
            break

    return StateBalanceReport(rb, cb, rvb, cyb, *_equilibrium(net, c, rates, tol))


def solve_rvb(sys: MassActionSystem, starts: int = 32) -> list[np.ndarray]:
    """Positive reaction vector balanced states found by multi-start Newton,
    one start after the other."""
    net = sys.network
    classes = reaction_vector_classes(net)
    if net.n == 0 or not classes:
        return []
    Y = net.source_matrix.astype(float)
    kappa = np.asarray(sys.kappa)
    signs = np.zeros((len(classes), net.r))
    for row, (_, (fwd, bwd)) in enumerate(sorted(classes.items())):
        signs[row, list(fwd)] = 1.0
        signs[row, list(bwd)] = -1.0

    def raw_residual(u):
        with np.errstate(over="ignore", invalid="ignore"):
            return signs @ (kappa * np.exp(Y @ u))

    def scaled_residual_and_jacobian(u):
        with np.errstate(over="ignore", invalid="ignore"):
            rates = kappa * np.exp(Y @ u)
            total = float(rates.sum())
            p = rates / total
            G = signs @ p
            J = signs @ (p[:, None] * Y) - np.outer(G, p @ Y)
        return G, J

    lo, hi = 1e-2, 1e2
    rng = np.random.default_rng(0)
    span = math.log(hi) - math.log(lo)
    u0s = np.empty((starts, net.n))
    for j in range(net.n):
        strata = rng.permutation(starts)
        u0s[:, j] = math.log(lo) + (strata + rng.random(starts)) / starts * span

    found: list[np.ndarray] = []
    for u in u0s:
        u = u.copy()
        for _ in range(100):
            G, J = scaled_residual_and_jacobian(u)
            if not np.all(np.isfinite(G)) or float(np.max(np.abs(G))) <= 1e-15:
                break
            step, *_ = np.linalg.lstsq(J, -G, rcond=None)
            alpha = 1.0
            base = float(G @ G)
            while alpha > 1e-6:
                trial = u + alpha * step
                Gt, _ = scaled_residual_and_jacobian(trial)
                if np.all(np.isfinite(Gt)) and float(Gt @ Gt) < base:
                    u = trial
                    break
                alpha /= 2
            else:
                break
        F = raw_residual(u)
        if not (np.all(np.isfinite(F)) and float(np.max(np.abs(F))) <= 1e-10):
            continue
        c = np.exp(u)
        if np.any(c < lo) or np.any(c > hi):
            continue
        if detbal.classify_state(sys, c).rvb.holds:
            found.append(c)

    found.sort(key=lambda c: tuple(c))
    kept: list[np.ndarray] = []
    for c in found:
        if all(float(np.linalg.norm(c - other)) > 1e-6 for other in kept):
            kept.append(c)
    return kept
