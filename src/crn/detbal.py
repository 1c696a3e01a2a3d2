"""Deterministic mass-action analysis: state classification and solvers.

A state is classified against four balance conditions:

* reaction balance: each opposing reaction pair has equal rate;
* complex balance: at each complex, total inflow equals total outflow;
* reaction vector balance: for each displacement class, the total rate of
  reactions with vector +xi equals the total rate of those with -xi;
* cycle balance: around every directed simple cycle of >= 3 distinct
  complexes, the forward and backward rate products agree.

Each scalar equation passes iff ``|lhs - rhs| <= tol * (1 + |lhs| + |rhs|)``;
cycle products are compared in log space with zero factors short-circuited
exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BalanceConsistencyError,
    NonFiniteStateError,
    NotReversibleError,
    NotWeaklyReversibleError,
    NumericalRankFailureError,
)
from .graph import cycles_of, is_reversible, is_weakly_reversible, linkage_classes
from .kinetics import det_rates
from .model import (
    MassActionSystem,
    Verdict,
    conserved_matrix,
    det_state,
)

__all__ = [
    "StateBalanceReport",
    "ReactionVectorClasses",
    "reaction_vector_classes",
    "det_rates",
    "drift",
    "is_equilibrium",
    "classify_state",
    "system_cycle_balanced",
    "solve_reaction_balanced",
    "solve_complex_balanced",
    "solve_rvb",
    "integrate",
    "same_compatibility_class",
]


def _close(lhs: float, rhs: float, tol: float) -> bool:
    return abs(lhs - rhs) <= tol * (1.0 + abs(lhs) + abs(rhs))


@dataclass(frozen=True)
class ReactionVectorClasses:
    """Reactions grouped by displacement vector, with xi and -xi merged.

    The representative xi has its first nonzero entry positive; ``forward``
    holds indices of reactions with vector +xi, ``backward`` those with -xi.
    """

    classes: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]


def _canonical_xi(vec) -> tuple[tuple[int, ...], int]:
    xi = tuple(int(v) for v in vec)
    first = next(v for v in xi if v != 0)
    if first < 0:
        return tuple(-v for v in xi), -1
    return xi, +1


def reaction_vector_classes(net) -> ReactionVectorClasses:
    classes: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    for k in range(net.r):
        xi, sign = _canonical_xi(net.reaction_vectors[k])
        fwd, bwd = classes.setdefault(xi, ([], []))
        (fwd if sign > 0 else bwd).append(k)
    return ReactionVectorClasses(
        {xi: (tuple(f), tuple(b)) for xi, (f, b) in sorted(classes.items())}
    )


@dataclass(frozen=True)
class StateBalanceReport:
    """Verdicts for one state against the four balance conditions."""

    rb: Verdict
    cb: Verdict
    rvb: Verdict
    cyb: Verdict
    equilibrium: Verdict
    drift_norm: float

    def __post_init__(self):
        if self.rb.holds and not (self.cb.holds and self.rvb.holds and self.cyb.holds):
            raise BalanceConsistencyError(
                "reaction balance held but a weaker condition failed; "
                "this contradicts the balance hierarchy"
            )


def drift(sys: MassActionSystem, c) -> np.ndarray:
    """Right-hand side of the mass-action ODE at ``c``."""
    rates = det_rates(sys, c)
    return sys.network.reaction_vectors.T.astype(float) @ rates


def _equilibrium(net, c, rates, tol: float) -> tuple[Verdict, float]:
    """Equilibrium verdict and drift sup-norm at ``c`` from its rates."""
    norm = float(np.max(np.abs(net.reaction_vectors.T.astype(float) @ rates))) if net.r else 0.0
    bound = tol * (1.0 + (float(rates.max()) if rates.size else 0.0))
    if norm <= bound:
        return Verdict.ok(), norm
    return Verdict.fail(c, "equilibrium", norm, 0.0), norm


def is_equilibrium(sys: MassActionSystem, c, tol: float = 1e-9) -> Verdict:
    """Holds iff the drift is zero up to ``tol * (1 + max rate)``."""
    c = det_state(c, sys.network.n)
    return _equilibrium(sys.network, c, det_rates(sys, c), tol)[0]


def _reaction_pairs(net) -> list[tuple[int, int]]:
    """Unordered complex pairs connected by at least one reaction."""
    pairs = {tuple(sorted((r.source, r.target))) for r in net.reactions}
    return sorted(pairs)


def _log_product_mismatch(fwd, bwd, tol, factor_scale):
    """Compare two products of factors in log space; None if they agree,
    else the pair of products (lhs, rhs).

    Zero factors are handled exactly.  A product whose every factor sits at
    the negligible level that the additive term of the scalar tolerance
    already forgives (roughly ``2 * tol * factor_scale`` per factor) is
    treated as zero, so the cycle verdict stays consistent with the pairwise
    verdicts near rate-free states.
    """
    j = len(fwd)
    floor = j * math.log(max(2.0 * tol * factor_scale, 5e-324))

    def log_or_none(factors):
        if any(f == 0.0 for f in factors):
            return None
        return math.fsum(math.log(f) for f in factors)

    def as_float(lp):
        return 0.0 if lp is None else math.exp(max(min(lp, 700.0), -700.0))

    lf, lb = log_or_none(fwd), log_or_none(bwd)
    top = max((v for v in (lf, lb) if v is not None), default=None)
    if top is None or top <= floor:
        return None
    if lf is not None and lb is not None and abs(lf - lb) <= tol * (1.0 + abs(lf) + abs(lb)):
        return None
    return as_float(lf), as_float(lb)


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
    for xi, (fwd, bwd) in reaction_vector_classes(net).classes.items():
        lhs = sum(float(rates[k]) for k in fwd)
        rhs = sum(float(rates[k]) for k in bwd)
        if not _close(lhs, rhs, tol):
            rvb = Verdict.fail(state, f"rvb:{xi}", lhs, rhs)
            break

    cyb = Verdict.ok()
    for cycle in cycles_of(net):
        fwd = [rate_of(a, b) for a, b in cycle.edges()]
        bwd = [rate_of(b, a) for a, b in cycle.edges()]
        bad = _log_product_mismatch(fwd, bwd, tol, 1.0)
        if bad is not None:
            cyb = Verdict.fail(state, f"cyb:{cycle.complexes}", *bad)
            break

    return StateBalanceReport(rb, cb, rvb, cyb, *_equilibrium(net, c, rates, tol))


def system_cycle_balanced(sys: MassActionSystem, log_tol: float = 1e-9) -> bool:
    """Whether every positive state is cycle balanced.

    For mass action this is a property of the rate constants alone: around
    every directed simple cycle the forward and backward constant products
    must agree (and every reversed edge must exist).
    """
    net = sys.network
    for cycle in cycles_of(net):
        log_fwd = 0.0
        log_bwd = 0.0
        for a, b in cycle.edges():
            log_fwd += math.log(sys.rate_constant(a, b))
            back = sys.rate_constant(b, a)
            if back == 0.0:
                return False
            log_bwd += math.log(back)
        if abs(log_fwd - log_bwd) > log_tol:
            return False
    return True


def solve_reaction_balanced(
    sys: MassActionSystem,
    tol: float = 1e-9,
) -> np.ndarray | None:
    """Positive reaction balanced state, or None if none exists.

    Requires a reversible network (raises :class:`NotReversibleError`
    otherwise).  Solves the log-linear system
    ``(target - source) . log c = log(kappa_fwd / kappa_bwd)`` over all
    reversible pairs in least squares and accepts only a consistent solution.
    """
    net = sys.network
    if not is_reversible(net):
        raise NotReversibleError("reaction balance needs a reversible network")
    rows, rhs = [], []
    for k, rxn in enumerate(net.reactions):
        if rxn.source > rxn.target:
            continue
        back = net.edge_index[(rxn.target, rxn.source)]
        rows.append(net.reaction_vectors[k].astype(float))
        rhs.append(math.log(sys.kappa[k] / sys.kappa[back]))
    if not rows:
        c = np.ones(net.n)
        return c
    A = np.array(rows)
    b = np.array(rhs)
    u, *_ = np.linalg.lstsq(A, b, rcond=None)
    if float(np.max(np.abs(A @ u - b))) > tol:
        return None
    c = np.exp(u)
    if not classify_state(sys, c, tol).rb.holds:
        return None
    return c


def _class_kernel(sys: MassActionSystem, members: tuple[int, ...]) -> np.ndarray:
    """Positive kernel vector of the rate-constant Laplacian of one class."""
    size = len(members)
    pos = {i: a for a, i in enumerate(members)}
    L = np.zeros((size, size))
    for rxn, k in zip(sys.network.reactions, sys.kappa):
        if rxn.source in pos:
            L[pos[rxn.target], pos[rxn.source]] += k
            L[pos[rxn.source], pos[rxn.source]] -= k
    _, s, vt = np.linalg.svd(L)
    smax = s[0] if size else 0.0
    null_dim = int(np.sum(s <= 1e-10 * max(smax, 1e-300)))
    if null_dim != 1:
        raise NumericalRankFailureError(
            f"Laplacian kernel of a linkage class has dimension {null_dim}, expected 1"
        )
    v = vt[-1]
    if v.sum() < 0:
        v = -v
    v = v / np.max(np.abs(v))
    if np.min(v) <= 1e-12:
        raise NumericalRankFailureError("Laplacian kernel vector is not strictly positive")
    return v


def solve_complex_balanced(
    sys: MassActionSystem,
    residual_tol: float = 1e-7,
    tol: float = 1e-9,
) -> np.ndarray | None:
    """Positive complex balanced state, or None if none exists.

    Requires weak reversibility (raises :class:`NotWeaklyReversibleError`
    otherwise).  Per linkage class the kernel of the rate-constant Laplacian
    gives the complex weights the monomials must attain; the remaining
    log-linear system in (log c, one offset per class) is solved in least
    squares and accepted only if consistent.
    """
    net = sys.network
    if not is_weakly_reversible(net):
        raise NotWeaklyReversibleError("complex balance needs a weakly reversible network")
    if net.is_empty:
        return np.ones(0)
    partition = linkage_classes(net)
    log_kernel = np.zeros(net.m)
    for members in partition.classes:
        v = _class_kernel(sys, members)
        for local, i in enumerate(members):
            log_kernel[i] = math.log(v[local])
    ell = len(partition)
    A = np.zeros((net.m, net.n + ell))
    b = np.zeros(net.m)
    for cls_id, members in enumerate(partition.classes):
        for i in members:
            A[i, : net.n] = net.complexes[i].coeffs
            A[i, net.n + cls_id] = -1.0
            b[i] = log_kernel[i]
    u, *_ = np.linalg.lstsq(A, b, rcond=None)
    if float(np.max(np.abs(A @ u - b))) > residual_tol:
        return None
    c = np.exp(u[: net.n])
    if not classify_state(sys, c, tol).cb.holds:
        return None
    return c


def solve_rvb(
    sys: MassActionSystem,
    lo: float = 1e-2,
    hi: float = 1e2,
    starts: int = 32,
    max_iter: int = 100,
    tol: float = 1e-10,
    dedup_tol: float = 1e-6,
    seed: int = 0,
) -> list[np.ndarray]:
    """Positive reaction vector balanced states found by multi-start Newton.

    The search is heuristic (the condition admits several isolated solutions
    or whole manifolds of them), so the returned list is deduplicated and
    verified but not guaranteed exhaustive.  Starts are stratified
    log-uniform samples of the search box ``[lo, hi]**n`` from a fixed-seed
    generator, so results are reproducible; solutions are only accepted
    inside the box, which keeps rate magnitudes well above the tolerance
    floor and excludes the near-boundary region where every equation is
    trivially sub-tolerance.
    """
    net = sys.network
    classes = reaction_vector_classes(net).classes
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
        # Work with class imbalances normalized by the total rate: the raw
        # residual vanishes trivially as c -> 0, which would pull every
        # Newton run into the origin; the normalized one is scale-free.
        with np.errstate(over="ignore", invalid="ignore"):
            rates = kappa * np.exp(Y @ u)
            total = float(rates.sum())
            p = rates / total
            G = signs @ p
            J = signs @ (p[:, None] * Y) - np.outer(G, p @ Y)
        return G, J

    rng = np.random.default_rng(seed)
    span = math.log(hi) - math.log(lo)
    u0s = np.empty((starts, net.n))
    for j in range(net.n):
        strata = rng.permutation(starts)
        u0s[:, j] = math.log(lo) + (strata + rng.random(starts)) / starts * span

    found: list[np.ndarray] = []
    for u in u0s:
        u = u.copy()
        for _ in range(max_iter):
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
        if not (np.all(np.isfinite(F)) and float(np.max(np.abs(F))) <= tol):
            continue
        c = np.exp(u)
        if np.any(c < lo) or np.any(c > hi):
            continue
        if classify_state(sys, c).rvb.holds:
            found.append(c)

    found.sort(key=lambda c: tuple(c))
    kept: list[np.ndarray] = []
    for c in found:
        if all(float(np.linalg.norm(c - other)) > dedup_tol for other in kept):
            kept.append(c)
    return kept


# LSODA error tolerances of ``integrate``: per step and per coordinate,
# relative to the coordinate and absolute.
_RTOL = 1e-10
_ATOL = 1e-12
# LSODA steps allowed between two output times (odeint's default is 500), so
# that a coarse output grid does not end a long solve that a fine one
# finishes; a finite-time blow-up still stops within a few thousand steps.
_MXSTEP = 100_000


def integrate(
    sys: MassActionSystem,
    c0,
    t_end: float,
    dt: float = 1e-3,
) -> list[tuple[float, np.ndarray]]:
    """Integrate the rate equations from ``c0`` over ``[0, t_end]``.

    One adaptive LSODA solve (``scipy.integrate.odeint``, which switches
    between Adams and BDF steps by itself) with relative tolerance
    ``_RTOL`` and absolute tolerance ``_ATOL``.  ``dt`` is the output
    spacing, not a step size: the result holds ``(t, c)`` at
    ``t = 0, dt, 2dt, ...`` and a last, shorter interval ending at
    ``t_end``, while the solver chooses its own steps.

    Monomials are evaluated at ``max(c, 0)`` and returned states are
    clamped at 0, so a decaying species that the solver undershoots below
    zero keeps flowing instead of freezing, and no returned coordinate is
    negative.  A start with a negative coordinate has zero drift (see
    ``det_rates``) and is returned unchanged at every time.  Raises
    ``NonFiniteStateError`` when the solver cannot continue, as when the
    solution blows up in finite time.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    net = sys.network
    c = det_state(c0, net.n)
    # output grid: dt added up in sequence while more than eps is left, and
    # one shorter last step to t_end when less than dt is left
    eps = 1e-12 * max(1.0, t_end)
    cum = np.concatenate(([0.0], np.cumsum(np.full(int(t_end / dt) + 2, dt))))
    last = int(np.argmax((cum >= t_end - eps) | (t_end - cum < dt)))
    times = cum[: last + 1].tolist()
    if times[-1] < t_end - eps:
        times.append(times[-1] + (t_end - times[-1]))
    if len(times) == 1 or net.r == 0 or np.any(c < 0):
        return [(t, c.copy()) for t in times]
    # imported here: scipy.integrate adds about 0.3 s to a fresh interpreter
    from scipy.integrate import ODEintWarning, odeint

    Y = net.source_matrix
    RV = net.reaction_vectors.T.astype(float)
    kappa = np.asarray(sys.kappa)

    def field(z, _t):
        # det_rates' rate law at max(z, 0), inlined for the solver's calls
        return RV @ (kappa * np.prod(np.maximum(z, 0.0)[None, :] ** Y, axis=1))

    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", ODEintWarning)
        sol, info = odeint(field, c, times, rtol=_RTOL, atol=_ATOL, mxstep=_MXSTEP,
                           full_output=True)
    if info["message"] != "Integration successful.":
        # odeint's tcur passes each output time until the solver stops short of one
        short = np.flatnonzero(info["tcur"] < times[1:])
        reached = float(info["tcur"][short[0]]) if short.size else t_end
        raise NonFiniteStateError(f"trajectory diverged at t={reached}: {info['message']}")
    finite = np.isfinite(sol).all(axis=1)
    if not finite.all():
        raise NonFiniteStateError(f"trajectory diverged at t={times[np.argmin(finite)]}")
    sol = np.maximum(sol, 0.0)
    return list(zip(times, sol))


def same_compatibility_class(net, c1, c2, tol: float = 1e-9) -> bool:
    """Whether c1 - c2 is orthogonal to every conserved quantity."""
    c1 = det_state(c1, net.n)
    c2 = det_state(c2, net.n)
    W = conserved_matrix(net)
    if W.size == 0:
        return True
    return bool(np.max(np.abs(W @ (c1 - c2))) <= tol)
