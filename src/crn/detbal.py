"""Deterministic mass-action analysis: state classification and solvers.

A state is classified against four balance conditions:

* reaction balance: each opposing reaction pair has equal rate;
* complex balance: at each complex, total inflow equals total outflow;
* reaction vector balance: for each displacement class, the total rate of
  reactions with vector +xi equals the total rate of those with -xi;
* cycle balance: around every directed simple cycle of >= 3 distinct
  complexes, the forward and backward rate products agree.

Each condition is a family of flux equations, listed once in
``_balance_equations`` and, on the cycle basis of the complexes with
outgoing flux, ``_cycle_equations``: ``classify_state`` evaluates them with
the rates at ``c``, and ``crn.stoch.classify_measure`` with a measure's
weighted propensities at every state.  Each scalar equation passes iff
``_close`` holds, ``|lhs - rhs| <= tol * (scale + |lhs| + |rhs|)`` with
scale 1 here; cycle products are compared in log space by the same rule on
the log-sums, with zero factors short-circuited exactly.  A state at which
some rate is not finite raises ``NonFiniteStateError`` instead of getting a
verdict, in ``classify_state``, ``is_equilibrium`` and the solvers that
check their answer with ``classify_state``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BalanceConsistencyError,
    NonFiniteStateError,
    NotReversibleError,
    NotWeaklyReversibleError,
    NumericalRankFailureError,
)
from .graph import cycles_of, is_reversible, is_weakly_reversible, linkage_classes
from .kinetics import _monomials, det_rates
from .model import (
    MassActionSystem,
    Verdict,
    _in_order_sum,
    conserved_matrix,
    det_state,
)

__all__ = [
    "StateBalanceReport",
    "reaction_vector_classes",
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


def _close(lhs, rhs, tol: float, scale: float = 1.0):
    """The one comparison rule of a balance equation: whether
    ``|lhs - rhs| <= tol * (scale + |lhs| + |rhs|)``, on floats or arrays."""
    return abs(lhs - rhs) <= tol * (scale + abs(lhs) + abs(rhs))


def _canonical_xi(vec) -> tuple[tuple[int, ...], int]:
    xi = tuple(int(v) for v in vec)
    first = next(v for v in xi if v != 0)
    if first < 0:
        return tuple(-v for v in xi), -1
    return xi, +1


def reaction_vector_classes(
    net,
) -> dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]:
    """Reactions grouped by displacement vector, with xi and -xi merged.

    Maps each representative xi, whose first nonzero entry is positive and
    in sorted order, to (indices of reactions with vector +xi, those with
    -xi).
    """
    classes: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    for k in range(net.r):
        xi, sign = _canonical_xi(net.reaction_vectors[k])
        fwd, bwd = classes.setdefault(xi, ([], []))
        (fwd if sign > 0 else bwd).append(k)
    return {xi: (tuple(f), tuple(b)) for xi, (f, b) in sorted(classes.items())}


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


def _finite_rates(sys: MassActionSystem, c) -> np.ndarray:
    """The rates at ``c``; raises ``NonFiniteStateError`` if one overflows,
    since no balance or equilibrium verdict can be read from it."""
    rates = det_rates(sys, c)
    if not np.isfinite(rates).all():
        raise NonFiniteStateError(f"a reaction rate at state {c.tolist()} is not finite")
    return rates


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
    return _equilibrium(sys.network, c, _finite_rates(sys, c), tol)[0]


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
    if lf is not None and lb is not None and _close(lf, lb, tol):
        return None
    return as_float(lf), as_float(lb)


def _frozen(values, n: int) -> np.ndarray:
    v = np.array(values, dtype=np.int64).reshape(n)
    v.flags.writeable = False  # shared by every caller of the cached tables
    return v


@lru_cache(maxsize=512)
def _balance_equations(net) -> tuple[tuple[str, str, tuple, tuple], ...]:
    """Every rb, cb and rvb equation of ``net`` once, in witness order.

    An equation is ``(condition, label, lhs, rhs)`` and a side is a tuple of
    flux groups ``(shift, reactions)``, the shift a read-only integer
    vector.  At a state ``c`` a group's flux is
    the in-order sum of its reactions' rates; for a measure ``mu`` at ``x``
    it is ``mu(x + shift)`` times the in-order sum of their propensities at
    ``x + shift``.  A side is the in-order sum of its groups' fluxes.  An
    absent reaction (the reverse of an irreversible one) is an empty group,
    and a complex in no reaction has no cb equation.
    """
    coeffs = [_frozen(cx.coeffs, net.n) for cx in net.complexes]
    zero = _frozen((0,) * net.n, net.n)

    def name(i):
        return net.complexes[i].format(net.species)

    def shift(i, j):
        return _frozen(coeffs[j] - coeffs[i], net.n)

    def edge(i, j):
        k = net.edge_index.get((i, j))
        return () if k is None else (k,)

    equations = []
    for i, j in sorted({tuple(sorted((r.source, r.target))) for r in net.reactions}):
        lhs, rhs = ((zero, edge(i, j)),), ((shift(i, j), edge(j, i)),)
        equations.append(("rb", f"rb:{name(i)}<->{name(j)}", lhs, rhs))
    for i in range(net.m):
        outgoing = tuple(k for k, r in enumerate(net.reactions) if r.source == i)
        incoming = tuple(
            (shift(i, r.source), (k,)) for k, r in enumerate(net.reactions) if r.target == i
        )
        if outgoing or incoming:
            equations.append(("cb", f"cb:{name(i)}", ((zero, outgoing),), incoming))
    for xi, (fwd, bwd) in reaction_vector_classes(net).items():
        equations.append(("rvb", f"rvb:{xi}", ((zero, fwd),), ((_frozen(xi, net.n), bwd),)))
    return tuple(equations)


@lru_cache(maxsize=1024)
def _cycle_equations(net, dropped: frozenset[int]) -> dict:
    """The cyb equation of each cycle of ``cycles_of(net, dropped)``, in
    basis order and ``_balance_equations`` form: a side is the product of
    one flux group per edge, read at the complex the edge leaves."""
    coeffs = [_frozen(cx.coeffs, net.n) for cx in net.complexes]

    def group(i, j):
        k = net.edge_index.get((i, j))
        return coeffs[i], () if k is None else (k,)

    equations = {}
    for cycle in cycles_of(net, dropped):
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        lhs, rhs = tuple(group(i, j) for i, j in edges), tuple(group(j, i) for i, j in edges)
        equations[cycle] = ("cyb", f"cyb:{cycle}", lhs, rhs)
    return equations


def classify_state(sys: MassActionSystem, c, tol: float = 1e-9) -> StateBalanceReport:
    """Evaluate the four balance conditions at ``c``.

    Cycle balance is read on the basis of the graph without the complexes
    whose rates all vanish at ``c``.  Each condition's witness is its first
    failing equation, in ``_balance_equations`` order and then by cycle.
    """
    net = sys.network
    c = det_state(c, net.n)
    rates = _finite_rates(sys, c)
    flux = rates.tolist()
    state = tuple(float(v) for v in c)
    idle = frozenset(range(net.m)) - {r.source for r, f in zip(net.reactions, flux) if f > 0}
    verdicts = dict.fromkeys(("rb", "cb", "rvb", "cyb"), Verdict.ok())
    equations = (*_balance_equations(net), *_cycle_equations(net, idle).values())
    for condition, label, lhs, rhs in equations:
        if verdicts[condition].fails:
            continue
        bad = _mismatch(condition, lhs, rhs, flux, tol)
        if bad is not None:
            verdicts[condition] = Verdict.fail(state, label, *bad)
    return StateBalanceReport(*verdicts.values(), *_equilibrium(net, c, rates, tol))


def _mismatch(condition, lhs, rhs, flux, tol):
    """None if one equation of ``_balance_equations`` holds at the rates
    ``flux`` (a list), else the pair of its sides (lhs, rhs)."""
    fwd = [_in_order_sum(flux[k] for k in ks) for _, ks in lhs]
    bwd = [_in_order_sum(flux[k] for k in ks) for _, ks in rhs]
    if condition == "cyb":
        return _log_product_mismatch(fwd, bwd, tol, 1.0)
    fwd, bwd = _in_order_sum(fwd), _in_order_sum(bwd)
    return None if _close(fwd, bwd, tol) else (fwd, bwd)


def system_cycle_balanced(sys: MassActionSystem, tol: float = 1e-9) -> bool:
    """Whether every positive state is cycle balanced.

    For mass action this is a property of the rate constants alone: around
    every directed simple cycle the forward and backward constant products
    must agree (and every reversed edge must exist).  It is read on the
    cycle basis, whose cycle of length j may differ by j * ``tol`` in log
    space, so that reaction balance within ``tol`` implies it.
    """
    for cycle in cycles_of(sys.network):
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        if any(sys.rate_constant(b, a) == 0.0 for a, b in edges):
            return False
        logs = (math.log(sys.rate_constant(a, b)) - math.log(sys.rate_constant(b, a))
                for a, b in edges)
        if abs(math.fsum(logs)) > len(cycle) * tol:
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
        return np.ones(net.n)
    return _log_linear_state(sys, np.array(rows), np.array(rhs), tol, "rb", tol)


def _log_linear_state(sys: MassActionSystem, A, b, bound: float, condition: str, tol: float):
    """``exp`` of the first n coordinates of the least-squares ``A u = b``, or
    None past the residual ``bound`` or if ``condition`` fails there; raises
    ``NonFiniteStateError`` where ``exp`` overflows and no verdict exists."""
    u, *_ = np.linalg.lstsq(A, b, rcond=None)
    if float(np.max(np.abs(A @ u - b))) > bound:
        return None
    with np.errstate(over="ignore"):
        c = np.exp(u[: sys.network.n])
    if not np.isfinite(c).all():
        raise NonFiniteStateError(f"{condition} state exp({u[: len(c)].tolist()}) is not finite")
    return c if getattr(classify_state(sys, c, tol), condition).holds else None


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


def solve_complex_balanced(sys: MassActionSystem, tol: float = 1e-9) -> np.ndarray | None:
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
    for members in partition:
        v = _class_kernel(sys, members)
        for local, i in enumerate(members):
            log_kernel[i] = math.log(v[local])
    ell = len(partition)
    A = np.zeros((net.m, net.n + ell))
    b = np.zeros(net.m)
    for cls_id, members in enumerate(partition):
        for i in members:
            A[i, : net.n] = net.complexes[i].coeffs
            A[i, net.n + cls_id] = -1.0
            b[i] = log_kernel[i]
    return _log_linear_state(sys, A, b, 1e-7, "cb", tol)


def solve_rvb(sys: MassActionSystem, starts: int = 32) -> list[np.ndarray]:
    """Positive reaction vector balanced states found by multi-start Newton.

    The search is heuristic (the condition admits several isolated solutions
    or whole manifolds of them), so the returned list is deduplicated and
    verified but not guaranteed exhaustive.  ``starts`` Newton runs start
    from stratified log-uniform samples of the search box ``[1e-2, 1e2]**n``
    drawn from a fixed-seed generator, so results are reproducible;
    solutions are only accepted inside the box, which keeps rate magnitudes
    well above the tolerance floor and excludes the near-boundary region
    where every equation is trivially sub-tolerance.  A solution must bring
    every raw class imbalance to 1e-10 and pass ``classify_state``'s rvb
    check; solutions closer than 1e-6 to a kept one are dropped.

    The starts advance together as arrays: each round evaluates every live
    start, takes one least-squares step per start and tries all backtracking
    lengths of every start at once.  Each start takes the first length that
    improves, so the result equals that of running the starts one after the
    other, bit for bit.  Raises ``ValueError`` for negative ``starts`` and for
    more than 2**16 of them.
    """
    if starts < 0:
        raise ValueError(f"rvb starts must be nonnegative, got {starts}")
    # Each round holds 20 backtracking trial points per live start, so memory
    # grows with ``starts``: 10**15 starts ask for petabytes.  The bound lies
    # far above any count that still finds more roots.
    if starts > 2**16:
        raise ValueError(f"rvb starts must be at most 2**16 = 65536, got {starts}")
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

    # A @ x and G @ G for every row of a stack.  numpy's matmul runs each
    # row as its own BLAS call of the same shape as the lone product, so the
    # bits match those of one start at a time (tests/test_solve_rvb.py).
    def stacked(A, X):
        return np.matmul(A, X[..., None])[..., 0]

    def squared_norms(G):
        return np.matmul(G[..., None, :], G[..., :, None])[..., 0, 0]

    def rates_at(U):
        with np.errstate(over="ignore", invalid="ignore"):
            return kappa * np.exp(stacked(Y, U))

    def scaled_residual(U):
        # Work with class imbalances normalized by the total rate: the raw
        # residual vanishes trivially as c -> 0, which would pull every
        # Newton run into the origin; the normalized one is scale-free.
        # Returns the imbalances G and the rate shares p.
        with np.errstate(over="ignore", invalid="ignore"):
            rates = rates_at(U)
            p = rates / rates.sum(axis=-1, keepdims=True)
            return stacked(signs, p), p

    def jacobian(G, p):
        with np.errstate(over="ignore", invalid="ignore"):
            pY = np.matmul(p[..., None, :], Y)  # p @ Y per row
            return np.matmul(signs, p[..., None] * Y) - G[..., None] * pY

    def finite_rows(G):
        return np.isfinite(G).all(axis=-1)

    lo, hi = 1e-2, 1e2  # the search box
    rng = np.random.default_rng(0)
    span = math.log(hi) - math.log(lo)
    U = np.empty((starts, net.n))
    for j in range(net.n):
        strata = rng.permutation(starts)
        U[:, j] = math.log(lo) + (strata + rng.random(starts)) / starts * span

    # Backtracking lengths 1, 1/2, ..., 2**-19: every halving above 1e-6.
    alphas = np.ldexp(1.0, -np.arange(20))[:, None]
    live = np.arange(starts)  # starts still iterating, in start order
    for _ in range(100):
        G, p = scaled_residual(U[live])
        go = finite_rows(G)
        go[go] = np.abs(G[go]).max(axis=-1) > 1e-15
        live, G, p = live[go], G[go], p[go]
        if not live.size:
            break
        J = jacobian(G, p)
        steps = np.array([np.linalg.lstsq(Jk, -Gk, rcond=None)[0] for Jk, Gk in zip(J, G)])
        trials = U[live][:, None, :] + alphas * steps[:, None, :]
        Gt, _ = scaled_residual(trials)
        with np.errstate(over="ignore", invalid="ignore"):
            better = finite_rows(Gt) & (squared_norms(Gt) < squared_norms(G)[:, None])
        moved = better.any(axis=1)
        U[live[moved]] = trials[moved, better[moved].argmax(axis=1)]
        live = live[moved]

    with np.errstate(over="ignore", invalid="ignore"):
        F = stacked(signs, rates_at(U))
    small = finite_rows(F)
    small[small] = np.abs(F[small]).max(axis=-1) <= 1e-10
    C = np.exp(U[small])
    C = C[((C >= lo) & (C <= hi)).all(axis=1)]
    # the rvb rows of classify_state, at the same rates and tolerance
    rvb = [eq for eq in _balance_equations(net) if eq[0] == "rvb"]
    found = [c for c, flux in zip(C, det_rates(sys, C).tolist())
             if all(_mismatch(cond, lhs, rhs, flux, 1e-9) is None for cond, _, lhs, rhs in rvb)]

    found.sort(key=lambda c: tuple(c))
    kept = np.empty((0, net.n))
    for c in found:
        # the distances to every kept state, each rounded as np.linalg.norm
        # rounds it: sqrt of the dot product
        if np.all(np.sqrt(squared_norms(c - kept)) > 1e-6):
            kept = np.vstack([kept, c])
    return list(kept)


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

    RV = net.reaction_vectors.T.astype(float)
    kappa = np.asarray(sys.kappa)

    def field(z, _t):
        # det_rates' product at max(z, 0), without its checks and edge rules
        return RV @ (kappa * _monomials(net, np.maximum(z, 0.0)))

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
