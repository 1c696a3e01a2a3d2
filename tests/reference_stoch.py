"""Per-state reference implementation of the stochastic layer.

A test-only copy of the state-by-state algorithms that ``crn.stoch`` used
before it moved to an indexed state space: scalar Python-int propensities,
two breadth-first searches for the communicating class, unbanded dense GTH
elimination assembled from per-state transition lists in the order the
component lists its states, and measure classification one equation
instance at a time.  The differential tests hold the indexed
implementation to these results: exactly, except for stationary weights
and the witness values computed from them, which agree to a componentwise
relative tolerance.  Cycle balance follows the library's rule, state by
state: the basis ``graph.cycles_of`` of the graph without the complexes of
zero flux or untrusted state at ``x``.

The compatibility-class lattice keeps the enumeration that pruned its
partial assignments pivot by pivot, with its own interval tightening, and
the band of the stationary solve keeps its assembly one reaction-vector
group at a time; the library's single filter and per-reaction scatter must
give the same arrays, bit for bit.

The product-form measure ``poisson_product`` is kept as a loop over the
states; the library's array evaluation must give the same weights, bit for
bit.

It also keeps the direct-method SSA as a generator of jumps with a linear
scan for the reaction, and an occupancy summed over that generator; the
SSA tests require the fused jump loop of ``crn.ssa`` to give the same paths
and the same occupancy weights, bit for bit.  Its randomness is drawn in
the library's block layout, whose size it reads from ``crn.ssa``: per
block, that many standard exponentials and then as many uniforms.
"""

from __future__ import annotations

import math
from operator import add

import numpy as np

import crn.ssa
import crn.stoch
from crn.detbal import _log_product_mismatch, reaction_vector_classes
from crn.errors import (
    BoxTooSmallError,
    EmptySupportError,
    NotClosedError,
    PathExplosionError,
    SolveFailureError,
)
from crn.graph import cycles_of
from crn.kinetics import propensities
from crn.model import (
    MassActionSystem,
    Measure,
    Verdict,
    _in_order_sum,
    discrete_state,
    stoichiometric_basis,
)
from crn.ssa import DEFAULT_JUMP_CAP, SsaConfig
from crn.stoch import Box, ComponentResult, MeasureBalanceReport, _margin


class _ConditionTally:
    """Accumulates pass/fail/skip for one balance condition."""

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.skipped = 0
        self.witness: Verdict | None = None

    def verdict(self, structurally_empty: bool) -> Verdict:
        if self.witness is not None:
            return self.witness
        if structurally_empty:
            return Verdict.ok()
        if self.checked == 0 and self.skipped > 0:
            return Verdict.undetermined()
        return Verdict.ok()


def falling_factorial(x: int, y: int) -> int:
    """x * (x-1) * ... * (x-y+1), with the empty product equal to 1."""
    out = 1
    for j in range(y):
        out *= x - j
    return out


def propensity(sys: MassActionSystem, x) -> np.ndarray:
    """Stochastic mass-action propensities at count vector ``x``.

    Returns an array aligned with ``sys.network.reactions``; a reaction with
    ``x`` not componentwise >= its source complex has propensity zero.
    """
    net = sys.network
    x = tuple(int(v) for v in x)
    if len(x) != net.n:
        raise ValueError(f"state has length {len(x)}, expected {net.n}")
    rates = np.zeros(net.r)
    for k in range(net.r):
        y = net.source_matrix[k]
        prod = 1
        for xi, yi in zip(x, y):
            if xi < yi:
                prod = 0
                break
            if yi:
                prod *= falling_factorial(xi, int(yi))
        if prod:
            rates[k] = sys.kappa[k] * prod
    return rates


def transitions(sys: MassActionSystem, x) -> list[tuple[tuple[int, ...], float]]:
    """(target, rate) for every reaction active at ``x``, in reaction order.

    Rates of reactions with the same target are kept separate.
    """
    x = discrete_state(x, sys.network.n)
    rates = propensity(sys, x)
    out = []
    for k in range(sys.network.r):
        if rates[k] > 0:
            vec = sys.network.reaction_vectors[k]
            target = tuple(int(v) + int(d) for v, d in zip(x, vec))
            out.append((target, float(rates[k])))
    return out


def communicating_class(sys: MassActionSystem, seed, box: Box) -> ComponentResult:
    """Strongly connected component of ``seed`` in the transition graph on the box."""
    net = sys.network
    seed = discrete_state(seed, net.n)
    if box.n != net.n:
        raise ValueError("box dimension does not match the species count")
    if not box.contains(seed):
        raise ValueError(f"seed {seed} lies outside the box")

    seed_moves = transitions(sys, seed)
    if seed_moves and all(not box.contains(t) for t, _ in seed_moves):
        raise BoxTooSmallError(
            f"every transition out of the seed {seed} exits the box"
        )

    # Forward reachability within the box.
    forward = {seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for target, _ in transitions(sys, x):
            if box.contains(target) and target not in forward:
                forward.add(target)
                frontier.append(target)

    # Backward reachability within the box: x' precedes x when some reaction
    # is active at x' and lands on x.
    vecs = [tuple(int(v) for v in net.reaction_vectors[k]) for k in range(net.r)]
    backward = {seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for k, vec in enumerate(vecs):
            pre = tuple(a - d for a, d in zip(x, vec))
            if pre in backward or not box.contains(pre):
                continue
            if propensity(sys, pre)[k] > 0:
                backward.add(pre)
                frontier.append(pre)

    scc = forward & backward
    states = tuple(sorted(scc))

    closed = True
    truncated = False
    internal_leak = False
    exit_faces: set[tuple[int, int]] = set()
    for x in states:
        for target, _ in transitions(sys, x):
            if target in scc:
                continue
            closed = False
            if box.contains(target):
                internal_leak = True
                continue
            truncated = True
            for axis in range(net.n):
                if target[axis] < box.lower[axis]:
                    exit_faces.add((axis, -1))
                elif target[axis] > box.upper[axis]:
                    exit_faces.add((axis, +1))
    return ComponentResult.from_states(
        sys,
        states,
        closed=closed,
        truncated=truncated,
        seed=seed,
        box=box,
        exit_faces=frozenset(exit_faces),
        internal_leak=internal_leak,
    )


def _spread(terms, t_lo, t_hi) -> tuple[int, int]:
    """Least and greatest ``sum k * t[b]`` over ``(b, k)`` in ``terms``."""
    return (
        sum(min(k * t_lo[b], k * t_hi[b]) for b, k in terms),
        sum(max(k * t_lo[b], k * t_hi[b]) for b, k in terms),
    )


def lattice_ranges(net, seed, box: Box):
    """The echelon coefficients ``coef``, their scale, the scaled box bounds
    ``lo`` and ``hi`` and the tightened pivot ranges ``t_lo`` and ``t_hi`` of
    ``class_lattice``."""
    basis, _ = stoichiometric_basis(net)
    pivots = [int(np.flatnonzero(b)[0]) for b in basis]
    scale = math.lcm(*(int(b[p]) for b, p in zip(basis, pivots)))
    coef = [[int(v) * (scale // int(b[p])) for v in b] for b, p in zip(basis, pivots)]
    # Bounds on scale * (x - seed) = sum_a t_a * coef[a].
    lo = [scale * (v - s) for v, s in zip(box.lower, seed)]
    hi = [scale * (v - s) for v, s in zip(box.upper, seed)]
    t_lo = [box.lower[p] - seed[p] for p in pivots]
    t_hi = [box.upper[p] - seed[p] for p in pivots]
    for _ in range(64):
        changed = False
        for j in range(len(lo)):
            terms = [(a, c[j]) for a, c in enumerate(coef) if c[j]]
            for a, k in terms:
                rest_lo, rest_hi = _spread([tb for tb in terms if tb[0] != a], t_lo, t_hi)
                low, high = lo[j] - rest_hi, hi[j] - rest_lo
                if k < 0:
                    low, high, k = -high, -low, -k
                new = (max(t_lo[a], -(-low // k)), min(t_hi[a], high // k))
                if new != (t_lo[a], t_hi[a]):
                    t_lo[a], t_hi[a] = new
                    changed = True
        if not changed:
            break
    return coef, scale, lo, hi, t_lo, t_hi


def class_lattice(net, seed, box: Box) -> np.ndarray | None:
    """Lattice points of ``box`` in the compatibility class of ``seed``, or
    None when the tightened pivot ranges span more than
    ``crn.stoch._LATTICE_CAP`` assignments (read at call time).

    The pivot ranges are enumerated pivot by pivot, dropping after each
    pivot the partial assignments that the remaining pivots can no longer
    bring into the box.
    """
    coef, scale, lo, hi, t_lo, t_hi = lattice_ranges(net, seed, box)
    if math.prod(h - l + 1 for l, h in zip(t_lo, t_hi)) > crn.stoch._LATTICE_CAP:
        return None
    offsets = np.zeros((1, net.n), dtype=np.int64)
    for a, c in enumerate(coef):
        values = np.arange(t_lo[a], t_hi[a] + 1, dtype=np.int64)
        offsets = (offsets[:, None, :] + values[:, None] * np.array(c)).reshape(-1, net.n)
        rest = np.array([
            _spread([(b, cb[j]) for b, cb in enumerate(coef) if b > a], t_lo, t_hi)
            for j in range(net.n)
        ]).reshape(net.n, 2)
        reachable = (offsets + rest[:, 0] <= np.array(hi)) & (offsets + rest[:, 1] >= np.array(lo))
        offsets = offsets[reachable.all(axis=1)]
    offsets = offsets[(offsets % scale == 0).all(axis=1)]
    return np.array(seed, dtype=np.int64) + offsets // scale


def component_is_active(sys: MassActionSystem, component: ComponentResult) -> bool:
    """Whether every reaction fires somewhere in the component."""
    remaining = set(range(sys.network.r))
    for x in component.states:
        rates = propensity(sys, x)
        remaining -= {k for k in tuple(remaining) if rates[k] > 0}
        if not remaining:
            return True
    return not remaining


def _kept_transitions(sys, component):
    """Per-state transitions restricted to the component (reflecting truncation)."""
    inside = set(component.states)
    kept = {}
    for x in component.states:
        kept[x] = [(t, r) for t, r in transitions(sys, x) if t in inside]
    return kept


def stationary_distribution(
    sys: MassActionSystem,
    component: ComponentResult,
    allow_truncated: bool = False,
    order=None,
) -> Measure:
    """Normalized solution of the global-balance equations on the component.

    For a truncated component (allowed only with ``allow_truncated``),
    box-exiting transitions are dropped, so the result is the stationary
    distribution of the reflected chain; interior values are exact whenever
    the chain is reaction vector balanced and approximate otherwise.  States
    are eliminated in the order of ``order``, by default ``component.states``.
    """
    if not component.closed:
        if not (allow_truncated and component.truncated and not component.internal_leak):
            raise NotClosedError(
                "component is not closed"
                + ("" if component.truncated else " and not a box truncation")
                + ("; it also leaks inside the box" if component.internal_leak else "")
            )
    states = component.states if order is None else tuple(order)
    size = len(states)
    if size == 0:
        raise EmptySupportError("component has no states")
    index = {x: i for i, x in enumerate(states)}
    kept = _kept_transitions(sys, component)

    if size == 1:
        return Measure({states[0]: 1.0}, normalized=True)

    # Subtraction-free state-reduction (GTH) elimination: every update is a
    # sum or product of nonnegative rates, so the stationary vector comes out
    # nonnegative with componentwise relative accuracy, tails included.
    R = np.zeros((size, size))
    for x, moves in kept.items():
        i = index[x]
        for target, rate in moves:
            R[i, index[target]] += rate
    for k in range(size - 1, 0, -1):
        s = float(R[k, :k].sum())
        if s <= 0.0:
            raise SolveFailureError(
                "component is not irreducible: no route from state "
                f"{states[k]} to earlier states"
            )
        R[:k, k] /= s
        R[:k, :k] += np.outer(R[:k, k], R[k, :k])
    pi = np.zeros(size)
    pi[0] = 1.0
    for k in range(1, size):
        pi[k] = float(pi[:k] @ R[:k, k])
        if pi[k] > 1e250:  # keep headroom; only ratios matter
            pi[: k + 1] *= 1e-250
    if not np.all(np.isfinite(pi)):
        raise SolveFailureError("state-reduction solve overflowed")
    total = float(pi.sum())
    if total <= 0:
        raise SolveFailureError("global-balance solution has zero total mass")
    pi /= total

    # Self-check: the solved (reflected) balance equations must be satisfied.
    worst = 0.0
    scale = 0.0
    in_flux = {x: 0.0 for x in states}
    for x, moves in kept.items():
        for target, rate in moves:
            in_flux[target] += pi[index[x]] * rate
    for x, moves in kept.items():
        lhs = pi[index[x]] * _in_order_sum(rate for _, rate in moves)
        rhs = in_flux[x]
        worst = max(worst, abs(lhs - rhs))
        scale = max(scale, lhs, rhs)
    if scale > 0 and worst > 1e-10 * scale:
        raise SolveFailureError(
            f"global-balance residual {worst:.3e} exceeds 1e-10 relative to {scale:.3e}"
        )

    return Measure(
        {x: float(pi[index[x]]) for x in states if pi[index[x]] > 0.0},
        normalized=True,
    )


def grouped_band(sys: MassActionSystem, component: ComponentResult):
    """The band ``R`` of ``crn.stoch.stationary_distribution`` before any
    elimination, with its ``lower`` and ``upper`` bandwidths, assembled
    from the component's index one reaction-vector group at a time: each
    group's kept rates are summed in reaction order and stored once."""
    all_rates, targets = component.rates, component.targets
    kept = (all_rates > 0) & (targets >= 0)

    def rate(k):
        return np.where(kept[:, k], all_rates[:, k], 0.0)

    lower = upper = 0
    for live, column in zip(kept.T, targets.T):
        reach = column[live] - np.flatnonzero(live)
        lower = max(lower, -int(reach.min(initial=0)))
        upper = max(upper, int(reach.max(initial=0)))
    width = lower + upper
    R = np.zeros(len(targets) * (width + 1) + lower)
    classes = reaction_vector_classes(sys.network).values()
    for group in (g for pair in classes for g in pair if g):
        total = _in_order_sum(rate(k) for k in group)
        (rows,) = np.nonzero(total > 0)
        R[rows * width + targets[rows, group[0]] + lower] = total[rows]
    return R, lower, upper


def poisson_product(c, states) -> Measure:
    """Product-form weights ``c**x / x!`` normalized over ``states``, one
    state at a time."""
    c = np.asarray(c, dtype=float).reshape(-1)
    if np.any(c <= 0):
        raise ValueError("poisson_product needs a strictly positive concentration vector")
    states = sorted({tuple(int(v) for v in x) for x in states})
    if not states:
        raise EmptySupportError("poisson_product needs a nonempty state set")
    logc = np.log(c)
    logs = []
    for x in states:
        if any(v < 0 for v in x):
            raise ValueError(f"state {x} has a negative coordinate")
        logs.append(
            float(_in_order_sum(v * lc - math.lgamma(v + 1) for v, lc in zip(x, logc)))
        )
    top = max(logs)
    weights = [math.exp(val - top) for val in logs]
    z = _in_order_sum(weights)
    return Measure(
        {x: w / z for x, w in zip(states, weights) if w > 0}, normalized=True
    )


class _RateCache:
    def __init__(self, sys: MassActionSystem):
        self.sys = sys
        self.cache: dict[tuple[int, ...], np.ndarray] = {}

    def __call__(self, x: tuple[int, ...]) -> np.ndarray:
        rates = self.cache.get(x)
        if rates is None:
            rates = propensity(self.sys, x)
            self.cache[x] = rates
        return rates


def classification_domain(
    sys: MassActionSystem, component: ComponentResult
) -> tuple[Box, frozenset[tuple[int, int]]]:
    """Domain and truncating faces for classifying a component's measure.

    Closed components are exactly known, so the domain is the support
    bounding box padded by twice the margin with no truncating faces.  For a
    truncated component the box is kept, but faces that provably cannot hide
    probability mass (the zero lower boundary, and axes no reaction moves)
    are padded away so only genuine truncation layers are distrusted.
    """
    net = sys.network
    pad = 2 * _margin(net) + 1
    if component.closed:
        lo = tuple(min(x[i] for x in component.states) for i in range(net.n))
        up = tuple(max(x[i] for x in component.states) for i in range(net.n))
        return Box(lo, up).expand((pad,) * net.n, (pad,) * net.n), frozenset()
    frozen_axis = [
        all(int(net.reaction_vectors[k][i]) == 0 for k in range(net.r))
        for i in range(net.n)
    ]
    pad_lower = []
    pad_upper = []
    for i in range(net.n):
        safe_low = frozen_axis[i] or (
            component.box.lower[i] == 0 and (i, -1) not in component.exit_faces
        )
        pad_lower.append(pad if safe_low else 0)
        pad_upper.append(pad if frozen_axis[i] else 0)
    return component.box.expand(tuple(pad_lower), tuple(pad_upper)), component.exit_faces


def _interior_test(domain: Box, faces, margin: int):
    def interior(x) -> bool:
        for i, (v, lo, up) in enumerate(zip(x, domain.lower, domain.upper)):
            if v < lo or v > up:
                return False
            if (i, -1) in faces and v - lo < margin:
                return False
            if (i, +1) in faces and up - v < margin:
                return False
        return True

    return interior


def classify_measure(
    sys: MassActionSystem,
    mu: Measure,
    domain: Box,
    tol: float = 1e-9,
    truncation_faces: frozenset[tuple[int, int]] | None = None,
) -> MeasureBalanceReport:
    """Check the balance equations of ``mu`` at every determinable state.

    Equation instances are enumerated where they can be nontrivial (at least
    one referenced state in the support of ``mu``); an instance is checked
    only if every referenced state lies inside ``domain`` with a margin of
    the maximum complex inf-norm from each truncating face
    (``truncation_faces``; by default all faces are distrusted).  Skipped
    instances are counted and can only weaken a verdict to Undetermined,
    never flip it.
    """
    net = sys.network
    if domain.n != net.n:
        raise ValueError("domain dimension does not match the species count")
    support = mu.support()
    for x in support:
        if not domain.contains(x):
            raise ValueError(f"support state {x} lies outside the domain")
    faces = (
        frozenset((i, s) for i in range(net.n) for s in (-1, +1))
        if truncation_faces is None
        else truncation_faces
    )
    interior = _interior_test(domain, faces, _margin(net))
    rates = _RateCache(sys)

    flux_scale = 0.0
    for x in support:
        flux_scale = max(flux_scale, mu(x) * float(np.sum(rates(x))))

    def close(lhs: float, rhs: float) -> bool:
        return abs(lhs - rhs) <= tol * (flux_scale + abs(lhs) + abs(rhs))

    def shift(x, d):
        return tuple(a + b for a, b in zip(x, d))

    def neg(d):
        return tuple(-v for v in d)

    tallies = {name: _ConditionTally(name) for name in ("rb", "cb", "rvb", "cyb", "stationary")}

    def run_instances(name, candidates, refs_of, evaluate, label_of):
        tally = tallies[name]
        for x in sorted(candidates):
            refs = refs_of(x)
            if not all(interior(s) for s in refs):
                tally.skipped += 1
                continue
            tally.checked += 1
            if tally.witness is None:
                result = evaluate(x)
                if result is not None:
                    lhs, rhs = result
                    tally.witness = Verdict.fail(x, label_of(x), lhs, rhs)

    # reaction balance: one equation per unordered complex pair per state
    rb_pairs = sorted({tuple(sorted((r.source, r.target))) for r in net.reactions})
    for i, j in rb_pairs:
        d = tuple(
            int(a - b)
            for a, b in zip(net.complexes[j].coeffs, net.complexes[i].coeffs)
        )
        k_fwd = net.edge_index.get((i, j))
        k_bwd = net.edge_index.get((j, i))
        candidates = set(support) | {shift(s, neg(d)) for s in support}

        def evaluate(x, d=d, k_fwd=k_fwd, k_bwd=k_bwd):
            xs = shift(x, d)
            lhs = mu(x) * (float(rates(x)[k_fwd]) if k_fwd is not None else 0.0)
            rhs = mu(xs) * (float(rates(xs)[k_bwd]) if k_bwd is not None else 0.0)
            return None if close(lhs, rhs) else (lhs, rhs)

        label = (
            f"rb:{net.complexes[i].format(net.species)}<->"
            f"{net.complexes[j].format(net.species)}"
        )
        run_instances(
            "rb",
            candidates,
            lambda x, d=d: (x, shift(x, d)),
            evaluate,
            lambda x, label=label: label,
        )

    # complex balance: one equation per complex per state
    for i in range(net.m):
        outgoing = [k for k, r in enumerate(net.reactions) if r.source == i]
        incoming = [
            (k, tuple(int(a - b) for a, b in zip(
                net.complexes[net.reactions[k].source].coeffs, net.complexes[i].coeffs)))
            for k, r in enumerate(net.reactions)
            if r.target == i
        ]
        if not outgoing and not incoming:
            continue
        candidates = set(support)
        for _, d in incoming:
            candidates |= {shift(s, neg(d)) for s in support}

        def evaluate(x, outgoing=outgoing, incoming=incoming):
            lhs = mu(x) * _in_order_sum(float(rates(x)[k]) for k in outgoing)
            rhs = 0.0
            for k, d in incoming:
                xs = shift(x, d)
                rhs += mu(xs) * float(rates(xs)[k])
            return None if close(lhs, rhs) else (lhs, rhs)

        def refs(x, incoming=incoming):
            return [x] + [shift(x, d) for _, d in incoming]

        label = f"cb:{net.complexes[i].format(net.species)}"
        run_instances("cb", candidates, refs, evaluate, lambda x, label=label: label)

    # reaction vector balance: one equation per displacement class per state
    for xi, (fwd, bwd) in reaction_vector_classes(net).items():
        candidates = set(support) | {shift(s, neg(xi)) for s in support}

        def evaluate(x, xi=xi, fwd=fwd, bwd=bwd):
            xs = shift(x, xi)
            lhs = mu(x) * _in_order_sum(float(rates(x)[k]) for k in fwd)
            rhs = mu(xs) * _in_order_sum(float(rates(xs)[k]) for k in bwd)
            return None if close(lhs, rhs) else (lhs, rhs)

        run_instances(
            "rvb",
            candidates,
            lambda x, xi=xi: (x, shift(x, xi)),
            evaluate,
            lambda x, xi=xi: f"rvb:{xi}",
        )

    # cycle balance: at each x with some x + y_u in the support, u a complex
    # with reactions in and out, one equation per cycle of the basis of the
    # graph without the complexes whose flux is zero or whose state is not
    # trusted; the trusted basis cycles through a zero flux hold and count as
    # checked, and those that the untrusted complexes take away are skipped
    hubs = []
    if cycles_of(net):
        hubs = sorted({r.source for r in net.reactions} & {r.target for r in net.reactions})
    tally = tallies["cyb"]
    instances: dict[tuple[int, ...], list] = {}
    for x in sorted({shift(s, neg(net.complexes[u].coeffs)) for s in support for u in hubs}):
        dropped, untrusted = set(), set()
        for u in hubs:
            xu = shift(x, net.complexes[u].coeffs)
            zero = not any(
                mu(xu) * float(rates(xu)[k]) > 0
                for k, r in enumerate(net.reactions) if r.source == u
            )
            if zero or not interior(xu):
                dropped.add(u)
            if not interior(xu):
                untrusted.add(u)
        basis = cycles_of(net, frozenset(dropped))
        trusted = len(cycles_of(net, frozenset(untrusted)))
        tally.checked += trusted - len(basis)
        tally.skipped += len(cycles_of(net)) - trusted
        for cycle in basis:
            instances.setdefault(cycle, []).append(x)

    for cycle in sorted(instances, key=lambda c: (len(c), c)):
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        for x in instances[cycle]:
            tally.checked += 1
            if tally.witness is not None:
                continue
            fwd_factors, bwd_factors = [], []
            for a, b in edges:
                xa = shift(x, net.complexes[a].coeffs)
                xb = shift(x, net.complexes[b].coeffs)
                kf = net.edge_index.get((a, b))
                kb = net.edge_index.get((b, a))
                fwd_factors.append(mu(xa) * (float(rates(xa)[kf]) if kf is not None else 0.0))
                bwd_factors.append(mu(xb) * (float(rates(xb)[kb]) if kb is not None else 0.0))
            bad = _log_product_mismatch(fwd_factors, bwd_factors, tol, flux_scale)
            if bad is not None:
                tally.witness = Verdict.fail(x, f"cyb:{cycle}", *bad)

    # stationarity: the single global-balance equation per state
    vecs = [tuple(int(v) for v in net.reaction_vectors[k]) for k in range(net.r)]
    candidates = set(support)
    for d in vecs:
        candidates |= {shift(s, d) for s in support}

    def evaluate(x):
        lhs = mu(x) * float(np.sum(rates(x)))
        rhs = 0.0
        for k, d in enumerate(vecs):
            xs = shift(x, neg(d))
            rhs += mu(xs) * float(rates(xs)[k])
        return None if close(lhs, rhs) else (lhs, rhs)

    def refs(x):
        return [x] + [shift(x, neg(d)) for d in vecs]

    run_instances("stationary", candidates, refs, evaluate, lambda x: "stationary")

    skipped_total = sum(t.skipped for t in tallies.values())
    return MeasureBalanceReport(
        rb=tallies["rb"].verdict(structurally_empty=net.r == 0),
        cb=tallies["cb"].verdict(structurally_empty=net.r == 0),
        rvb=tallies["rvb"].verdict(structurally_empty=net.r == 0),
        cyb=tallies["cyb"].verdict(structurally_empty=not hubs),
        stationary=tallies["stationary"].verdict(structurally_empty=net.r == 0),
        boundary_skipped=skipped_total,
    )



# ---------------------------------------------------------------------------
# SSA: a generator of jumps, and the occupancy summed over it
# ---------------------------------------------------------------------------

def _draws(rng):
    """Yields (standard exponential, uniform) pairs, one block at a time."""
    while True:
        # read per block, so a test that patches the size sees it here too
        size = crn.ssa._DRAW_BLOCK
        exponentials = rng.standard_exponential(size)
        uniforms = rng.random(size)
        for i in range(size):
            yield float(exponentials[i]), float(uniforms[i])


def _events(sys: MassActionSystem, x0, cfg: SsaConfig, jump_cap: int, memo_rows: int):
    """Yields (event_time, new_state) pairs until t_end or absorption."""
    draws = _draws(np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed & (2**64 - 1)))))
    vectors = [tuple(int(v) for v in row) for row in sys.network.reaction_vectors]
    rows: dict[tuple[int, ...], tuple[float, ...]] = {}
    x = discrete_state(x0, sys.network.n)
    t = 0.0
    jumps = 0
    while True:
        if x not in rows:
            if len(rows) > memo_rows:
                rows.clear()
            batch = [x] + [tuple(map(add, x, vec)) for vec in vectors]
            rows.update(zip(batch, map(tuple, propensities(sys, batch).tolist())))
        a = rows[x]
        total = _in_order_sum(a)
        if total <= 0.0:
            return
        e, u = next(draws)
        # numpy's exponential(scale) is scale * standard_exponential()
        t += (1.0 / total) * e
        if t > cfg.t_end:
            return
        u *= total
        acc = 0.0
        chosen = len(a) - 1
        for k, ak in enumerate(a):
            acc += ak
            if u < acc:
                chosen = k
                break
        x = tuple(map(add, x, vectors[chosen]))
        jumps += 1
        if jumps > jump_cap:
            raise PathExplosionError(f"path exceeded {jump_cap} jumps before t_end")
        yield t, x


def ssa_path(
    sys: MassActionSystem, x0, cfg: SsaConfig, jump_cap: int = DEFAULT_JUMP_CAP,
    memo_rows: int = 2**16,
) -> list[tuple[float, tuple[int, ...]]]:
    path = [(0.0, discrete_state(x0, sys.network.n))]
    path.extend(_events(sys, x0, cfg, jump_cap, memo_rows))
    return path


def occupancy_measure(
    sys: MassActionSystem, x0, cfg: SsaConfig, jump_cap: int = DEFAULT_JUMP_CAP,
    memo_rows: int = 2**16,
) -> Measure:
    burn_in = cfg.effective_burn_in
    horizon = cfg.t_end
    weights: dict[tuple[int, ...], float] = {}
    prev_t = 0.0
    prev_x = discrete_state(x0, sys.network.n)
    for t, x in _events(sys, x0, cfg, jump_cap, memo_rows):
        span = min(t, horizon) - max(prev_t, burn_in)
        if span > 0:
            weights[prev_x] = weights.get(prev_x, 0.0) + span
        prev_t, prev_x = t, x
    span = horizon - max(prev_t, burn_in)
    if span > 0:
        weights[prev_x] = weights.get(prev_x, 0.0) + span
    total = _in_order_sum(weights.values())
    return Measure(
        {x: w / total for x, w in sorted(weights.items()) if w > 0}, normalized=True
    )
