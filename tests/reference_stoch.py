"""Per-state reference implementation of the stochastic layer.

A test-only copy of the state-by-state algorithms that ``crn.stoch`` used
before it moved to an indexed state space: scalar Python-int propensities,
two breadth-first searches for the communicating class, unbanded dense GTH
elimination assembled from per-state transition lists in the order the
component lists its states, and measure classification one equation
instance at a time.  The differential tests hold the indexed
implementation to these results: exactly, except for stationary weights
and the witness values computed from them, which agree to a componentwise
relative tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from crn.detbal import _log_product_mismatch, reaction_vector_classes
from crn.errors import (
    BoxTooSmallError,
    EmptySupportError,
    NotClosedError,
    SolveFailureError,
)
from crn.graph import cycles_of
from crn.model import MassActionSystem, Measure, Verdict, discrete_state
from crn.stoch import (
    Box,
    ComponentResult,
    MeasureBalanceReport,
    _ConditionTally,
    _margin,
)


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
    return ComponentResult(
        states=states,
        closed=closed,
        truncated=truncated,
        seed=seed,
        box=box,
        exit_faces=frozenset(exit_faces),
        internal_leak=internal_leak,
    )


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
    inside = component.state_set
    kept = {}
    for x in component.states:
        kept[x] = [(t, r) for t, r in transitions(sys, x) if t in inside]
    return kept


def stationary_distribution(
    sys: MassActionSystem,
    component: ComponentResult,
    allow_truncated: bool = False,
) -> Measure:
    """Normalized solution of the global-balance equations on the component.

    For a truncated component (allowed only with ``allow_truncated``),
    box-exiting transitions are dropped, so the result is the stationary
    distribution of the reflected chain; interior values are exact whenever
    the chain is reaction vector balanced and approximate otherwise.
    """
    if not component.closed:
        if not (allow_truncated and component.truncated and not component.internal_leak):
            raise NotClosedError(
                "component is not closed"
                + ("" if component.truncated else " and not a box truncation")
                + ("; it also leaks inside the box" if component.internal_leak else "")
            )
    states = component.states
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
        lhs = pi[index[x]] * sum(rate for _, rate in moves)
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
            lhs = mu(x) * sum(float(rates(x)[k]) for k in outgoing)
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
    for xi, (fwd, bwd) in reaction_vector_classes(net).classes.items():
        candidates = set(support) | {shift(s, neg(xi)) for s in support}

        def evaluate(x, xi=xi, fwd=fwd, bwd=bwd):
            xs = shift(x, xi)
            lhs = mu(x) * sum(float(rates(x)[k]) for k in fwd)
            rhs = mu(xs) * sum(float(rates(xs)[k]) for k in bwd)
            return None if close(lhs, rhs) else (lhs, rhs)

        run_instances(
            "rvb",
            candidates,
            lambda x, xi=xi: (x, shift(x, xi)),
            evaluate,
            lambda x, xi=xi: f"rvb:{xi}",
        )

    # cycle balance: one equation per directed cycle per state
    cycles = cycles_of(net)
    for cycle in cycles:
        nodes = [net.complexes[i].coeffs for i in cycle.complexes]
        candidates = set()
        for y in nodes:
            candidates |= {shift(s, neg(y)) for s in support}

        def evaluate(x, cycle=cycle, nodes=nodes):
            fwd_factors = []
            bwd_factors = []
            j = len(cycle.complexes)
            for a in range(j):
                b = (a + 1) % j
                xa = shift(x, nodes[a])
                xb = shift(x, nodes[b])
                ia, ib = cycle.complexes[a], cycle.complexes[b]
                kf = net.edge_index.get((ia, ib))
                kb = net.edge_index.get((ib, ia))
                fwd_factors.append(
                    mu(xa) * (float(rates(xa)[kf]) if kf is not None else 0.0)
                )
                bwd_factors.append(
                    mu(xb) * (float(rates(xb)[kb]) if kb is not None else 0.0)
                )
            return _log_product_mismatch(fwd_factors, bwd_factors, tol, flux_scale)

        def refs(x, nodes=nodes):
            return [shift(x, y) for y in nodes]

        run_instances(
            "cyb",
            candidates,
            refs,
            evaluate,
            lambda x, cycle=cycle: f"cyb:{cycle.complexes}",
        )

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
        cyb=tallies["cyb"].verdict(structurally_empty=len(cycles) == 0),
        stationary=tallies["stationary"].verdict(structurally_empty=net.r == 0),
        boundary_skipped=skipped_total,
    )

