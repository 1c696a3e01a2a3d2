"""Truncated Markov-chain analysis: components, stationary distributions,
and classification of measures against the four balance conditions.

Truncation policy is reflecting: transitions that would exit the box are
dropped from the generator, the result is flagged approximate, and measure
classification only trusts equations whose referenced states keep a margin
of ``max complex inf-norm`` from every truncating face.  Equations touching
the untrusted layer are counted in ``boundary_skipped`` and can never flip a
verdict to Fails.

A set of states is indexed as arrays: the states as an integer array, the
propensity of every reaction at every state, and the index of every
reaction's target state among them.  The component search and the
stationary solve read those arrays, and measure classification evaluates
each equation family as array operations over its sorted candidate states.

Scalar balance equations for measures are compared with
``|lhs - rhs| <= tol * (flux_scale + |lhs| + |rhs|)`` where ``flux_scale`` is
the largest weighted exit flux of the measure; this keeps verdicts invariant
under rescaling of either the measure or the rate constants.  Cycle products
are compared in log space with exact zero handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    BalanceConsistencyError,
    BoxTooSmallError,
    EmptySupportError,
    NotClosedError,
    SolveFailureError,
)
from .detbal import _log_product_mismatch, reaction_vector_classes
from .graph import cycles_of
from .kinetics import propensities, propensity
from .model import (
    MassActionSystem,
    Measure,
    Verdict,
    discrete_state,
    stoichiometric_basis,
)

__all__ = [
    "Box",
    "ComponentResult",
    "MeasureBalanceReport",
    "propensity",
    "transitions",
    "communicating_class",
    "stationary_distribution",
    "poisson_product",
    "classify_measure",
    "classify_component_measure",
    "classification_domain",
    "is_stationary_measure",
    "component_is_active",
]

# Compatibility classes are enumerated within the box when their pivot
# ranges span at most this many lattice points; larger ones (open classes in
# large boxes) are explored forward from the seed instead.
_LATTICE_CAP = 2**20


@dataclass(frozen=True)
class Box:
    """Axis-aligned integer box, componentwise lower <= upper."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have the same length")
        if any(lo > up for lo, up in zip(self.lower, self.upper)):
            raise ValueError(f"box has lower > upper: {self}")

    @classmethod
    def cube(cls, n: int, upper: int, lower: int = 0) -> "Box":
        return cls((lower,) * n, (upper,) * n)

    @property
    def n(self) -> int:
        return len(self.lower)

    def contains(self, x) -> bool:
        return all(lo <= v <= up for v, lo, up in zip(x, self.lower, self.upper))

    def expand(self, pad_lower, pad_upper) -> "Box":
        return Box(
            tuple(lo - p for lo, p in zip(self.lower, pad_lower)),
            tuple(up + p for up, p in zip(self.upper, pad_upper)),
        )


@dataclass(frozen=True)
class ComponentResult:
    """Strongly connected set of states around a seed, within a box.

    ``closed`` means no transition leaves the set at all; ``truncated`` means
    some transition exits the box; ``internal_leak`` means some transition
    stays in the box but leaves the set.  ``exit_faces`` records which box
    faces, as (axis, -1 or +1), are crossed by dropped transitions.
    """

    states: tuple[tuple[int, ...], ...]
    closed: bool
    truncated: bool
    seed: tuple[int, ...]
    box: Box
    exit_faces: frozenset[tuple[int, int]]
    internal_leak: bool

    def __post_init__(self):
        if self.closed and self.truncated:
            raise ValueError("a closed component cannot be truncated")

    @property
    def state_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.states)


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


# ---------------------------------------------------------------------------
# indexed state space
# ---------------------------------------------------------------------------

class _Frame:
    """Integer keys for lattice points of a bounding box.

    A key is the mixed-radix number of the point's offset from ``lo``, first
    coordinate most significant, so key order is lexicographic point order.
    Keys are int64 when the box has fewer than 2**63 points and exact Python
    ints otherwise.  Points outside the box get key -1.
    """

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.int64)
        self.hi = np.asarray(hi, dtype=np.int64)
        strides = []
        size = 1
        for span in reversed((self.hi - self.lo + 1).tolist()):
            strides.append(size)
            size *= span
        self.dtype = np.int64 if size < 2**63 else object
        self.strides = np.array(strides[::-1], dtype=self.dtype)

    def keys(self, points: np.ndarray) -> np.ndarray:
        inside = ((points >= self.lo) & (points <= self.hi)).all(axis=1)
        keys = (points - self.lo).astype(self.dtype) @ self.strides
        return np.where(inside, keys, -1)


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key in ``sorted_keys``, -1 where absent."""
    if not len(sorted_keys):
        return np.full(keys.shape, -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return np.where(sorted_keys[pos] == keys, pos, -1)


def _spread(terms, t_lo, t_hi) -> tuple[int, int]:
    """Least and greatest ``sum k * t[b]`` over ``(b, k)`` in ``terms``."""
    return (
        sum(min(k * t_lo[b], k * t_hi[b]) for b, k in terms),
        sum(max(k * t_lo[b], k * t_hi[b]) for b, k in terms),
    )


def _tighten(coef, lo, hi, t_lo, t_hi, rounds: int = 64):
    """Shrink the ranges ``t_lo <= t <= t_hi`` in place by interval
    propagation over the constraints ``lo[j] <= sum_a t[a] * coef[a][j] <= hi[j]``."""
    for _ in range(rounds):
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
            return


def _class_lattice(net, seed: tuple[int, ...], box: Box) -> np.ndarray | None:
    """Lattice points of ``box`` in the compatibility class of ``seed``, or
    None when the class holds more than ``_LATTICE_CAP`` of them.

    With the exact echelon basis ``b_a`` of the stoichiometric subspace
    (pivot ``p_a``, pivot entry ``d_a``), a point of the class is
    ``seed + sum_a t_a * b_a / d_a`` with integer ``t_a = x[p_a] - seed[p_a]``.
    The ranges of ``t`` are tightened against every coordinate's box bounds,
    then enumerated pivot by pivot, dropping partial assignments that can no
    longer meet the box.  Pivot order is lexicographic point order, so the
    points come out sorted.
    """
    basis, _ = stoichiometric_basis(net)
    pivots = [int(np.flatnonzero(b)[0]) for b in basis]
    scale = math.lcm(*(int(b[p]) for b, p in zip(basis, pivots)))
    coef = [[int(v) * (scale // int(b[p])) for v in b] for b, p in zip(basis, pivots)]
    # Bounds on scale * (x - seed) = sum_a t_a * coef[a].
    lo = [scale * (v - s) for v, s in zip(box.lower, seed)]
    hi = [scale * (v - s) for v, s in zip(box.upper, seed)]
    t_lo = [box.lower[p] - seed[p] for p in pivots]
    t_hi = [box.upper[p] - seed[p] for p in pivots]
    _tighten(coef, lo, hi, t_lo, t_hi)
    if math.prod(h - l + 1 for l, h in zip(t_lo, t_hi)) > _LATTICE_CAP:
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


def _shifted(states: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """N*r x n array of ``states[i] + vectors[k]``, state-major."""
    shifted = states[:, None, :] + vectors[None, :, :]
    return shifted.reshape(len(states) * len(vectors), states.shape[1])


def _reachable(sys: MassActionSystem, seed: tuple[int, ...], box: Box) -> np.ndarray:
    """States reachable from ``seed`` without leaving ``box``, sorted.

    Walks the transition graph one level at a time, so it costs a numpy pass
    per level; it stands in for the class lattice when that is too large.
    """
    vecs = sys.network.reaction_vectors
    lower = np.array(box.lower, dtype=np.int64)
    upper = np.array(box.upper, dtype=np.int64)
    frame = _Frame(lower, upper)
    frontier = np.array([seed], dtype=np.int64).reshape(1, len(seed))
    seen = set(frame.keys(frontier).tolist())
    found = [frontier]
    while len(frontier):
        live = propensities(sys, frontier) > 0
        step = (frontier[:, None, :] + vecs[None, :, :])[live]
        step = step[((step >= lower) & (step <= upper)).all(axis=1)]
        keys, first = np.unique(frame.keys(step), return_index=True)
        new = [i for i, key in zip(first.tolist(), keys.tolist()) if key not in seen]
        seen.update(keys.tolist())
        frontier = step[new]
        found.append(frontier)
    points = np.concatenate(found)
    return points[np.argsort(frame.keys(points), kind="stable")]


def _state_array(sys: MassActionSystem, component: ComponentResult) -> np.ndarray:
    return np.array(component.states, dtype=np.int64).reshape(
        len(component.states), sys.network.n
    )


def _index(
    sys: MassActionSystem, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``points`` (nonempty, in any order) sorted lexicographically, the
    propensities at each (N x r), and the index among them of each reaction's
    target (N x r, -1 where absent)."""
    frame = _Frame(points.min(axis=0), points.max(axis=0))
    keys = frame.keys(points)
    order = np.argsort(keys, kind="stable")
    points = points[order]
    targets = _find(keys[order], frame.keys(_shifted(points, sys.network.reaction_vectors)))
    return points, propensities(sys, points), targets.reshape(len(points), sys.network.r)


def communicating_class(sys: MassActionSystem, seed, box: Box) -> ComponentResult:
    """Strongly connected component of ``seed`` in the transition graph on the box.

    Candidates are the lattice points of the box in the seed's compatibility
    class, or the states reachable from the seed when the class is too large
    to enumerate; the component is the seed's strongly connected component of
    the transition graph among them, and the closure flags and exit faces
    come from its out-edges.
    """
    net = sys.network
    seed = discrete_state(seed, net.n)
    if box.n != net.n:
        raise ValueError("box dimension does not match the species count")
    if not box.contains(seed):
        raise ValueError(f"seed {seed} lies outside the box")

    points = _class_lattice(net, seed, box)
    if points is None:
        points = _reachable(sys, seed, box)
    points, rates, targets = _index(sys, points)
    live = rates > 0
    home = int(np.flatnonzero((points == seed).all(axis=1))[0])
    if live[home].any() and np.all(targets[home][live[home]] < 0):
        raise BoxTooSmallError(
            f"every transition out of the seed {seed} exits the box"
        )

    edges = live & (targets >= 0)
    graph = sp.csr_matrix(
        (np.ones(int(edges.sum())), (np.nonzero(edges)[0], targets[edges])),
        shape=(len(points), len(points)),
    )
    _, labels = connected_components(graph, directed=True, connection="strong")
    inside = labels == labels[home]
    renumber = np.full(len(points) + 1, -1, dtype=np.int64)
    renumber[:-1][inside] = np.arange(int(inside.sum()))

    states = points[inside]
    in_box = targets[inside]
    in_component = renumber[in_box]
    leaving = live[inside] & (in_component < 0)
    exits = leaving & (in_box < 0)
    rows, ks = np.nonzero(exits)
    landing = states[rows] + net.reaction_vectors[ks]
    below = np.any(landing < np.array(box.lower, dtype=np.int64), axis=0)
    above = np.any(landing > np.array(box.upper, dtype=np.int64), axis=0)
    exit_faces = {(i, -1) for i in np.flatnonzero(below).tolist()}
    exit_faces |= {(i, +1) for i in np.flatnonzero(above).tolist()}
    return ComponentResult(
        states=tuple(map(tuple, states.tolist())),
        closed=not leaving.any(),
        truncated=bool(exits.any()),
        seed=seed,
        box=box,
        exit_faces=frozenset(exit_faces),
        internal_leak=bool((leaving & ~exits).any()),
    )


def component_is_active(sys: MassActionSystem, component: ComponentResult) -> bool:
    """Whether every reaction fires somewhere in the component."""
    rates = propensities(sys, _state_array(sys, component))
    return bool(np.all(np.any(rates > 0, axis=0)))


def _vector_groups(net) -> list[list[int]]:
    """Reactions grouped by reaction vector, each group in reaction order."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for k, vec in enumerate(net.reaction_vectors.tolist()):
        groups.setdefault(tuple(vec), []).append(k)
    return list(groups.values())


def _in_order_sum(columns) -> np.ndarray:
    """Columnwise sum accumulated left to right, as Python's ``sum`` would."""
    total = 0.0
    for col in columns:
        total = total + col
    return total


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
    size = len(component.states)
    if size == 0:
        raise EmptySupportError("component has no states")
    if size == 1:
        return Measure({component.states[0]: 1.0}, normalized=True)

    # Kept moves of the reflected chain between the states in lexicographic
    # order.  Reactions sharing a reaction vector share a target, and their
    # rates are summed in reaction order.
    points, all_rates, targets = _index(sys, _state_array(sys, component))
    states = tuple(map(tuple, points.tolist()))
    kept = (all_rates > 0) & (targets >= 0)
    rates = np.where(kept, all_rates, 0.0)
    src, dst, val = [], [], []
    for group in _vector_groups(sys.network):
        total = _in_order_sum(rates[:, k] for k in group)
        (rows,) = np.nonzero(total > 0)
        src.append(rows)
        dst.append(targets[rows, group[0]])
        val.append(total[rows])
    src, dst, val = np.concatenate(src), np.concatenate(dst), np.concatenate(val)
    exit_rate = _in_order_sum(rates.T)

    # Subtraction-free state-reduction (GTH) elimination: every update is a
    # sum or product of nonnegative rates, so the stationary vector comes out
    # nonnegative with componentwise relative accuracy, tails included.  A
    # move reaches at most ``lower`` states back and ``upper`` states forward,
    # and eliminating from the last state down keeps every fill-in inside
    # that band.  Band entry R[i, j] lives at R[i * width + j + lower]: a row
    # of the band is a contiguous run, a column a stride-``width`` run, and no
    # two band entries share a slot.
    lower = int(np.max(src - dst, initial=0))
    upper = int(np.max(dst - src, initial=0))
    width = lower + upper
    R = np.zeros(size * (width + 1) + lower)
    R[src * width + dst + lower] = val
    for k in range(size - 1, 0, -1):
        first_col, first_row = max(k - lower, 0), max(k - upper, 0)
        row = R[k * width + first_col + lower : k * width + k + lower]
        s = float(row.sum())
        if s <= 0.0:
            raise SolveFailureError(
                "component is not irreducible: no route from state "
                f"{states[k]} to earlier states"
            )
        col = R[first_row * width + k + lower : k * width + k + lower : width]
        col /= s
        block = R[first_row * width + first_col + lower : k * width + first_col + lower]
        block.reshape(k - first_row, width)[:, : k - first_col] += col[:, None] * row
    pi = np.zeros(size)
    pi[0] = 1.0
    for k in range(1, size):
        first_row = max(k - upper, 0)
        col = R[first_row * width + k + lower : k * width + k + lower : width]
        pi[k] = float(pi[first_row:k] @ col)
        if pi[k] > 1e250:  # keep headroom; only ratios matter
            pi[: k + 1] *= 1e-250
    if not np.all(np.isfinite(pi)):
        raise SolveFailureError("state-reduction solve overflowed")
    total = float(pi.sum())
    if total <= 0:
        raise SolveFailureError("global-balance solution has zero total mass")
    pi /= total

    # Self-check: the solved (reflected) balance equations must be satisfied.
    # Inflow accumulates per move, in state then reaction order.
    in_flux = np.zeros(size)
    np.add.at(in_flux, targets[kept], (pi[:, None] * all_rates)[kept])
    out_flux = pi * exit_rate
    worst = max(0.0, float(np.max(np.abs(out_flux - in_flux))))
    scale = max(0.0, float(np.max(out_flux)), float(np.max(in_flux)))
    if scale > 0 and worst > 1e-10 * scale:
        raise SolveFailureError(
            f"global-balance residual {worst:.3e} exceeds 1e-10 relative to {scale:.3e}"
        )

    (support,) = np.nonzero(pi > 0.0)
    return Measure(
        dict(zip((states[i] for i in support.tolist()), pi[support].tolist())),
        normalized=True,
    )


def poisson_product(c, states) -> Measure:
    """Product-form weights ``c**x / x!`` normalized over ``states``."""
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
            float(sum(v * lc - math.lgamma(v + 1) for v, lc in zip(x, logc)))
        )
    top = max(logs)
    weights = [math.exp(val - top) for val in logs]
    z = sum(weights)
    return Measure(
        {x: w / z for x, w in zip(states, weights) if w > 0}, normalized=True
    )


# ---------------------------------------------------------------------------
# measure classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureBalanceReport:
    """Verdicts for one measure against the balance conditions.

    ``boundary_skipped`` counts equation instances whose referenced states
    touched a truncation layer and were therefore left undetermined.
    """

    rb: Verdict
    cb: Verdict
    rvb: Verdict
    cyb: Verdict
    stationary: Verdict
    boundary_skipped: int

    def __post_init__(self):
        if self.rb.holds:
            for name in ("cb", "rvb", "cyb"):
                v: Verdict = getattr(self, name)
                if v.fails:
                    raise BalanceConsistencyError(
                        f"reaction balance held but {name} failed on the determined set"
                    )


def _margin(net) -> int:
    return max((cx.inf_norm for cx in net.complexes), default=0)


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
        states = _state_array(sys, component)
        lo = tuple(states.min(axis=0).tolist())
        up = tuple(states.max(axis=0).tolist())
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

    Each equation family is evaluated as array operations over its sorted
    candidate states; the witness of a failing condition is its first
    failing checked instance in that order.
    """
    net = sys.network
    if domain.n != net.n:
        raise ValueError("domain dimension does not match the species count")
    support = mu.support()
    points = np.array(support, dtype=np.int64).reshape(len(support), net.n)
    lower = np.array(domain.lower, dtype=np.int64)
    upper = np.array(domain.upper, dtype=np.int64)
    outside = np.flatnonzero(~((points >= lower) & (points <= upper)).all(axis=1))
    if len(outside):
        raise ValueError(f"support state {support[outside[0]]} lies outside the domain")
    faces = (
        frozenset((i, s) for i in range(net.n) for s in (-1, +1))
        if truncation_faces is None
        else truncation_faces
    )
    margin = _margin(net)
    trusted_lo = lower + [margin if (i, -1) in faces else 0 for i in range(net.n)]
    trusted_hi = upper - [margin if (i, +1) in faces else 0 for i in range(net.n)]

    def interior(x):
        return ((x >= trusted_lo) & (x <= trusted_hi)).all(axis=1)

    # Weights and propensities of the support, with a zero row at index -1
    # standing for every state outside it.
    weight = np.append([mu.weights[x] for x in support], 0.0)
    rates = np.vstack([propensities(sys, points), np.zeros(net.r)])
    flux_scale = max(0.0, float(np.max(weight * rates.sum(axis=1))))
    lo, hi = (points.min(axis=0), points.max(axis=0)) if len(points) else (lower, lower)
    frame = _Frame(lo - margin, hi + margin)  # holds every candidate state
    support_keys = frame.keys(points)

    def at(x):
        """Weight and rate row of each state in ``x``."""
        i = _find(support_keys, frame.keys(x))
        return weight[i], rates[i]

    def mismatch(lhs, rhs):
        """First instance whose scalar balance equation fails, or None."""
        lhs, rhs = np.broadcast_arrays(lhs, rhs)
        close = np.abs(lhs - rhs) <= tol * (flux_scale + np.abs(lhs) + np.abs(rhs))
        bad = np.flatnonzero(~close)
        return None if not len(bad) else (bad[0], lhs[bad[0]], rhs[bad[0]])

    tallies = {name: _ConditionTally(name) for name in ("rb", "cb", "rvb", "cyb", "stationary")}

    def run_instances(name, label, shifts, refs, evaluate):
        """Candidates are the support shifted by ``shifts``; an instance at x
        references x shifted by each of ``refs``."""
        tally = tallies[name]
        x = np.concatenate([points + d for d in shifts])
        _, first = np.unique(frame.keys(x), return_index=True)
        x = x[first]
        trusted = np.ones(len(x), dtype=bool)
        for d in refs:
            trusted &= interior(x + d)
        x = x[trusted]
        tally.checked += len(x)
        tally.skipped += len(trusted) - len(x)
        if tally.witness is None and len(x):
            found = evaluate(x)
            if found is not None:
                i, lhs, rhs = found
                tally.witness = Verdict.fail(tuple(x[i].tolist()), label, lhs, rhs)

    def flux(x, *reactions):
        """mu(x) times the total rate at x of ``reactions`` (None entries are
        absent reactions)."""
        w, r = at(x)
        return w * _in_order_sum(r[:, k] for k in reactions if k is not None)

    # reaction balance: one equation per unordered complex pair per state
    rb_pairs = sorted({tuple(sorted((r.source, r.target))) for r in net.reactions})
    for i, j in rb_pairs:
        d = np.subtract(net.complexes[j].coeffs, net.complexes[i].coeffs)
        k_fwd = net.edge_index.get((i, j))
        k_bwd = net.edge_index.get((j, i))
        label = (
            f"rb:{net.complexes[i].format(net.species)}<->"
            f"{net.complexes[j].format(net.species)}"
        )
        run_instances(
            "rb", label, (0, -d), (0, d),
            lambda x, d=d, k_fwd=k_fwd, k_bwd=k_bwd: mismatch(
                flux(x, k_fwd), flux(x + d, k_bwd)
            ),
        )

    # complex balance: one equation per complex per state
    for i in range(net.m):
        outgoing = [k for k, r in enumerate(net.reactions) if r.source == i]
        incoming = [
            (k, np.subtract(net.complexes[r.source].coeffs, net.complexes[i].coeffs))
            for k, r in enumerate(net.reactions)
            if r.target == i
        ]
        if not outgoing and not incoming:
            continue

        run_instances(
            "cb", f"cb:{net.complexes[i].format(net.species)}",
            [0] + [-d for _, d in incoming], [0] + [d for _, d in incoming],
            lambda x, outgoing=outgoing, incoming=incoming: mismatch(
                flux(x, *outgoing), _in_order_sum(flux(x + d, k) for k, d in incoming)
            ),
        )

    # reaction vector balance: one equation per displacement class per state
    for xi, (fwd, bwd) in reaction_vector_classes(net).classes.items():
        d = np.array(xi, dtype=np.int64)
        run_instances(
            "rvb", f"rvb:{xi}", (0, -d), (0, d),
            lambda x, d=d, fwd=fwd, bwd=bwd: mismatch(flux(x, *fwd), flux(x + d, *bwd)),
        )

    # cycle balance: one equation per directed cycle per state, compared
    # one instance at a time in log space
    cycles = cycles_of(net)
    for cycle in cycles:
        nodes = [np.array(net.complexes[i].coeffs, dtype=np.int64) for i in cycle.complexes]
        edges = cycle.edges()

        def evaluate(x, nodes=nodes, edges=edges):
            j = len(edges)
            fwd = [flux(x + nodes[a], net.edge_index.get((u, v)))
                   for a, (u, v) in enumerate(edges)]
            bwd = [flux(x + nodes[(a + 1) % j], net.edge_index.get((v, u)))
                   for a, (u, v) in enumerate(edges)]
            instances = zip(np.transpose(fwd).tolist(), np.transpose(bwd).tolist())
            for i, (f, b) in enumerate(instances):
                bad = _log_product_mismatch(f, b, tol, flux_scale)
                if bad is not None:
                    return (i, *bad)
            return None

        run_instances(
            "cyb", f"cyb:{cycle.complexes}", [-y for y in nodes], nodes, evaluate
        )

    # stationarity: the single global-balance equation per state
    vecs = net.reaction_vectors

    def evaluate(x):
        w, r = at(x)
        return mismatch(
            w * r.sum(axis=1), _in_order_sum(flux(x - vecs[k], k) for k in range(net.r))
        )

    run_instances("stationary", "stationary", [0, *vecs], [0, *(-vecs)], evaluate)

    skipped_total = sum(t.skipped for t in tallies.values())
    return MeasureBalanceReport(
        rb=tallies["rb"].verdict(structurally_empty=net.r == 0),
        cb=tallies["cb"].verdict(structurally_empty=net.r == 0),
        rvb=tallies["rvb"].verdict(structurally_empty=net.r == 0),
        cyb=tallies["cyb"].verdict(structurally_empty=len(cycles) == 0),
        stationary=tallies["stationary"].verdict(structurally_empty=net.r == 0),
        boundary_skipped=skipped_total,
    )


def classify_component_measure(
    sys: MassActionSystem,
    component: ComponentResult,
    mu: Measure,
    tol: float = 1e-9,
) -> MeasureBalanceReport:
    """Classify a component's measure with the component-derived domain."""
    domain, faces = classification_domain(sys, component)
    return classify_measure(sys, mu, domain, tol=tol, truncation_faces=faces)


def is_stationary_measure(
    sys: MassActionSystem,
    mu: Measure,
    domain: Box,
    tol: float = 1e-9,
    truncation_faces: frozenset[tuple[int, int]] | None = None,
) -> Verdict:
    """Verdict for the global-balance equation alone."""
    report = classify_measure(sys, mu, domain, tol=tol, truncation_faces=truncation_faces)
    return report.stationary
