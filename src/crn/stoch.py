"""Truncated Markov-chain analysis: components, stationary distributions,
and classification of measures against the four balance conditions.

Truncation policy is reflecting: transitions that would exit the box are
dropped from the generator, the result is flagged approximate, and measure
classification only trusts equations whose referenced states keep a margin
of ``max complex inf-norm`` from every truncating face.  Equations touching
the untrusted layer are counted in ``boundary_skipped`` and can never flip a
verdict to Fails.

A component is held as its index: the states as a sorted integer array, the
propensity of every reaction at every state, and the index of every
reaction's target state among them.  The activity check, the stationary
solve and the classification read those arrays; state tuples are built only
for output.  The candidates are the lattice points of the seed's
compatibility class in the box, or past ``_LATTICE_CAP``, the state budget
of every build, in a box grown around the seed.  The seed's component is the
set of candidates it reaches intersected with the set that reaches it, each
found by following one map per reaction vector with repeated squaring, in
numpy alone.  Measure classification sorts its candidate states once per
call and tabulates, per offset that any equation reads, where each shifted
candidate lies in the support and whether it is trusted; every equation of
``detbal._balance_equations``, the cycle equations and global balance read
rows of that table.

Scalar balance equations for measures are compared by ``detbal._close``
with scale ``flux_scale``, ``|lhs - rhs| <= tol * (flux_scale + |lhs| +
|rhs|)``, where ``flux_scale`` is the largest weighted exit flux of the
measure; this keeps verdicts invariant under rescaling of either the measure
or the rate constants.  Cycle products are compared in log space with exact
zero handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import (
    BalanceConsistencyError,
    BoxTooSmallError,
    EmptySupportError,
    NotClosedError,
    SolveFailureError,
)
from .detbal import (
    _balance_equations,
    _close as _balanced,
    _cycle_equations,
    _log_product_mismatch,
)
from .graph import cycles_of
from .kinetics import propensities
from .model import (
    MassActionSystem,
    Measure,
    Verdict,
    _in_order_sum,
    discrete_state,
    stoichiometric_basis,
)

__all__ = [
    "Box",
    "ComponentResult",
    "MeasureBalanceReport",
    "communicating_class",
    "stationary_distribution",
    "poisson_product",
    "classify_measure",
    "classify_component_measure",
    "classification_domain",
    "component_is_active",
]

# The state budget of every component build: a compatibility class is
# enumerated within the box when its pivot ranges span at most this many
# lattice points, and otherwise within a box grown around the seed, which is
# refused once it needs more.
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
    def cube(cls, n: int, upper: int) -> "Box":
        return cls((0,) * n, (upper,) * n)

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


@dataclass(frozen=True, eq=False)
class ComponentResult:
    """Strongly connected set of states around a seed, within a box.

    ``closed`` means no transition leaves the set at all; ``truncated`` means
    some transition exits the box; ``internal_leak`` means some transition
    stays in the box but leaves the set.  ``exit_faces`` records which box
    faces, as (axis, -1 or +1), are crossed by dropped transitions.

    The states are held as their index: ``points`` (N x n, lexicographic
    order), the propensities ``rates`` (N x r) and ``targets`` (N x r), the
    row of each move's target, -1 where the move leaves the component.
    ``states`` is their tuple view, built on first use; equality and hashing
    read it and the flags, not the arrays.
    """

    points: np.ndarray = field(compare=False, repr=False)
    rates: np.ndarray = field(compare=False, repr=False)
    targets: np.ndarray = field(compare=False, repr=False)
    closed: bool
    truncated: bool
    seed: tuple[int, ...]
    box: Box
    exit_faces: frozenset[tuple[int, int]]
    internal_leak: bool

    def __post_init__(self):
        if self.closed and self.truncated:
            raise ValueError("a closed component cannot be truncated")

    @classmethod
    def from_states(cls, sys: MassActionSystem, states, **flags) -> "ComponentResult":
        """Index ``states``, listed in any order; the flags go by keyword."""
        points = np.array(states, dtype=np.int64).reshape(len(states), sys.network.n)
        return cls(*_index(sys, points), **flags)

    @cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.points.tolist()))

    def _key(self):
        return self.states, *(getattr(self, f.name) for f in fields(self) if f.compare)

    def __eq__(self, other):
        return isinstance(other, ComponentResult) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


# ---------------------------------------------------------------------------
# indexed state space
# ---------------------------------------------------------------------------

class _Frame:
    """Integer keys for lattice points of a bounding box.

    A key is the mixed-radix number of the point's offset from ``lo``, first
    coordinate most significant, so key order is lexicographic point order.
    Keys are int64 when the box has fewer than 2**63 points and exact Python
    ints otherwise.  Points outside the box get key -1.  A side of 2**63 or
    more points is refused, so that every width and offset fits in int64.
    """

    def __init__(self, lo, hi):
        spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
        if max(spans, default=0) >= 2**63:
            raise ValueError("box has a side of 2**63 or more points")
        self.lo = np.asarray(lo, dtype=np.int64)
        self.hi = np.asarray(hi, dtype=np.int64)
        strides = []
        size = 1
        for span in reversed(spans):
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


def _tighten(coef, lo, hi, t_lo, t_hi):
    """Shrink the ranges ``t_lo <= t <= t_hi`` in place by interval
    propagation over the constraints ``lo[j] <= sum_a t[a] * coef[a][j] <= hi[j]``,
    for at most 64 rounds."""
    for _ in range(64):
        changed = False
        for j in range(len(lo)):
            terms = [(a, c[j]) for a, c in enumerate(coef) if c[j]]
            for a, k in terms:
                # least and greatest value of the other terms
                rest = [sorted((c * t_lo[b], c * t_hi[b])) for b, c in terms if b != a]
                low, high = lo[j] - sum(r[1] for r in rest), hi[j] - sum(r[0] for r in rest)
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
    None when the ranges of ``t`` below span more than ``_LATTICE_CAP``
    assignments.

    With the exact echelon basis ``b_a`` of the stoichiometric subspace
    (pivot ``p_a``, pivot entry ``d_a``), a point of the class is
    ``seed + sum_a t_a * b_a / d_a`` with integer ``t_a = x[p_a] - seed[p_a]``.
    The ranges of ``t`` are tightened against every coordinate's box bounds;
    every assignment in them is enumerated pivot by pivot, and those that
    land on an integer point of the box are kept.  Pivot order is
    lexicographic point order, so the points come out sorted.
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
    for c, first, last in zip(coef, t_lo, t_hi):
        values = np.arange(first, last + 1, dtype=np.int64)
        offsets = (offsets[:, None, :] + values[:, None] * np.array(c)).reshape(-1, net.n)
    keep = (offsets >= np.array(lo)) & (offsets <= np.array(hi)) & (offsets % scale == 0)
    offsets = offsets[keep.all(axis=1)]
    offsets //= scale  # in place, beside up to _LATTICE_CAP enumerated points
    return np.add(offsets, np.array(seed, dtype=np.int64), out=offsets)


def _index(
    sys: MassActionSystem, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``points`` (nonempty, in any order) sorted lexicographically, the
    propensities at each (N x r), and the index among them of each
    reaction's target (N x r, -1 where absent)."""
    frame = _Frame(points.min(axis=0), points.max(axis=0))
    keys = frame.keys(points)
    order = np.argsort(keys, kind="stable")
    points, keys = points[order], keys[order]
    rates = propensities(sys, points)
    targets = points[:, None, :] + sys.network.reaction_vectors  # state-major
    targets = frame.keys(targets.reshape(len(points) * sys.network.r, points.shape[1]))
    return points, rates, _find(keys, targets).reshape(len(points), sys.network.r)


def _close(mask: np.ndarray, step: np.ndarray) -> bool:
    """Add to ``mask`` every state that repeated ``step`` reaches from it;
    True when it grew.

    Squaring ``g = step^(2^j)`` joins ``g``'s image each round, so after j
    rounds the mask is the union of ``step^m`` of the start for m < 2^j.
    Once ``g`` maps the mask into itself, every higher power of ``step`` does
    too (m = q * 2^j + rest), so the mask is closed under ``step``.
    """
    grew = False
    while True:
        image = step[mask]
        if mask[image].all():
            return grew
        mask[image] = True
        grew = True
        step = step[step]


def _closure(mask: np.ndarray, steps: list[np.ndarray]) -> np.ndarray:
    """Smallest superset of ``mask`` closed under every map in ``steps``.

    Each map is closed in turn; the search stops once the last
    ``len(steps)`` closures, the one that grew the mask included, left it
    as they found it.
    """
    settled = k = 0
    while settled < len(steps):
        settled = 1 if _close(mask, steps[k % len(steps)]) else settled + 1
        k += 1
    return mask


def _reached(edges: np.ndarray, targets: np.ndarray, home: int) -> tuple[list, np.ndarray]:
    """The moves of ``_seed_class``, as (column, live) pairs, and the mask of
    the states that ``home`` reaches by them."""
    moves: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    for col, live in zip(targets.T, edges.T):
        if live.any():
            key = col.tobytes()
            if key in moves:
                live = live | moves[key][1]
            moves[key] = (col, live)
    ids = np.arange(len(targets))
    forward = [np.where(live, col, ids) for col, live in moves.values()]
    return list(moves.values()), _closure(ids == home, forward)


def _seed_class(edges: np.ndarray, targets: np.ndarray, home: int) -> np.ndarray:
    """Mask of the strongly connected component of state ``home``, where
    state i moves to ``targets[i, k]`` by reaction k wherever ``edges[i, k]``.

    The component is the set of states that ``home`` reaches intersected
    with the set that reaches ``home`` (the forward-backward search of
    Fleischer, Hendrickson and Pinar 2000; each map is followed by pointer
    jumping, Hillis and Steele 1986).  A path back to ``home`` from a reached
    state only passes reached states, so the backward search follows the
    moves out of reached states alone.  A column of ``targets`` is
    one-to-one, so each reaction vector's moves are one map forward, with
    the state itself where no move is live, and its scatter is the map
    backward.  Reactions that share a vector share a column and share a
    map; columns with no move give none.
    """
    moves, reached = _reached(edges, targets, home)
    ids = np.arange(len(targets))
    back = []
    for col, live in moves:
        live = live & reached
        step = ids.copy()
        step[col[live]] = ids[live]
        back.append(step)
    return _closure(ids == home, back)


def communicating_class(sys: MassActionSystem, seed, box: Box) -> ComponentResult:
    """Strongly connected component of ``seed`` in the transition graph on the box.

    Candidates are the lattice points of the box in the seed's compatibility
    class.  When there are more than ``_LATTICE_CAP``, they are those of a box
    grown around the seed instead, as finite state projection grows its state
    set (Munsky and Khammash 2006): each face starts one step from the seed
    and doubles its distance, clipped to the box, while a live move out of
    the states the seed reaches lands in the box beyond it.  A grown box
    whose class holds more than ``_LATTICE_CAP`` points raises ``ValueError``.
    The component is the seed's strongly connected component among the
    candidates (``_seed_class``), and the closure flags and exit faces come
    from its out-edges.
    """
    net = sys.network
    seed = discrete_state(seed, net.n)
    if box.n != net.n:
        raise ValueError("box dimension does not match the species count")
    if not box.contains(seed):
        raise ValueError(f"seed {seed} lies outside the box")

    points, grown = _class_lattice(net, seed, box), None
    reach = [1] * 2 * net.n  # distances of the grown box's lower, then upper, faces from the seed
    while True:
        if points is None:
            grown = Box(tuple(max(b, s - d) for b, s, d in zip(box.lower, seed, reach)),
                        tuple(min(b, s + d) for b, s, d in zip(box.upper, seed, reach[net.n :])))
            points = _class_lattice(net, seed, grown)
            if points is None:
                raise ValueError(f"the class search from {seed} exceeds {_LATTICE_CAP} states")
        points, rates, targets = _index(sys, points)
        live = rates > 0
        home = int(np.flatnonzero((points == seed).all(axis=1))[0])
        if grown is None:
            break
        # live moves out of the reached states that land in the box beyond the grown box
        rows, ks = np.nonzero(live & _reached(live & (targets >= 0), targets, home)[1][:, None])
        landing = points[rows] + net.reaction_vectors[ks]
        landing = landing[((landing >= box.lower) & (landing <= box.upper)).all(axis=1)]
        beyond = np.r_[(landing < grown.lower).any(axis=0), (landing > grown.upper).any(axis=0)]
        if not beyond.any():
            break
        reach = [2 * d if b else d for d, b in zip(reach, beyond.tolist())]
        points = None
    if live[home].any() and np.all(targets[home][live[home]] < 0):
        raise BoxTooSmallError(
            f"every transition out of the seed {seed} exits the box"
        )

    inside = _seed_class(live & (targets >= 0), targets, home)
    renumber = np.full(len(points) + 1, -1, dtype=np.int64)
    renumber[:-1][inside] = np.arange(int(inside.sum()))

    points, rates, in_box = points[inside], rates[inside], targets[inside]
    targets = renumber[in_box]
    leaving = live[inside] & (targets < 0)
    exits = leaving & (in_box < 0)
    rows, ks = np.nonzero(exits)
    landing = points[rows] + net.reaction_vectors[ks]
    below = np.any(landing < np.array(box.lower, dtype=np.int64), axis=0)
    above = np.any(landing > np.array(box.upper, dtype=np.int64), axis=0)
    exit_faces = {(i, -1) for i in np.flatnonzero(below).tolist()}
    exit_faces |= {(i, +1) for i in np.flatnonzero(above).tolist()}
    return ComponentResult(
        points,
        rates,
        targets,
        closed=not leaving.any(),
        truncated=bool(exits.any()),
        seed=seed,
        box=box,
        exit_faces=frozenset(exit_faces),
        internal_leak=bool((leaving & ~exits).any()),
    )


def component_is_active(sys: MassActionSystem, component: ComponentResult) -> bool:
    """Whether every reaction fires somewhere in the component."""
    return bool(np.all(np.any(component.rates > 0, axis=0)))


def _chain_weights(R: np.ndarray, size: int) -> np.ndarray | None:
    """GTH weights of a bandwidth-1 band ``R`` (laid out as in
    ``stationary_distribution``), bit for bit those of ``_banded_weights``,
    or None where that loop would rescale.

    At bandwidth 1, elimination step k writes only R[k-1, k-1], which GTH
    never reads, so the elimination is one division per state,
    R[k-1, k] / R[k, k-1].  Each back-substitution dot has one term, so the
    weights are the running product of those ratios, rounded as the loop
    rounds them while no weight passes 1e250.  A nan or inf, as from a zero
    backward rate, fails that test too and is left to the loop.
    """
    pi = np.multiply.accumulate(np.r_[1.0, R[2 : 3 * size - 1 : 3] / R[3 : 3 * size : 3]])
    return pi if np.all(pi <= 1e250) else None


def _banded_weights(R: np.ndarray, size: int, lower: int, upper: int, points) -> np.ndarray:
    """Unnormalized GTH weights of the band ``R`` of ``stationary_distribution``
    by per-state elimination and back-substitution; ``R`` is overwritten."""
    width = lower + upper
    for k in range(size - 1, 0, -1):
        first_col, first_row = max(k - lower, 0), max(k - upper, 0)
        row = R[k * width + first_col + lower : k * width + k + lower]
        s = float(row.sum())
        if s <= 0.0:
            raise SolveFailureError(
                "component is not irreducible: no route from state "
                f"{tuple(points[k].tolist())} to earlier states"
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
    return pi


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

    The solve is banded GTH state reduction in lexicographic state order;
    at bandwidth 1 it is one vector pass (``_chain_weights``) wherever that
    gives the loop's weights bit for bit.  Raises ``SolveFailureError`` when
    the component is not irreducible, the solve overflows, or the balance
    residual exceeds 1e-10 relative to the largest flux.
    """
    if not component.closed:
        if not (allow_truncated and component.truncated and not component.internal_leak):
            raise NotClosedError(
                "component is not closed"
                + ("" if component.truncated else " and not a box truncation")
                + ("; it also leaks inside the box" if component.internal_leak else "")
            )
    points, all_rates, targets = component.points, component.rates, component.targets
    size = len(points)
    if size == 0:
        raise EmptySupportError("component has no states")

    kept = (all_rates > 0) & (targets >= 0)  # the moves of the reflected chain

    # Subtraction-free state-reduction (GTH) elimination: every update is a
    # sum or product of nonnegative rates, so the stationary vector comes out
    # nonnegative with componentwise relative accuracy, tails included.  A
    # move reaches at most ``lower`` states back and ``upper`` states forward,
    # and eliminating from the last state down keeps every fill-in inside
    # that band.  Band entry R[i, j] lives at R[i * width + j + lower]: a row
    # of the band is a contiguous run, a column a stride-``width`` run, and no
    # two band entries share a slot.
    lower = upper = 0
    for live, column in zip(kept.T, targets.T):
        reach = column[live] - np.flatnonzero(live)
        lower = max(lower, -int(reach.min(initial=0)))
        upper = max(upper, int(reach.max(initial=0)))
    width = lower + upper
    # One reaction's moves have distinct targets, so scattering the reactions
    # in order sums the rates of reactions sharing a reaction vector, and so a
    # band entry, in reaction order.
    R = np.zeros(size * (width + 1) + lower)
    for live, column, rate_k in zip(kept.T, targets.T, all_rates.T):
        R[np.flatnonzero(live) * width + column[live] + lower] += rate_k[live]
    # Overflow, a zero backward rate at bandwidth 1 and the nan they breed
    # are left to the loop and the isfinite check.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pi = _chain_weights(R, size) if lower == upper == 1 else None
        if pi is None:
            pi = _banded_weights(R, size, lower, upper, points)
    if not np.all(np.isfinite(pi)):
        raise SolveFailureError("state-reduction solve overflowed")
    total = float(pi.sum())
    if total <= 0:
        raise SolveFailureError("global-balance solution has zero total mass")
    pi /= total

    # Self-check: the solved (reflected) balance equations must be satisfied.
    # Inflow accumulates in reaction order; a reaction's moves have distinct
    # targets.
    in_flux = np.zeros(size)
    for live, column, rate_k in zip(kept.T, targets.T, all_rates.T):
        in_flux[column[live]] += pi[live] * rate_k[live]
    out_flux = pi * _in_order_sum(
        np.where(live, rate_k, 0.0) for live, rate_k in zip(kept.T, all_rates.T)
    )
    worst = max(0.0, float(np.max(np.abs(out_flux - in_flux))))
    scale = max(0.0, float(np.max(out_flux)), float(np.max(in_flux)))
    if scale > 0 and worst > 1e-10 * scale:
        raise SolveFailureError(
            f"global-balance residual {worst:.3e} exceeds 1e-10 relative to {scale:.3e}"
        )

    (support,) = np.nonzero(pi > 0.0)
    return Measure(
        dict(zip(map(tuple, points[support].tolist()), pi[support].tolist())),
        normalized=True,
    )


def poisson_product(c, states) -> Measure:
    """Product-form weights ``c**x / x!`` normalized over ``states``, count
    vectors or an N x n array of them such as a component's ``points``."""
    c = np.asarray(c, dtype=float).reshape(-1)
    if np.any(c <= 0):
        raise ValueError("poisson_product needs a strictly positive concentration vector")
    points = np.array(states if isinstance(states, np.ndarray) else list(states), dtype=np.int64)
    if not len(points):
        raise EmptySupportError("poisson_product needs a nonempty state set")
    points = points.reshape(len(points), len(c))
    frame = _Frame(points.min(axis=0), points.max(axis=0))
    points = points[np.unique(frame.keys(points), return_index=True)[1]]  # sorted rows
    negative = (points < 0).any(axis=1)
    if negative.any():
        raise ValueError(f"state {tuple(points[negative][0].tolist())} has a negative coordinate")
    # log(c**x / x!), summed over the species in order
    lgamma = np.frompyfunc(math.lgamma, 1, 1)(points + 1).astype(float)
    logs = np.zeros(len(points)) + _in_order_sum((points * np.log(c) - lgamma).T)
    weights = np.array([math.exp(v) for v in (logs - logs.max()).tolist()])
    (support,) = np.nonzero(weights > 0)
    weights = weights[support] / _in_order_sum(weights.tolist())
    keys = map(tuple, points[support].tolist())
    return Measure(dict(zip(keys, weights.tolist())), normalized=True)


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
        lo = tuple(component.points.min(axis=0).tolist())
        up = tuple(component.points.max(axis=0).tolist())
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

    Cycle balance at ``x`` is checked on the basis of the graph without the
    complexes ``u`` whose state ``x + y_u`` is untrusted or whose flux
    ``mu(x + y_u) * lambda_u(x + y_u)`` is zero: every cycle through the
    latter holds.  The basis cycles that the untrusted ones take away are
    skipped.

    One table serves every equation of ``detbal._balance_equations``, the
    cycle equations and global balance: the sorted states ``x`` with
    ``x + d`` in the support for some offset ``d`` that any of them reads,
    and per offset the support row of each ``x + d`` and whether it is
    trusted.  The witness of a failing condition is its first failing checked
    instance, equations in table order, cycles by (length, complexes), and
    states in sorted order.
    """
    return _classify(sys, mu, domain, tol, truncation_faces, None)


def _classify(sys, mu, domain, tol, truncation_faces, component) -> MeasureBalanceReport:
    """``classify_measure``, reading the support's propensities from the
    index of ``component`` (when given) wherever it holds the state."""
    net = sys.network
    if domain.n != net.n:
        raise ValueError("domain dimension does not match the species count")
    support = mu.support()
    points = np.array(support, dtype=np.int64).reshape(len(support), net.n)
    # a box holds the support when it holds its least and greatest corners
    lo, hi = (points.min(axis=0), points.max(axis=0)) if len(points) else ([0] * net.n,) * 2
    lo, hi = list(map(int, lo)), list(map(int, hi))
    if len(points) and not (domain.contains(lo) and domain.contains(hi)):
        outside = next(x for x in support if not domain.contains(x))
        raise ValueError(f"support state {outside} lies outside the domain")
    faces = (
        frozenset((i, s) for i in range(net.n) for s in (-1, +1))
        if truncation_faces is None
        else truncation_faces
    )
    margin = _margin(net)

    # Weights and propensities of the support, with a zero row at index -1
    # standing for every state outside it.
    weight = np.append([mu.weights[x] for x in support], 0.0)
    rates = np.zeros((len(points) + 1, net.r))
    rows = np.full(len(points), -1)
    if component is not None:
        index = _Frame(component.points.min(axis=0), component.points.max(axis=0))
        rows = _find(index.keys(component.points), index.keys(points))
        rates[:-1][rows >= 0] = component.rates[rows[rows >= 0]]
    if np.any(rows < 0):
        rates[:-1][rows < 0] = propensities(sys, points[rows < 0])
    flux_scale = max(0.0, float(np.max(weight * rates.sum(axis=1))))

    # Row j of ``shifts`` is an offset that an equation reads, 0 and -v_k
    # first; a cycle reads y_u for its complexes u, which have reactions in
    # and out (the hubs).
    equations = _balance_equations(net)
    vecs = net.reaction_vectors
    hubs = np.array(sorted({r.source for r in net.reactions} & {r.target for r in net.reactions})
                    if cycles_of(net) else [], dtype=np.int64)
    read = [np.zeros(net.n, dtype=np.int64), *(-vecs)]
    read += [d for *_, lhs, rhs in equations for d, _ in lhs + rhs]
    read += [np.array(net.complexes[u].coeffs) for u in hubs]
    row = {key: j for j, key in enumerate(dict.fromkeys(tuple(d.tolist()) for d in read))}
    shifts = np.array(list(row), dtype=np.int64).reshape(len(row), net.n)
    # The candidates ``x``, relative to the support's least corner ``lo``, are
    # the support shifted back by every offset, sorted; row j of ``pos`` is the
    # support row of each x + shifts[j] (-1 where absent), of ``inner`` whether
    # it is trusted.  |d| is at most the margin, so the frame holds every x + d:
    # no sum wraps, and clipping the trusted bounds to it changes no comparison.
    top = [h - l + 2 * margin for l, h in zip(lo, hi)]
    frame = _Frame([-2 * margin] * net.n, top)
    trusted_lo = np.array([max(b - l + margin * ((i, -1) in faces), -2 * margin)
                           for i, (b, l) in enumerate(zip(domain.lower, lo))])
    trusted_hi = np.array([min(b - l - margin * ((i, +1) in faces), t)
                           for i, (b, l, t) in enumerate(zip(domain.upper, lo, top))])
    rel = points - np.array(lo, dtype=np.int64)
    support_keys = frame.keys(rel)
    shift_keys = shifts @ frame.strides
    # not np.unique, whose hash table costs 1.5 MB of resident memory on first use
    keys = np.sort(support_keys - shift_keys[:, None], axis=None, kind="stable")
    keys = keys[np.diff(keys, prepend=keys[:1] - 1) != 0]
    pos = np.full((len(shifts), len(keys)), -1, dtype=np.int64)
    x = np.zeros((len(keys), net.n), dtype=np.int64)
    for j, d in enumerate(shifts):
        at = np.searchsorted(keys, support_keys - shift_keys[j])
        pos[j, at] = np.arange(len(rel))
        x[at] = rel - d
    inner = np.array([((x >= trusted_lo - d) & (x <= trusted_hi - d)).all(axis=1) for d in shifts])

    def mismatch(lhs, rhs):
        """First instance whose scalar balance equation fails, or None."""
        lhs, rhs = np.broadcast_arrays(lhs, rhs)
        bad = np.flatnonzero(~_balanced(lhs, rhs, tol, flux_scale))
        return None if not len(bad) else (bad[0], lhs[bad[0]], rhs[bad[0]])

    # [checked, skipped, witness] per condition
    tallies = {name: [0, 0, None] for name in ("rb", "cb", "rvb", "cyb", "stationary")}

    def run_instances(name, label, refs, evaluate, among=True):
        """An instance at x references x + d for each d in ``refs``; its
        candidates are the x ``among`` those for which one of them is in
        the support."""
        tally = tallies[name]
        js = [row[tuple(d.tolist())] for d in refs]
        candidate = (pos[js] >= 0).any(axis=0) & among
        (checked,) = np.nonzero(candidate & inner[js].all(axis=0))
        tally[0] += len(checked)
        tally[1] += int(candidate.sum()) - len(checked)
        if tally[2] is None and len(checked):
            found = evaluate(checked)
            if found is not None:
                i, lhs, rhs = found
                state = tuple(v + l for v, l in zip(x[checked[i]].tolist(), lo))
                tally[2] = Verdict.fail(state, label, lhs, rhs)

    def flux(at, shift, reactions):
        """mu(x + shift) times the total rate of ``reactions`` there, at x[at]."""
        i = pos[row[tuple(shift.tolist())], at]
        return weight[i] * _in_order_sum(rates[i, k] for k in reactions)

    def evaluate(at, condition, lhs, rhs):
        fwd = [flux(at, *group) for group in lhs]
        bwd = [flux(at, *group) for group in rhs]
        if condition != "cyb":
            return mismatch(_in_order_sum(fwd), _in_order_sum(bwd))
        # products are compared one instance at a time in log space
        instances = zip(np.transpose(fwd).tolist(), np.transpose(bwd).tolist())
        for i, (f, b) in enumerate(instances):
            bad = _log_product_mismatch(f, b, tol, flux_scale)
            if bad is not None:
                return (i, *bad)
        return None

    for condition, label, lhs, rhs in equations:
        refs = [d for d, _ in lhs + rhs]
        run_instances(condition, label, refs, lambda at: evaluate(at, condition, lhs, rhs))

    # Cycle balance at the x with some x + y_u in the support, grouped by
    # which hubs have an untrusted state and which a zero flux
    js = [row[net.complexes[u].coeffs] for u in hubs]
    (cand,) = np.nonzero((pos[js] >= 0).any(axis=0))
    cycles = {}
    if len(cand):
        # mu(x + y_u) * lambda_u(x + y_u) is zero off the support and off the orthant
        zero = (pos[js][:, cand] < 0) | (x[cand] + lo < 0).any(axis=1)
        untrusted = ~inner[js][:, cand]
        codes = np.packbits(np.concatenate([zero, untrusted]), axis=0)
        order = np.lexsort(codes)
        for group in np.split(order, np.flatnonzero(np.diff(codes[:, order]).any(axis=0)) + 1):
            far, idle = (hubs[rows[:, group[0]]].tolist() for rows in (untrusted, zero))
            basis = _cycle_equations(net, frozenset(far + idle))
            trusted = len(cycles_of(net, frozenset(far)))
            # the trusted basis cycles through a zero flux hold and count as checked
            tallies["cyb"][0] += len(group) * (trusted - len(basis))
            tallies["cyb"][1] += len(group) * (len(cycles_of(net)) - trusted)
            for cycle, equation in basis.items():
                among = cycles.setdefault(cycle, (equation, np.zeros(len(keys), dtype=bool)))[1]
                among[cand[group]] = True
    for cycle in sorted(cycles, key=lambda c: (len(c), c)):
        (condition, label, lhs, rhs), among = cycles[cycle]
        refs = [d for d, _ in lhs + rhs]
        run_instances(condition, label, refs, lambda at: evaluate(at, condition, lhs, rhs), among)

    # stationarity: the single global-balance equation per state
    def stationarity(at):
        i = pos[0, at]
        return mismatch(
            weight[i] * rates[i].sum(axis=1),
            _in_order_sum(flux(at, -vecs[k], (k,)) for k in range(net.r)),
        )

    run_instances("stationary", "stationary", [shifts[0], *(-vecs)], stationarity)

    # a condition fails at its witness, is undetermined when every instance
    # of it was skipped, and holds otherwise
    verdicts = {
        name: witness or (Verdict.undetermined() if skipped and not checked else Verdict.ok())
        for name, (checked, skipped, witness) in tallies.items()
    }
    return MeasureBalanceReport(
        **verdicts, boundary_skipped=sum(skipped for _, skipped, _ in tallies.values())
    )


def classify_component_measure(
    sys: MassActionSystem,
    component: ComponentResult,
    mu: Measure,
    tol: float = 1e-9,
) -> MeasureBalanceReport:
    """Classify a component's measure with the component-derived domain,
    reading the propensities at its support from the component's index."""
    domain, faces = classification_domain(sys, component)
    return _classify(sys, mu, domain, tol, faces, component)
