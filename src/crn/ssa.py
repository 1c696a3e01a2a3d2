"""Exact stochastic simulation (direct method) and occupancy estimation.

Rates come from :func:`crn.kinetics.propensities`, the same definition the
stationary solver reads, evaluated for a newly met state together with its
one-jump successors and memoized along one path.  The path numbers a state
the first time it moves there and keeps, by number, the state, its
occupancy, the number each reaction leads to once that move is followed,
and the running sums of its propensities, the last their total, once it
stands there; a move made before is list indexing alone, with no tuple
built or hashed.  Every float sum is taken left to right, so the same seed
gives the same path on every Python version.  A jump takes one pair of
draws, a holding time of ``1/total`` times a standard exponential and a
uniform ``u`` times the total, and a bisection of the running sums for the
first one above ``u`` (else the last reaction), which picks what a linear
scan picks (Cao, Li & Petzold 2004).  The same loop adds each holding time
within (burn_in, t_end] to the occupancy and, for :func:`ssa_path`,
appends the jump to the path.  A state off the nonnegative orthant has no
positive rate, so a path started there stays put; a state whose total
propensity is not finite raises :class:`NonFiniteStateError`.

Randomness comes from numpy's counter-based Philox generator keyed by the
64-bit seed, drawn as ``_DRAW_BLOCK`` standard exponentials, then as many
uniforms, at a time: a path is a function of the seed and this layout, the
same bits across runs and platforms.  Replicas use ``seed + replica_index``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import add

import numpy as np

from .errors import NonFiniteStateError, NotNormalizedError, PathExplosionError
from .kinetics import propensities
from .model import MassActionSystem, Measure, _in_order_sum, discrete_state

__all__ = ["SsaConfig", "ssa_path", "occupancy_measure", "tv_distance"]

DEFAULT_JUMP_CAP = 10**8
# Numbered and fetched rows a path keeps memoized; past this the memo starts
# again empty and the states are numbered anew, their occupancy carried over,
# so a path that keeps meeting new states holds memory for its occupancy alone.
_MEMO_ROWS = 2**16
_DRAW_BLOCK = 256  # draw pairs per block; the block layout is part of what defines a path


@dataclass(frozen=True)
class SsaConfig:
    seed: int
    t_end: float
    burn_in: float | None = None  # defaults to 1% of t_end

    def __post_init__(self):
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if not np.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if self.burn_in is not None and not (0 <= self.burn_in < self.t_end):
            raise ValueError("burn_in must satisfy 0 <= burn_in < t_end")

    @property
    def effective_burn_in(self) -> float:
        return 0.01 * self.t_end if self.burn_in is None else self.burn_in

    def replica(self, index: int) -> "SsaConfig":
        return SsaConfig(self.seed + index, self.t_end, self.burn_in)


def _run(sys: MassActionSystem, x0, cfg: SsaConfig, jump_cap: int, path) -> dict:
    """Runs one path to t_end or absorption; returns its occupancy weights.

    The weights are the time spent in each state within (burn_in, t_end],
    in the order each state's first positive span was added.
    Each jump appends (event_time, new_state) to ``path`` unless it is None.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed & (2**64 - 1))))
    # (standard exponential, uniform) pairs, drawn _DRAW_BLOCK at a time
    draws = chain.from_iterable(
        zip(rng.standard_exponential(_DRAW_BLOCK).tolist(), rng.random(_DRAW_BLOCK).tolist())
        for _ in repeat(None)
    )
    vectors = [tuple(int(v) for v in row) for row in sys.network.reaction_vectors]
    r, last = len(vectors), len(vectors) - 1
    unset = [-1] * r
    burn_in, horizon = cfg.effective_burn_in, cfg.t_end
    # propensity rows fetched for states not yet visited
    fetched: dict[tuple[int, ...], tuple[float, ...]] = {}
    x = discrete_state(x0, sys.network.n)
    # the start and the states the path moves into, numbered in that order:
    # states[i], its running sums (None until the path stands there), its
    # occupancy, and succ[i * r + k], the number reaction k leads to (-1
    # until followed)
    number = {x: 0}
    states, rows, occ, succ = [x], [None], [0.0], unset[:]
    # a state's key is placed at its first positive span and its value is
    # taken from occ when the memo starts again and at the end
    weights: dict[tuple[int, ...], float] = {}
    i, t, jumps, near = 0, 0.0, 0, -1
    with np.errstate(over="ignore"):
        for e, u in draws:
            row = rows[i]
            if row is None:
                x = states[i]
                a = fetched.pop(x, None)
                if a is None:
                    if len(fetched) + len(states) > _MEMO_ROWS:
                        weights.update(compress(zip(states, occ), occ))
                        fetched.clear()
                        number = {x: 0}
                        states, rows, occ, succ = [x], [None], [weights.get(x, 0.0)], unset[:]
                        i = 0
                    batch = [x] + [tuple(map(add, x, vec)) for vec in vectors]
                    fetched.update(zip(batch, map(tuple, propensities(sys, batch).tolist())))
                    a = fetched.pop(x)
                    near = i  # batch holds the successors of state near
                # running sums, the last the total (0 with no reactions)
                row = tuple(accumulate(a)) or (0.0,)
                if not row[-1] < math.inf:
                    raise NonFiniteStateError(f"total propensity at state {list(x)} is {row[-1]}")
                if row[-1] <= 0.0:
                    break
                rows[i] = row
            total = row[-1]
            # a holding time of scale 1/total, as numpy's exponential() forms it
            s = t + 1.0 / total * e
            if s > horizon:
                break
            # the first reaction whose running sum exceeds u, else the last
            k = bisect_right(row, u * total, 0, last)
            j = succ[i * r + k]
            if j < 0:
                y = batch[k + 1] if near == i else tuple(map(add, states[i], vectors[k]))
                j = number.setdefault(y, len(states))
                if j == len(states):  # new to this memo; occ keeps what it gathered before
                    states.append(y)
                    rows.append(None)
                    occ.append(weights.get(y, 0.0))
                    succ += unset
                succ[i * r + k] = j
            span = s - (t if t > burn_in else burn_in)
            if span > 0:
                w = occ[i]
                if not w:
                    weights[states[i]] = 0.0
                occ[i] = w + span
            jumps += 1
            if jumps > jump_cap:
                raise PathExplosionError(f"path exceeded {jump_cap} jumps before t_end")
            if path is not None:
                path.append((s, states[j]))
            t, i = s, j
    span = horizon - (t if t > burn_in else burn_in)
    if span > 0:
        weights.setdefault(states[i], 0.0)
        occ[i] += span
    weights.update(compress(zip(states, occ), occ))
    return weights


def ssa_path(
    sys: MassActionSystem,
    x0,
    cfg: SsaConfig,
    jump_cap: int = DEFAULT_JUMP_CAP,
) -> list[tuple[float, tuple[int, ...]]]:
    """Exact direct-method jump path from ``x0`` up to ``cfg.t_end``.

    The path starts with ``(0.0, x0)``; an absorbing initial state yields
    just that entry.
    """
    path = [(0.0, discrete_state(x0, sys.network.n))]
    _run(sys, x0, cfg, jump_cap, path)
    return path


def occupancy_measure(
    sys: MassActionSystem,
    x0,
    cfg: SsaConfig,
    jump_cap: int = DEFAULT_JUMP_CAP,
) -> Measure:
    """Time-weighted occupancy over (burn_in, t_end], normalized."""
    weights = _run(sys, x0, cfg, jump_cap, None)
    total = _in_order_sum(weights.values())
    return Measure(
        {x: w / total for x, w in sorted(weights.items()) if w > 0}, normalized=True
    )


def tv_distance(mu: Measure, nu: Measure) -> float:
    """Total-variation distance between two distributions."""
    for m in (mu, nu):
        if not m.normalized:
            raise NotNormalizedError("tv_distance needs normalized measures")
    states = set(mu.weights) | set(nu.weights)
    return 0.5 * _in_order_sum(abs(mu(x) - nu(x)) for x in states)
