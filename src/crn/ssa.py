"""Exact stochastic simulation (direct method) and occupancy estimation.

Rates come from :func:`crn.kinetics.propensities`, the same definition the
stationary solver reads, evaluated once per visited state (with that
state's one-jump successors) and memoized along one path.  A state off the
nonnegative orthant has no positive rate, so a path started there stays
put.

Randomness comes from numpy's counter-based Philox generator keyed by the
64-bit seed, so paths are bit-reproducible across runs and platforms.
Replicas should use ``seed + replica_index``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

import numpy as np

from .errors import NotNormalizedError, PathExplosionError
from .kinetics import propensities
from .model import MassActionSystem, Measure, discrete_state

__all__ = ["SsaConfig", "ssa_path", "occupancy_measure", "tv_distance"]

DEFAULT_JUMP_CAP = 10**8
# Rows a path keeps memoized; past this the memo starts again empty, so a
# path that keeps meeting new states holds memory for its occupancy alone.
_MEMO_ROWS = 2**16


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


def _events(sys: MassActionSystem, x0, cfg: SsaConfig, jump_cap: int):
    """Yields (event_time, new_state) pairs until t_end or absorption."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed & (2**64 - 1))))
    vectors = [tuple(int(v) for v in row) for row in sys.network.reaction_vectors]
    rows: dict[tuple[int, ...], tuple[float, ...]] = {}
    x = discrete_state(x0, sys.network.n)
    t = 0.0
    jumps = 0
    while True:
        if x not in rows:
            if len(rows) > _MEMO_ROWS:
                rows.clear()
            batch = [x] + [tuple(map(add, x, vec)) for vec in vectors]
            rows.update(zip(batch, map(tuple, propensities(sys, batch).tolist())))
        a = rows[x]
        total = sum(a)
        if total <= 0.0:
            return
        t += rng.exponential(1.0 / total)
        if t > cfg.t_end:
            return
        u = rng.random() * total
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
    path.extend(_events(sys, x0, cfg, jump_cap))
    return path


def occupancy_measure(
    sys: MassActionSystem,
    x0,
    cfg: SsaConfig,
    jump_cap: int = DEFAULT_JUMP_CAP,
) -> Measure:
    """Time-weighted occupancy over (burn_in, t_end], normalized."""
    burn_in = cfg.effective_burn_in
    horizon = cfg.t_end
    weights: dict[tuple[int, ...], float] = {}
    prev_t = 0.0
    prev_x = discrete_state(x0, sys.network.n)
    for t, x in _events(sys, x0, cfg, jump_cap):
        span = min(t, horizon) - max(prev_t, burn_in)
        if span > 0:
            weights[prev_x] = weights.get(prev_x, 0.0) + span
        prev_t, prev_x = t, x
    span = horizon - max(prev_t, burn_in)
    if span > 0:
        weights[prev_x] = weights.get(prev_x, 0.0) + span
    total = sum(weights.values())
    return Measure(
        {x: w / total for x, w in sorted(weights.items()) if w > 0}, normalized=True
    )


def tv_distance(mu: Measure, nu: Measure) -> float:
    """Total-variation distance between two distributions."""
    for m in (mu, nu):
        if not m.normalized:
            raise NotNormalizedError("tv_distance needs normalized measures")
    states = set(mu.weights) | set(nu.weights)
    return 0.5 * sum(abs(mu(x) - nu(x)) for x in states)
