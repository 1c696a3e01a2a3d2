"""Structural analysis of the reaction graph.

All functions are pure and deterministic: complexes are already in canonical
order, neighbors are visited in ascending index order, and cycle output is
canonically rotated (smallest complex index first).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CycleBudgetExceededError, EmptyNetworkError
from .kinetics import det_rates, propensities
from .model import (
    Complex,
    MassActionSystem,
    Reaction,
    ReactionNetwork,
    SpeciesTable,
    build_network,
    stoichiometric_basis,
)

# Cycles enumerated before simple_cycles gives up on a network.
_CYCLE_BUDGET = 10**6


@dataclass(frozen=True)
class DirectedCycle:
    """A directed simple cycle of length >= 3, rotated so the smallest
    complex index comes first."""

    complexes: tuple[int, ...]

    def __post_init__(self):
        if len(self.complexes) < 3:
            raise ValueError("directed cycles must have at least 3 complexes")
        if len(set(self.complexes)) != len(self.complexes):
            raise ValueError("cycle complexes must be distinct")

    def edges(self) -> list[tuple[int, int]]:
        cs = self.complexes
        return [(cs[i], cs[(i + 1) % len(cs)]) for i in range(len(cs))]


def _out_neighbors(net: ReactionNetwork) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(net.m)]
    for rxn in net.reactions:
        out[rxn.source].append(rxn.target)
    for lst in out:
        lst.sort()
    return out


def _reach(adj, start: int, seen: list[bool]) -> list[int]:
    """Nodes reachable from ``start`` along ``adj`` that were not yet
    ``seen``; marks them seen."""
    stack, found = [start], []
    seen[start] = True
    while stack:
        node = stack.pop()
        found.append(node)
        for nxt in adj[node]:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append(nxt)
    return found


def linkage_classes(net: ReactionNetwork) -> tuple[tuple[int, ...], ...]:
    """Connected components of (complexes, reactions + reversed reactions).

    Each class is a sorted tuple of complex indices; classes are ordered by
    their smallest complex.
    """
    adj: list[set[int]] = [set() for _ in range(net.m)]
    for rxn in net.reactions:
        adj[rxn.source].add(rxn.target)
        adj[rxn.target].add(rxn.source)
    seen = [False] * net.m
    return tuple(
        tuple(sorted(_reach(adj, start, seen))) for start in range(net.m) if not seen[start]
    )


def is_reversible(net: ReactionNetwork) -> bool:
    """True iff the edge set is symmetric.  The empty network is reversible."""
    edges = set(net.edge_index)
    return all((t, s) in edges for s, t in edges)


def is_weakly_reversible(net: ReactionNetwork) -> bool:
    """True iff every reaction's source is reachable from its target."""
    out = _out_neighbors(net)
    targets = {r.target for r in net.reactions}
    reach = {t: set(_reach(out, t, [False] * net.m)) for t in targets}
    return all(r.source in reach[r.target] for r in net.reactions)


def deficiency(net: ReactionNetwork) -> int:
    """m - (number of linkage classes) - dim(stoichiometric subspace)."""
    if net.is_empty:
        raise EmptyNetworkError("deficiency is undefined for the empty network")
    value = net.m - len(linkage_classes(net)) - len(stoichiometric_basis(net)[0])
    assert value >= 0
    return value


def simple_cycles(net: ReactionNetwork) -> list[DirectedCycle]:
    """All directed simple cycles of at least 3 complexes.

    Each cycle is emitted once, rotated so its smallest complex index comes
    first; the output is sorted by (length, complex tuple).  A reversible
    pair is not a cycle.  Raises :class:`CycleBudgetExceededError` beyond
    ``_CYCLE_BUDGET`` cycles.
    """
    out = _out_neighbors(net)
    cycles: list[DirectedCycle] = []
    for root in range(net.m):
        # Depth-first search over paths whose interior nodes all exceed the
        # root, which makes the root the canonical rotation point.
        path = [root]
        on_path = {root}
        iters = [iter(out[root])]
        while iters:
            found_child = False
            for nxt in iters[-1]:
                if nxt == root:
                    if len(path) >= 3:
                        cycles.append(DirectedCycle(tuple(path)))
                        if len(cycles) > _CYCLE_BUDGET:
                            raise CycleBudgetExceededError(
                                f"more than {_CYCLE_BUDGET} directed cycles"
                            )
                    continue
                if nxt > root and nxt not in on_path:
                    path.append(nxt)
                    on_path.add(nxt)
                    iters.append(iter(out[nxt]))
                    found_child = True
                    break
            if not found_child:
                on_path.discard(path.pop())
                iters.pop()
    cycles.sort(key=lambda cy: (len(cy.complexes), cy.complexes))
    return cycles


@lru_cache(maxsize=512)
def cycles_of(net: ReactionNetwork) -> tuple[DirectedCycle, ...]:
    """Memoized :func:`simple_cycles`."""
    return tuple(simple_cycles(net))


def active_subnetwork(sys: MassActionSystem, states) -> ReactionNetwork:
    """Subnetwork of reactions with positive rate at some state in ``states``.

    Discrete states (int tuples) are evaluated with stochastic rates,
    concentration vectors with deterministic rates.  Species and complexes
    are restricted to those appearing in the active reactions; the result may
    be the empty network.
    """
    net = sys.network
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    counts = [x for x in states if isinstance(x, tuple)]
    det = [c for c in states if not isinstance(c, tuple)] or np.empty((0, net.n))
    rates = np.vstack([propensities(sys, counts), det_rates(sys, np.array(det, dtype=float))])
    active = np.flatnonzero((rates > 0).any(axis=0)).tolist()
    reactions = [net.reactions[k] for k in active]
    ends = [net.complexes[i] for rxn in reactions for i in (rxn.source, rxn.target)]
    used = [j for j in range(net.n) if any(cx.coeffs[j] for cx in ends)]
    # reaction k of the subnetwork is the pair of complexes 2k -> 2k + 1
    return build_network(
        SpeciesTable(tuple(net.species.names[j] for j in used)),
        [Complex(tuple(cx.coeffs[j] for j in used)) for cx in ends],
        [Reaction(2 * k, 2 * k + 1) for k in range(len(reactions))],
    )
