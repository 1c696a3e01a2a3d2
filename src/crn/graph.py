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
from .kinetics import det_rates, propensity
from .model import (
    Complex,
    MassActionSystem,
    ReactionNetwork,
    SpeciesTable,
    build_network,
    empty_network,
    is_discrete_state,
    stoichiometric_dimension,
)

DEFAULT_CYCLE_BUDGET = 10**6


@dataclass(frozen=True)
class LinkagePartition:
    """Connected components of the undirected reaction graph."""

    classes: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.classes)


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


def linkage_classes(net: ReactionNetwork) -> LinkagePartition:
    """Connected components of (complexes, reactions + reversed reactions)."""
    adj: list[set[int]] = [set() for _ in range(net.m)]
    for rxn in net.reactions:
        adj[rxn.source].add(rxn.target)
        adj[rxn.target].add(rxn.source)
    seen = [False] * net.m
    classes = [
        tuple(sorted(_reach(adj, start, seen))) for start in range(net.m) if not seen[start]
    ]
    return LinkagePartition(tuple(classes))


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
    value = net.m - len(linkage_classes(net)) - stoichiometric_dimension(net)
    assert value >= 0
    return value


def simple_cycles(
    net: ReactionNetwork,
    min_len: int = 3,
    budget: int = DEFAULT_CYCLE_BUDGET,
) -> list[DirectedCycle]:
    """All directed simple cycles with at least ``min_len`` complexes.

    Each cycle is emitted once, rotated so its smallest complex index comes
    first; the output is sorted by (length, complex tuple).  Raises
    :class:`CycleBudgetExceededError` beyond ``budget`` cycles.
    """
    if min_len < 3:
        raise ValueError("min_len must be at least 3")
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
                    if len(path) >= min_len:
                        cycles.append(DirectedCycle(tuple(path)))
                        if len(cycles) > budget:
                            raise CycleBudgetExceededError(
                                f"more than {budget} directed cycles"
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
def _cached_cycles(net: ReactionNetwork) -> tuple[DirectedCycle, ...]:
    return tuple(simple_cycles(net))


def cycles_of(net: ReactionNetwork, budget: int = DEFAULT_CYCLE_BUDGET) -> tuple[DirectedCycle, ...]:
    """Memoized directed-cycle enumeration at the default minimum length."""
    if budget != DEFAULT_CYCLE_BUDGET:
        return tuple(simple_cycles(net, budget=budget))
    return _cached_cycles(net)


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
    active: set[int] = set()
    for x in states:
        rates = propensity(sys, x) if is_discrete_state(x) else det_rates(sys, x)
        active.update(int(k) for k in np.nonzero(rates > 0)[0])
        if len(active) == net.r:
            break
    if not active:
        return empty_network()
    used_complexes = sorted(
        {net.reactions[k].source for k in active} | {net.reactions[k].target for k in active}
    )
    used_species = [
        j for j in range(net.n)
        if any(net.complexes[i].coeffs[j] != 0 for i in used_complexes)
    ]
    table = SpeciesTable(tuple(net.species.names[j] for j in used_species))
    new_complexes = [
        Complex(tuple(net.complexes[i].coeffs[j] for j in used_species))
        for i in used_complexes
    ]
    pos = {old: new for new, old in enumerate(used_complexes)}
    from .model import Reaction  # local import to avoid a cluttered header

    new_reactions = [
        Reaction(pos[net.reactions[k].source], pos[net.reactions[k].target])
        for k in sorted(active)
    ]
    return build_network(table, new_complexes, new_reactions)
