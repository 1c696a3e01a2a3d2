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


def linkage_classes(net: ReactionNetwork) -> LinkagePartition:
    """Connected components of (complexes, reactions + reversed reactions)."""
    adj: list[set[int]] = [set() for _ in range(net.m)]
    for rxn in net.reactions:
        adj[rxn.source].add(rxn.target)
        adj[rxn.target].add(rxn.source)
    seen = [False] * net.m
    classes = []
    for start in range(net.m):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            node = stack.pop()
            comp.append(node)
            for nxt in adj[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        classes.append(tuple(sorted(comp)))
    return LinkagePartition(tuple(classes))


def is_reversible(net: ReactionNetwork) -> bool:
    """True iff the edge set is symmetric.  The empty network is reversible."""
    edges = set(net.edge_index)
    return all((t, s) in edges for s, t in edges)


def _strongly_connected_components(m: int, out: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative to dodge recursion limits."""
    index = [-1] * m
    low = [0] * m
    on_stack = [False] * m
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(m):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, ptr = work[-1]
            if ptr == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for i in range(ptr, len(out[node])):
                nxt = out[node][i]
                if index[nxt] == -1:
                    work[-1] = (node, i + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def is_weakly_reversible(net: ReactionNetwork) -> bool:
    """True iff every reaction lies inside a strongly connected component."""
    if net.is_empty:
        return True
    comp_of = {}
    for cid, comp in enumerate(_strongly_connected_components(net.m, _out_neighbors(net))):
        for node in comp:
            comp_of[node] = cid
    return all(comp_of[r.source] == comp_of[r.target] for r in net.reactions)


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
