"""Structural analysis of the reaction graph.

All functions are pure and deterministic: complexes are already in canonical
order, neighbors are visited in ascending index order, and cycles are
canonically rotated (smallest complex index first).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import EmptyNetworkError
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


def _out_neighbors(net: ReactionNetwork) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(net.m)]
    for rxn in net.reactions:
        out[rxn.source].append(rxn.target)
    for lst in out:
        lst.sort()
    return out


def _search(adj, start: int, back: dict) -> list[int]:
    """Breadth-first search from ``start`` along ``adj``, past the nodes in
    ``back``: records in ``back`` the node each new one was reached from
    (None for ``start``) and returns the new ones in the order reached."""
    back[start] = None
    queue = [start]
    for node in queue:
        for nxt in adj[node]:
            if nxt not in back:
                back[nxt] = node
                queue.append(nxt)
    return queue


def _walk(back: dict, node: int) -> list[int]:
    """``node`` and the nodes it was reached from, back to the start."""
    path = [node]
    while back[path[-1]] is not None:
        path.append(back[path[-1]])
    return path


def linkage_classes(net: ReactionNetwork) -> tuple[tuple[int, ...], ...]:
    """Connected components of (complexes, reactions + reversed reactions).

    Each class is a sorted tuple of complex indices; classes are ordered by
    their smallest complex.
    """
    adj: list[set[int]] = [set() for _ in range(net.m)]
    for rxn in net.reactions:
        adj[rxn.source].add(rxn.target)
        adj[rxn.target].add(rxn.source)
    back: dict = {}
    return tuple(
        tuple(sorted(_search(adj, start, back))) for start in range(net.m) if start not in back
    )


def is_reversible(net: ReactionNetwork) -> bool:
    """True iff the edge set is symmetric.  The empty network is reversible."""
    edges = set(net.edge_index)
    return all((t, s) in edges for s, t in edges)


def is_weakly_reversible(net: ReactionNetwork) -> bool:
    """True iff every reaction's source is reachable from its target."""
    out = _out_neighbors(net)
    targets = {r.target for r in net.reactions}
    reach = {t: set(_search(out, t, {})) for t in targets}
    return all(r.source in reach[r.target] for r in net.reactions)


def deficiency(net: ReactionNetwork) -> int:
    """m - (number of linkage classes) - dim(stoichiometric subspace)."""
    if net.is_empty:
        raise EmptyNetworkError("deficiency is undefined for the empty network")
    value = net.m - len(linkage_classes(net)) - len(stoichiometric_basis(net)[0])
    assert value >= 0
    return value


def _rotated(cycle: list[int]) -> tuple[int, ...]:
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


@lru_cache(maxsize=1024)
def cycles_of(
    net: ReactionNetwork, dropped: frozenset[int] = frozenset()
) -> tuple[tuple[int, ...], ...]:
    """A cycle basis of the reaction graph without the complexes ``dropped``,
    each cycle rotated to start at its smallest complex, sorted by (length,
    complexes): one fundamental cycle per reversible pair off a breadth-first
    spanning forest of the reversible pairs, in its smaller orientation, and
    one shortest directed cycle through each irreversible reaction that lies
    on a cycle.

    With positive fluxes, cycle balance holds around every directed simple
    cycle iff around these (Schnakenberg 1976, Rev. Mod. Phys. 48:571), and a
    cycle through a complex without flux holds, so callers drop those.
    """
    out = [[] if i in dropped else [j for j in nbrs if j not in dropped]
           for i, nbrs in enumerate(_out_neighbors(net))]
    pairs = [[j for j in out[i] if i in out[j]] for i in range(net.m)]
    forest: dict = {}
    for root in range(net.m):
        if root not in forest:
            _search(pairs, root, forest)
    cycles = set()
    for i in range(net.m):
        for j in out[i]:
            if i not in out[j]:  # a shortest path back from j closes the cycle
                back: dict = {}
                if i in _search(out, j, back):
                    cycles.add(_rotated(_walk(back, i)[::-1]))
            elif i < j and i != forest[j] and j != forest[i]:  # the tree path does
                up, down = _walk(forest, i), _walk(forest, j)
                top = next(node for node in up if node in down)
                path = up[: up.index(top) + 1] + down[: down.index(top)][::-1]
                cycles.add(min(_rotated(path), _rotated(path[::-1])))
    return tuple(sorted(cycles, key=lambda cycle: (len(cycle), cycle)))


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
