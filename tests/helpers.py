"""Shared test utilities: the example networks, random system generators,
brute-force oracles, and runners for a call's outcome and a fresh
interpreter's loaded modules.

Generators are driven by a caller-supplied numpy Generator so suites can pin
a master seed.  Oracles are deliberately naive re-derivations (union-find,
path search, permutation enumeration) kept independent of the library's own
algorithms.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import subprocess
import sys
from itertools import permutations

import numpy as np

import crn
from crn import (
    Complex,
    MassActionSystem,
    Reaction,
    SpeciesTable,
    build_network,
    parse_network,
    stoch,
)

NETWORKS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "networks"
# The example networks by name, as the text of their ``.crn`` files.
CORPUS: dict[str, str] = {
    path.stem: path.read_text(encoding="utf-8") for path in sorted(NETWORKS.glob("*.crn"))
}


def load(name: str) -> MassActionSystem:
    """Parse one of the example networks by name."""
    return parse_network(CORPUS[name])


def compositions(total, parts):
    """All ways to write ``total`` as an ordered sum of ``parts`` >= 0 terms."""
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def _species_names(n):
    return tuple("ABCDEFG"[:n])


def random_conservative_reversible_system(rng, balanced=None):
    """Reversible system whose complexes share one total degree.

    Equal degrees make the total molecule count a conserved quantity, so
    every stochastic component is finite.  With ``balanced=True`` the rate
    constants are constructed from a random positive state so a reaction
    balanced state exists; ``None`` flips a coin.
    """
    if balanced is None:
        balanced = bool(rng.random() < 0.5)
    while True:
        n = int(rng.integers(2, 4))
        degree = int(rng.integers(1, 4))
        pool = compositions(degree, n)
        m = int(rng.integers(2, min(5, len(pool)) + 1))
        idx = rng.choice(len(pool), size=m, replace=False)
        vecs = [pool[i] for i in sorted(idx)]
        if any(all(v[j] == 0 for v in vecs) for j in range(n)):
            continue
        # random connected undirected graph: a tree plus optional chords
        edges = set()
        order = list(rng.permutation(m))
        for a, b in zip(order, order[1:]):
            edges.add((min(a, b), max(a, b)))
        for _ in range(int(rng.integers(0, m))):
            a, b = rng.integers(0, m, size=2)
            if a != b:
                edges.add((min(int(a), int(b)), max(int(a), int(b))))
        reactions = []
        for a, b in sorted(edges):
            reactions.append(Reaction(a, b))
            reactions.append(Reaction(b, a))
        species = SpeciesTable(_species_names(n))
        net = build_network(species, [Complex(v) for v in vecs], reactions)
        if balanced:
            c = np.exp(rng.uniform(-1.0, 1.0, size=n))
            kappa = {}
            for rxn in net.reactions:
                if rxn.source < rxn.target:
                    continue
                fwd = float(np.exp(rng.uniform(-1.0, 1.0)))
                y_src = np.array(net.complexes[rxn.source].coeffs)
                y_tgt = np.array(net.complexes[rxn.target].coeffs)
                bwd = fwd * float(np.prod(c ** (y_src - y_tgt)))
                kappa[rxn] = fwd
                kappa[Reaction(rxn.target, rxn.source)] = bwd
        else:
            kappa = {
                rxn: float(np.exp(rng.uniform(-1.5, 1.5))) for rxn in net.reactions
            }
        return MassActionSystem.from_map(net, kappa)


def random_one_species_reversible_system(rng, balanced=None, max_degree=4):
    """Reversible one-species system (complexes are multiples of A).

    One-species components have interval supports, on which no nonzero
    low-degree polynomial vanishes, so the deterministic/stochastic balance
    bridge is two-way checkable on them.
    """
    if balanced is None:
        balanced = bool(rng.random() < 0.5)
    while True:
        m = int(rng.integers(2, 5))
        degrees = sorted(int(v) for v in rng.choice(max_degree + 1, size=m, replace=False))
        if all(d == 0 for d in degrees):
            continue
        edges = set()
        order = list(rng.permutation(m))
        for a, b in zip(order, order[1:]):
            edges.add((min(a, b), max(a, b)))
        for _ in range(int(rng.integers(0, m))):
            a, b = rng.integers(0, m, size=2)
            if a != b:
                edges.add((min(int(a), int(b)), max(int(a), int(b))))
        reactions = []
        for a, b in sorted(edges):
            reactions.append(Reaction(a, b))
            reactions.append(Reaction(b, a))
        net = build_network(
            SpeciesTable(("A",)), [Complex((d,)) for d in degrees], reactions
        )
        if balanced:
            c = float(np.exp(rng.uniform(-0.7, 0.7)))
            kappa = {}
            for rxn in net.reactions:
                if rxn.source < rxn.target:
                    continue
                fwd = float(np.exp(rng.uniform(-1.0, 1.0)))
                d_src = net.complexes[rxn.source].degree
                d_tgt = net.complexes[rxn.target].degree
                kappa[rxn] = fwd
                kappa[Reaction(rxn.target, rxn.source)] = fwd * c ** (d_src - d_tgt)
        else:
            kappa = {
                rxn: float(np.exp(rng.uniform(-1.5, 1.5))) for rxn in net.reactions
            }
        return MassActionSystem.from_map(net, kappa)


def random_weakly_reversible_deficiency_zero(rng, max_tries=200):
    """Weakly reversible, deficiency-zero, degree-homogeneous system."""
    from crn import deficiency, is_weakly_reversible

    for _ in range(max_tries):
        n = int(rng.integers(2, 4))
        degree = int(rng.integers(1, 4))
        pool = compositions(degree, n)
        if len(pool) < 3:
            continue
        m = int(rng.integers(3, min(5, len(pool)) + 1))
        idx = rng.choice(len(pool), size=m, replace=False)
        vecs = [pool[i] for i in sorted(idx)]
        if any(all(v[j] == 0 for v in vecs) for j in range(n)):
            continue
        order = list(rng.permutation(m))
        reactions = [
            Reaction(int(a), int(b)) for a, b in zip(order, order[1:] + order[:1])
        ]
        species = SpeciesTable(_species_names(n))
        try:
            net = build_network(species, [Complex(v) for v in vecs], reactions)
        except Exception:
            continue
        if not is_weakly_reversible(net) or deficiency(net) != 0:
            continue
        kappa = {rxn: float(np.exp(rng.uniform(-1.0, 1.0))) for rxn in net.reactions}
        return MassActionSystem.from_map(net, kappa)
    raise RuntimeError("could not generate a deficiency-zero network")


def _dsl_complex(coeffs, names):
    terms = [name if c == 1 else f"{c}{name}" for c, name in zip(coeffs, names) if c]
    return " + ".join(terms) or "0"


def random_irreversible_system(rng, max_species=3, max_reactions=6):
    """Network of 1 to ``max_species`` species and 1 to ``max_reactions``
    directed reactions between random complexes with coefficients 0..2.

    Reactions are drawn one way each, so a reverse pair occurs only by
    chance and most networks have transient states and open classes.
    """
    while True:
        n = int(rng.integers(1, max_species + 1))
        pairs = set()
        for _ in range(int(rng.integers(1, max_reactions + 1))):
            src, tgt = (tuple(int(v) for v in rng.integers(0, 3, size=n)) for _ in "st")
            if src != tgt:
                pairs.add((src, tgt))
        if not pairs or any(all(src[j] == tgt[j] == 0 for src, tgt in pairs) for j in range(n)):
            continue
        names = _species_names(n)
        return parse_network("\n".join(
            f"{_dsl_complex(src, names)} -> {_dsl_complex(tgt, names)} : "
            f"{float(np.exp(rng.uniform(-1.0, 1.0))):.3f}"
            for src, tgt in sorted(pairs)
        ))


def random_positive_state(rng, n, lo=0.2, hi=3.0):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))


def relisted(sys, comp, states):
    """``comp`` built by hand from ``states``, which list its states in any
    order."""
    flags = {f.name: getattr(comp, f.name) for f in dataclasses.fields(comp) if f.compare}
    return stoch.ComponentResult.from_states(sys, states, **flags)


def outcome(fn, *args, **kwargs):
    """Result of a call, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs), None
    except crn.errors.CrnError as exc:
        return None, (type(exc), str(exc))


def loaded_modules(code: str) -> set[str]:
    """Names in ``sys.modules`` after ``code`` runs in a fresh interpreter
    that imports ``crn`` from the same source tree as this process."""
    src = str(pathlib.Path(crn.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = f"{code}\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def linkage_oracle(net):
    """Union-find over undirected reactions."""
    parent = list(range(net.m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for rxn in net.reactions:
        ra, rb = find(rxn.source), find(rxn.target)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for i in range(net.m):
        groups.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(g)) for g in groups.values())


def weakly_reversible_oracle(net):
    """Every edge lies on some directed cycle (2-cycles included)."""
    out = {}
    for rxn in net.reactions:
        out.setdefault(rxn.source, []).append(rxn.target)

    def reachable(src, dst):
        seen, stack = {src}, [src]
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            for nxt in out.get(node, []):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    return all(reachable(r.target, r.source) for r in net.reactions)


def cycles_oracle(net, min_len=3):
    """All directed simple cycles by brute-force permutation enumeration of
    the complexes with reactions in and out."""
    edges = {(r.source, r.target) for r in net.reactions}
    found = set()
    nodes = sorted({s for s, _ in edges} & {t for _, t in edges})
    for size in range(min_len, len(nodes) + 1):
        for combo in permutations(nodes, size):
            if combo[0] != min(combo):
                continue
            closed = all(
                (combo[i], combo[(i + 1) % size]) in edges for i in range(size)
            )
            if closed:
                found.add(combo)
    return found


def stationary_oracle(states, moves):
    """Dense null-space solve of the global balance equations.

    ``moves`` maps each state to its (target, rate) list, already restricted
    to ``states``.  Independent of the library's banded GTH elimination; a
    least-squares solve is accurate only in norm, so compare it with an
    absolute tolerance.
    """
    index = {x: i for i, x in enumerate(states)}
    size = len(states)
    A = np.zeros((size + 1, size))
    for x, lst in moves.items():
        i = index[x]
        for target, rate in lst:
            A[index[target], i] += rate
            A[i, i] -= rate
    A[size, :] = 1.0
    b = np.zeros(size + 1)
    b[size] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return {x: float(pi[index[x]]) for x in states}
