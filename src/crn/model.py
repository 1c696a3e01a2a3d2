"""Core domain types: networks, mass-action systems, states, measures, verdicts.

Conventions shared by the whole package:

* species are indexed by their position in the ``SpeciesTable`` and every
  vector quantity (complex coefficients, states, conserved quantities) is
  aligned with that order;
* complexes are deduplicated and sorted lexicographically by coefficient
  vector, so networks built from permuted inputs compare equal;
* reactions are pairs of indices into the canonical complex tuple and are
  stored sorted by ``(source, target)``;
* deterministic states are 1-D float arrays, discrete states are tuples of
  Python ints (hashable, usable as measure keys).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .errors import (
    DuplicateReactionError,
    EmptySupportError,
    OrphanComplexError,
    SelfLoopError,
    UnknownReactionError,
    UnusedSpeciesError,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class SpeciesTable:
    """Ordered table of distinct species names."""

    names: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for name in self.names:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid species name {name!r}")
            if name == "0":  # reserved for the empty complex
                raise ValueError("species name '0' is reserved")
            if name in seen:
                raise ValueError(f"duplicate species name {name!r}")
            seen.add(name)

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


@dataclass(frozen=True, order=True)
class Complex:
    """A linear combination of species with nonnegative integer coefficients.

    The zero vector is the empty complex, written ``0`` in the DSL.
    Ordering is lexicographic on the coefficient vector; this is the
    canonical complex order used everywhere.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        for v in self.coeffs:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"complex coefficients must be nonnegative ints, got {self.coeffs}")

    @property
    def degree(self) -> int:
        return sum(self.coeffs)

    @property
    def inf_norm(self) -> int:
        return max(self.coeffs, default=0)

    def format(self, species: SpeciesTable) -> str:
        parts = []
        for coeff, name in zip(self.coeffs, species.names):
            if coeff == 0:
                continue
            parts.append(name if coeff == 1 else f"{coeff}{name}")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True, order=True)
class Reaction:
    """Directed edge between two complexes, stored as canonical indices."""

    source: int
    target: int


@dataclass(frozen=True)
class ReactionNetwork:
    """A validated reaction network (species, complexes, reactions).

    Instances are produced by :func:`build_network`; the constructor does not
    re-validate.  All fields are immutable tuples, so values are hashable and
    safe to share between threads.
    """

    species: SpeciesTable
    complexes: tuple[Complex, ...]
    reactions: tuple[Reaction, ...]

    @property
    def n(self) -> int:
        """Number of species."""
        return len(self.species)

    @property
    def m(self) -> int:
        """Number of complexes."""
        return len(self.complexes)

    @property
    def r(self) -> int:
        """Number of reactions."""
        return len(self.reactions)

    @property
    def is_empty(self) -> bool:
        return self.n == 0 and self.m == 0 and self.r == 0

    @cached_property
    def source_matrix(self) -> np.ndarray:
        """r x n integer matrix of source-complex coefficients."""
        out = np.zeros((self.r, self.n), dtype=np.int64)
        for k, rxn in enumerate(self.reactions):
            out[k] = self.complexes[rxn.source].coeffs
        return out

    @cached_property
    def target_matrix(self) -> np.ndarray:
        out = np.zeros((self.r, self.n), dtype=np.int64)
        for k, rxn in enumerate(self.reactions):
            out[k] = self.complexes[rxn.target].coeffs
        return out

    @cached_property
    def reaction_vectors(self) -> np.ndarray:
        """r x n integer matrix of target-minus-source vectors."""
        return self.target_matrix - self.source_matrix

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Map (source, target) complex indices to reaction position."""
        return {(rxn.source, rxn.target): k for k, rxn in enumerate(self.reactions)}


def build_network(
    species: SpeciesTable,
    complexes,
    reactions,
) -> ReactionNetwork:
    """Validate and canonicalize a network.

    ``reactions`` use indices into the *input* complex sequence; they are
    remapped to the canonical (deduplicated, lexicographically sorted)
    complex order.  The empty network (no species, complexes, reactions) is
    the one permitted degenerate value.
    """
    complexes = tuple(complexes)
    reactions = tuple(reactions)
    n = len(species)
    for cx in complexes:
        if len(cx.coeffs) != n:
            raise ValueError(f"complex {cx} has {len(cx.coeffs)} coefficients, expected {n}")
    for rxn in reactions:
        if not (0 <= rxn.source < len(complexes) and 0 <= rxn.target < len(complexes)):
            raise ValueError(f"reaction {rxn} references a missing complex")

    # Deduplicate complexes by coefficient vector, then sort canonically.
    canonical = sorted(set(complexes))
    index_of = {cx: i for i, cx in enumerate(canonical)}
    remap = [index_of[cx] for cx in complexes]

    seen: set[tuple[int, int]] = set()
    new_reactions = []
    for rxn in reactions:
        src, tgt = remap[rxn.source], remap[rxn.target]
        if src == tgt:
            raise SelfLoopError(
                f"reaction {canonical[src].format(species)} -> itself is forbidden"
            )
        if (src, tgt) in seen:
            raise DuplicateReactionError(
                f"duplicate reaction {canonical[src].format(species)} -> "
                f"{canonical[tgt].format(species)}"
            )
        seen.add((src, tgt))
        new_reactions.append(Reaction(src, tgt))
    new_reactions.sort()

    used_in_reaction = {r.source for r in new_reactions} | {r.target for r in new_reactions}
    for i, cx in enumerate(canonical):
        if i not in used_in_reaction:
            raise OrphanComplexError(f"complex {cx.format(species)} appears in no reaction")
    for j, name in enumerate(species.names):
        if not any(cx.coeffs[j] != 0 for cx in canonical):
            raise UnusedSpeciesError(f"species {name} has zero coordinate in every complex")

    return ReactionNetwork(species, tuple(canonical), tuple(new_reactions))


def empty_network() -> ReactionNetwork:
    return ReactionNetwork(SpeciesTable(()), (), ())


def reaction_vector(net: ReactionNetwork, rxn: Reaction) -> np.ndarray:
    """Target coefficients minus source coefficients, as an integer vector."""
    if net.edge_index.get((rxn.source, rxn.target)) is None:
        raise UnknownReactionError(f"{rxn} is not a reaction of the network")
    return (
        np.asarray(net.complexes[rxn.target].coeffs, dtype=np.int64)
        - np.asarray(net.complexes[rxn.source].coeffs, dtype=np.int64)
    )


# ---------------------------------------------------------------------------
# stoichiometry over the rationals
# ---------------------------------------------------------------------------

def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns nonzero rows and pivot columns."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def _integerize(row: list[Fraction]) -> tuple[int, ...]:
    denom = lcm(*(v.denominator for v in row)) if row else 1
    ints = [int(v * denom) for v in row]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    first = next((v for v in ints if v != 0), 1)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def stoichiometric_basis(
    net: ReactionNetwork,
) -> tuple[list[np.ndarray], list[tuple[Fraction, ...]]]:
    """Basis of the stoichiometric subspace and of its orthogonal complement.

    The first list holds integer vectors spanning span{target - source}; the
    second holds exact rational vectors spanning the left null space (the
    conserved quantities).  Computed by exact row reduction over the
    rationals, so dimensions are never corrupted by roundoff.
    """
    n = net.n
    rows = [[Fraction(int(v)) for v in vec] for vec in net.reaction_vectors]
    reduced, pivots = _rref(rows)
    basis = [np.asarray(_integerize(row), dtype=np.int64) for row in reduced]
    free_cols = [c for c in range(n) if c not in pivots]
    conserved: list[tuple[Fraction, ...]] = []
    for fc in free_cols:
        w = [Fraction(0)] * n
        w[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            w[pc] = -row[fc]
        conserved.append(tuple(w))
    return basis, conserved


def conserved_matrix(net: ReactionNetwork) -> np.ndarray:
    """Conserved-quantity basis as a float matrix (one vector per row)."""
    _, conserved = stoichiometric_basis(net)
    if not conserved:
        return np.zeros((0, net.n))
    return np.array([[float(v) for v in w] for w in conserved])


def stoichiometric_dimension(net: ReactionNetwork) -> int:
    basis, _ = stoichiometric_basis(net)
    return len(basis)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def det_state(values, n: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float concentration vector."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    if n is not None and arr.shape != (n,):
        raise ValueError(f"state has length {arr.shape[0]}, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state entries must be finite")
    return arr


def discrete_state(values, n: int | None = None) -> tuple[int, ...]:
    """Coerce to a tuple of Python ints (a count vector)."""
    out = tuple(int(v) for v in values)
    if n is not None and len(out) != n:
        raise ValueError(f"state has length {len(out)}, expected {n}")
    return out


def is_discrete_state(x) -> bool:
    return isinstance(x, tuple)


# ---------------------------------------------------------------------------
# mass-action systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MassActionSystem:
    """A reaction network plus one strictly positive rate constant per reaction.

    ``kappa`` is aligned with ``network.reactions``.
    """

    network: ReactionNetwork
    kappa: tuple[float, ...]

    def __post_init__(self):
        if len(self.kappa) != self.network.r:
            raise ValueError(
                f"{len(self.kappa)} rate constants for {self.network.r} reactions"
            )
        for k in self.kappa:
            if not (k > 0 and np.isfinite(k)):
                raise ValueError(f"rate constants must be positive and finite, got {k}")

    @classmethod
    def from_map(cls, network: ReactionNetwork, kappa_map) -> "MassActionSystem":
        """Build from a mapping Reaction -> rate constant (exactly one each)."""
        missing = [r for r in network.reactions if r not in kappa_map]
        if missing:
            raise ValueError(f"missing rate constants for {missing}")
        if len(kappa_map) != network.r:
            raise ValueError("rate constant map does not match the reaction set")
        return cls(network, tuple(float(kappa_map[r]) for r in network.reactions))

    @property
    def kappa_map(self) -> dict[Reaction, float]:
        return dict(zip(self.network.reactions, self.kappa))

    def rate_constant(self, source: int, target: int) -> float:
        """Rate constant of the reaction source -> target, 0.0 if absent."""
        k = self.network.edge_index.get((source, target))
        return self.kappa[k] if k is not None else 0.0


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Measure:
    """Finitely supported nonnegative weight map on integer states."""

    weights: dict[tuple[int, ...], float]
    normalized: bool = False

    def __post_init__(self):
        for x, w in self.weights.items():
            if not (w >= 0 and np.isfinite(w)):
                raise ValueError(f"weight at {x} must be finite and nonnegative, got {w}")
        if self.normalized and abs(self.total() - 1.0) > 1e-12:
            raise ValueError(f"normalized measure sums to {self.total()}, not 1")

    def __call__(self, x: tuple[int, ...]) -> float:
        return self.weights.get(tuple(x), 0.0)

    def total(self) -> float:
        return float(sum(self.weights.values()))

    def support(self) -> list[tuple[int, ...]]:
        return sorted(x for x, w in self.weights.items() if w > 0)

    def normalize(self) -> "Measure":
        z = self.total()
        if z <= 0:
            raise EmptySupportError("cannot normalize a measure with zero total mass")
        return Measure({x: w / z for x, w in self.weights.items() if w > 0}, normalized=True)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class Status(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Witness:
    """Where and how a balance equation failed."""

    state: tuple
    condition: str
    lhs: float
    rhs: float


@dataclass(frozen=True)
class Verdict:
    status: Status
    witness: Witness | None = None

    def __post_init__(self):
        if (self.status is Status.FAILS) != (self.witness is not None):
            raise ValueError("witness must be present exactly when the verdict is FAILS")

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS

    @staticmethod
    def ok() -> "Verdict":
        return Verdict(Status.HOLDS)

    @staticmethod
    def undetermined() -> "Verdict":
        return Verdict(Status.UNDETERMINED)

    @staticmethod
    def fail(state, condition: str, lhs: float, rhs: float) -> "Verdict":
        return Verdict(Status.FAILS, Witness(tuple(state), condition, float(lhs), float(rhs)))
