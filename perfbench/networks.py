"""The twelve example networks the benchmark runs, as `.crn` text.

The benchmark keeps its own copy so that it does not depend on where the
program stores its examples.  ``INITS`` lists, per network, the count vectors
the generators may use as seed states and SSA initial states; every one of
them gives a component on which ``crn stationary --allow-truncated`` succeeds
at the default box.  ``JUMP_RATE`` is the measured long-run SSA jump rate
(jumps per unit time) from each of those states, used to size ``simulate``
items by jump count instead of by ``t_end``; 0 marks an absorbing state.
"""

from __future__ import annotations

import numpy as np

NETWORKS: dict[str, str] = {
    "intro_unit": "A + B <-> 2C : 1, 1\nA <-> B : 1, 1\n",
    "intro_generic": "A + B <-> 2C : 1, 2\nA <-> B : 3, 4\n",
    "triangle": "2A <-> A + B : 1, 2\nA + B <-> 2B : 2, 1\n2A <-> 2B : 1, 1\n",
    "square": (
        "3A <-> 2A + B : 2, 1\n2A + B <-> 3B : 2, 1\n"
        "3B <-> A + 2B : 2, 1\nA + 2B <-> 3A : 2, 1\n"
    ),
    "rvb_three_roots": "0 <-> A : 6, 11\n2A <-> 3A : 6, 1\n",
    "absolute_concentration": "B -> A : 1\nA + B -> 2B : 1\n",
    "birth_death": "0 <-> A : 0.5, 1\n2A <-> 3A : 1, 3\n",
    "stoch_rvb_only": (
        "0 <-> A : 1, 1\n0 <-> 2A : 2, 3\nA <-> 2A : 1, 2\n"
        "A <-> 3A : 4, 12\n2A <-> 4A : 1, 4\n"
    ),
    "stoch_rvb_two_species": (
        "0 <-> A : 1, 1\n0 -> 2A : 2\n2A -> 0 : 3\nA -> 2A : 1\n2A -> A : 2\n"
        "A -> 3A : 4\n3A -> A : 12\n2A -> 4A : 1\n4A + B -> 2A + B : 4\n"
    ),
    "semi_open": "0 <-> A : 1, 1\nA + B -> 2A + B : 0.5\n",
    "six_complex": (
        "A <-> 0 : 2, 1\n0 <-> B : 2, 1\nB <-> A : 2, 1\n"
        "A + C <-> B + C : 2, 1\nA + C <-> C : 1, 2\nC <-> B + C : 1, 2\n"
    ),
    "mono_triangle": "A <-> B : 1, 1\nB <-> C : 1, 1\nC <-> A : 1, 1\n",
}

SPECIES: dict[str, tuple[str, ...]] = {
    "intro_unit": ("A", "B", "C"),
    "intro_generic": ("A", "B", "C"),
    "triangle": ("A", "B"),
    "square": ("A", "B"),
    "rvb_three_roots": ("A",),
    "absolute_concentration": ("A", "B"),
    "birth_death": ("A",),
    "stoch_rvb_only": ("A",),
    "stoch_rvb_two_species": ("A", "B"),
    "semi_open": ("A", "B"),
    "six_complex": ("A", "B", "C"),
    "mono_triangle": ("A", "B", "C"),
}

INITS: dict[str, tuple[tuple[int, ...], ...]] = {
    "intro_unit": ((2, 1, 0), (1, 1, 1), (0, 2, 1), (1, 0, 2)),
    "intro_generic": ((2, 1, 0), (1, 1, 1), (0, 2, 1), (1, 0, 2)),
    "triangle": ((2, 1), (3, 0), (1, 2), (2, 2)),
    "square": ((3, 0), (2, 1), (1, 2), (2, 2)),
    "rvb_three_roots": ((0,), (1,), (2,), (3,)),
    "absolute_concentration": ((0, 0), (1, 0), (2, 0), (3, 0)),
    "birth_death": ((0,), (1,), (2,), (3,)),
    "stoch_rvb_only": ((0,), (1,), (2,), (3,)),
    "stoch_rvb_two_species": ((0, 1), (1, 1), (2, 1), (3, 1)),
    "semi_open": ((0, 1), (1, 1), (2, 1), (3, 1)),
    "six_complex": ((0, 0, 1), (1, 1, 1), (0, 0, 2), (1, 1, 2)),
    "mono_triangle": ((2, 0, 0), (1, 1, 0), (1, 1, 1), (0, 2, 1)),
}

JUMP_RATE: dict[str, tuple[float, ...]] = {
    "intro_unit": (3.89, 2.80, 2.80, 3.89),
    "intro_generic": (10.7, 7.6, 7.6, 10.7),
    "triangle": (12.1, 12.1, 12.1, 24.2),
    "square": (9.05, 9.09, 9.09, 36.3),
    "rvb_three_roots": (38.6, 37.6, 38.3, 37.6),
    "absolute_concentration": (0.0, 0.0, 0.0, 0.0),
    "birth_death": (1.45, 1.44, 1.47, 1.49),
    "stoch_rvb_only": (15.1, 15.2, 15.1, 15.3),
    "stoch_rvb_two_species": (15.1, 15.2, 15.1, 15.3),
    "semi_open": (3.87, 4.02, 3.99, 4.00),
    "six_complex": (18.0, 18.1, 27.0, 26.9),
    "mono_triangle": (4.03, 4.03, 6.05, 6.05),
}

# One-species chains whose stationary law has a closed product form; the
# stationary oracle recomputes it.
ONE_SPECIES = ("birth_death", "rvb_three_roots", "stoch_rvb_only")


def network_arrays(text: str):
    """(species, complexes, source matrix Y, reaction vectors RV, kappa).

    An independent reading of `.crn` text, so the generators and the checks
    do not depend on the program's parser.
    """
    rows = []
    for line in text.strip().splitlines():
        line = line.split("#")[0].strip()
        if not line:
            continue
        arrow, rates = line.split(":")
        ks = [float(v) for v in rates.split(",")]
        if "<->" in arrow:
            lhs, rhs = arrow.split("<->")
            rows += [(lhs, rhs, ks[0]), (rhs, lhs, ks[1])]
        else:
            lhs, rhs = arrow.split("->")
            rows.append((lhs, rhs, ks[0]))
    parsed = [(_side(a), _side(b), k) for a, b, k in rows]
    species = sorted({s for a, b, _ in parsed for s in (*a, *b)})

    def vec(side):
        return [side.get(s, 0) for s in species]

    complexes = sorted({tuple(vec(side)) for a, b, _ in parsed for side in (a, b)})
    Y = np.array([vec(a) for a, _, _ in parsed], dtype=float)
    RV = np.array([vec(b) for _, b, _ in parsed], dtype=float) - Y
    kappa = np.array([k for _, _, k in parsed])
    return species, complexes, Y, RV, kappa


def _side(text: str) -> dict[str, int]:
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.split("+"):
        term = term.strip()
        i = 0
        while term[i].isdigit():
            i += 1
        out[term[i:]] = int(term[:i]) if i else 1
    return out


def state_text(names, values) -> str:
    """``A=1,B=2`` form of a state, as the CLI reads it."""
    return ",".join(f"{n}={v}" for n, v in zip(names, values))
