"""Parse mass-action systems from text and inspect their graph structure.

Run as: python3 demos/01_networks_and_structure.py
"""

import pathlib

import crn

NETWORKS = pathlib.Path(__file__).resolve().parent / "networks"


def load(name):
    """Parse one of the example networks in ``demos/networks``."""
    return crn.parse_network((NETWORKS / f"{name}.crn").read_text(encoding="utf-8"))


# A network is written one reaction per line; `<->` lines carry a forward
# and a backward rate constant.  `0` is the empty complex.
text = """
A + B <-> 2C : 1, 2     # association / dissociation
A <-> B : 3, 4          # isomerisation
"""
sys = crn.parse_network(text)
net = sys.network

print("species:", ", ".join(net.species.names))
print("complexes:", [cx.format(net.species) for cx in net.complexes])
print(f"n = {net.n} species, m = {net.m} complexes, r = {net.r} reactions")

# The canonical printer is an exact inverse of the parser.
canonical = crn.format_network(sys)
print("\ncanonical form:")
print(canonical)
assert crn.parse_network(canonical) == sys

# Structural analysis: linkage classes, reversibility, deficiency.
print("\nlinkage classes:", len(crn.linkage_classes(net)))
print("reversible:", crn.is_reversible(net))
print("weakly reversible:", crn.is_weakly_reversible(net))
print("deficiency:", crn.deficiency(net))

# The stoichiometric subspace and its orthogonal conserved quantities are
# computed exactly over the rationals.
basis, conserved = crn.stoichiometric_basis(net)
print("stoichiometric dimension:", len(basis))
print("conserved quantities:", [tuple(str(v) for v in w) for w in conserved])

# The cycle basis that cycle balance is checked on (one fundamental cycle
# per reversible pair off a spanning forest) and the active subnetwork at a
# state.
square = load("square")
print("\nsquare system cycle basis:", list(crn.cycles_of(square.network)))

acr = load("absolute_concentration")
sub = crn.active_subnetwork(acr, [(0, 1)])
print("active subnetwork of B->A, A+B->2B at x=(0,1):", sub.r, "reaction(s)")
