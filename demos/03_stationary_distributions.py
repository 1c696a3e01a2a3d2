"""Build truncated Markov chains, solve for stationary distributions, and
classify them against the balance conditions for measures.

Run as: python3 demos/03_stationary_distributions.py
"""

import pathlib

import crn
from crn import Box

NETWORKS = pathlib.Path(__file__).resolve().parent / "networks"


def load(name):
    """Parse one of the example networks in ``demos/networks``."""
    return crn.parse_network((NETWORKS / f"{name}.crn").read_text(encoding="utf-8"))


def show(name, rep):
    print(
        f"{name}: rb={rep.rb.status.value} cb={rep.cb.status.value} "
        f"rvb={rep.rvb.status.value} cyb={rep.cyb.status.value} "
        f"stationary={rep.stationary.status.value} "
        f"(skipped {rep.boundary_skipped} boundary instances)"
    )


# A closed component: the square system conserves x_A + x_B, so the states
# with total 3 form a finite irreducible component.
square = load("square")
comp = crn.communicating_class(square, (3, 0), Box.cube(2, 20))
print("component of (3,0):", comp.states, "closed:", comp.closed)
dist = crn.stationary_distribution(square, comp)
for x in dist.support():
    print(f"  pi{x} = {dist(x):.6f}")

# The system is complex balanced, so the distribution is product-form
# Poisson conditioned on the component.
c = crn.solve_complex_balanced(square)
product_form = crn.poisson_product(c, comp.states)
print("TV to product form at c =", [float(v) for v in c], ":",
      crn.tv_distance(dist, product_form))
show("square component", crn.classify_component_measure(square, comp, dist))

# An open (truncated) component: the birth-death chain 0<->A (1/2, 1),
# 2A<->3A (1, 3).  Every birth-death chain is reaction vector balanced
# (detailed balanced in the Markov-chain sense), but this one is not
# reaction balanced: no single Poisson profile matches both reaction pairs.
bd = load("birth_death")
comp = crn.communicating_class(bd, (0,), Box.cube(1, 60))
dist = crn.stationary_distribution(bd, comp, allow_truncated=True)
rep = crn.classify_component_measure(bd, comp, dist)
show("birth-death chain", rep)
print("  reaction-balance witness:", rep.rb.witness)

# Reaction vector balance can hold on one irreducible component and fail on
# another: the two-triangle network with catalyst C, sliced at x_C = 1 and 2.
six = load("six_complex")
for level in (1, 2):
    comp = crn.communicating_class(
        six, (0, 0, level), Box((0, 0, level), (40, 40, level))
    )
    dist = crn.stationary_distribution(six, comp, allow_truncated=True)
    show(f"two-triangle network on x_C={level}",
         crn.classify_component_measure(six, comp, dist))
