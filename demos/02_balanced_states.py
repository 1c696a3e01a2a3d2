"""Classify deterministic states against the four balance conditions and
solve for balanced equilibria.

Run as: python3 demos/02_balanced_states.py
"""

import crn


def show(name, rep):
    print(
        f"{name}: rb={rep.rb.status.value} cb={rep.cb.status.value} "
        f"rvb={rep.rvb.status.value} cyb={rep.cyb.status.value} "
        f"equilibrium={rep.equilibrium.status.value}"
    )


# The triangle on 2A, A+B, 2B (constants 1,1,2,2,1,1): the state (1,1) is
# reaction vector balanced and cycle balanced, yet neither reaction nor
# complex balanced.  One condition never implies the others.
triangle = crn.corpus.load("triangle")
show("triangle at (1,1)", crn.classify_state(triangle, [1.0, 1.0]))

# The square on 3A, 2A+B, 3B, A+2B (2 clockwise / 1 counterclockwise):
# complex and reaction vector balanced at (1,1), but the cycle products are
# 16 vs 1, so not cycle balanced and not reaction balanced.
square = crn.corpus.load("square")
rep = show("square at (1,1)", crn.classify_state(square, [1.0, 1.0]))
print("  square is cycle balanced as a system:", crn.system_cycle_balanced(square))
print("  triangle is cycle balanced as a system:", crn.system_cycle_balanced(triangle))

# Solving for balanced states.  Reaction balance reduces to a log-linear
# system over reversible pairs; complex balance to a Laplacian-kernel
# condition per linkage class.
intro = crn.parse_network("A + B <-> 2C : 1, 1\nA <-> B : 1, 1")
print("\nreaction balanced state of the two-pair network:",
      crn.solve_reaction_balanced(intro))
print("complex balanced state of the square:", crn.solve_complex_balanced(square))
print("complex balanced state of the triangle:",
      crn.solve_complex_balanced(triangle))

# Reaction vector balanced states need not be unique, even within one
# compatibility class: 0 <-> A (6, 11), 2A <-> 3A (6, 1) has three.
three = crn.corpus.load("rvb_three_roots")
roots = crn.solve_rvb(three)
print("\nreaction vector balanced equilibria:",
      sorted(round(float(c[0]), 10) for c in roots))
for c in roots:
    print(f"  drift at {float(c[0]):.0f}:", crn.drift(three, c))

# The rate equations are integrated by one adaptive LSODA solve, reported
# every dt; from 0.5 the flow settles on the smallest equilibrium.
traj = crn.integrate(three, [0.5], t_end=50.0, dt=1e-3)
print("integrate from 0.5 ->", traj[-1][1])
