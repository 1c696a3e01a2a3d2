"""Cross-check the implication map between deterministic and stochastic
balance on concrete instances.

Run as: python3 demos/04_bridge_implications.py
"""

import crn
from crn import Box
from crn.bridge import analyze_system

# Reaction, complex and cycle balance transfer between the two regimes;
# reaction vector balance does not, in either direction.

# Deterministically RVB but stochastically not: the square system.
square = crn.corpus.load("square")
payload, violated = analyze_system(square, seeds=[(3, 0)], box=Box.cube(2, 20))
print("square: det rvb states found:", len(payload["det"]["rvb_states"]))
print("square: stoch rvb verdict:",
      payload["stoch"]["components"][0]["report"]["rvb"]["status"])

# Stochastically RVB but deterministically not: the five-complex chain.
srvb = crn.corpus.load("stoch_rvb_only")
payload, violated = analyze_system(srvb, seeds=[(0,)], box=Box.cube(1, 30))
print("\nfive-complex chain: det rvb states found:",
      len(payload["det"]["rvb_states"]))
print("five-complex chain: stoch rvb verdict:",
      payload["stoch"]["components"][0]["report"]["rvb"]["status"])

# The full arrow table for a reaction balanced instance.
intro = crn.corpus.load("intro_unit")
payload, violated = analyze_system(intro, seeds=[(2, 1, 0)], box=Box.cube(3, 4))
print("\ntwo-pair network with unit constants:")
print("  det rb state:", payload["det"]["rb_state"])
for entry in payload["implications"]:
    print(f"  {entry['arrow']:<20} {entry['status']}")
assert not violated  # a violated arrow would be a bug, not a property
