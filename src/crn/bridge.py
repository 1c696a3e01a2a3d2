"""The implication map between deterministic and stochastic balance.

``analyze_system`` bundles the structural, deterministic and stochastic
analysis of a system, then cross-checks every instance-applicable arrow of
the implication map between the two regimes.  A ``violated`` arrow means an
internal inconsistency (the arrows are theorems), so the CLI fails the run.
"""

from __future__ import annotations

from itertools import product

from . import detbal, graph, model, stoch
from .errors import CrnError, NotReversibleError, NotWeaklyReversibleError
from .model import MassActionSystem, Status, _plain
from .stoch import Box

__all__ = ["analyze_system", "component_summary"]


def component_summary(sys: MassActionSystem, comp: stoch.ComponentResult) -> dict:
    """Seed, size, closure flags and activity of a communicating class."""
    return {
        "seed": list(comp.seed),
        "states": len(comp.points),
        "closed": comp.closed,
        "truncated": comp.truncated,
        "active": stoch.component_is_active(sys, comp),
    }


def _det_summary(sys: MassActionSystem, tol: float, rvb_starts: int) -> dict:
    try:
        rb_state = detbal.solve_reaction_balanced(sys, tol=tol)
    except NotReversibleError:
        rb_state = None
    try:
        cb_state = detbal.solve_complex_balanced(sys, tol=tol)
    except NotWeaklyReversibleError:
        cb_state = None
    return {
        "rb_state": None if rb_state is None else list(rb_state),
        "cb_state": None if cb_state is None else list(cb_state),
        "cyb_system": detbal.system_cycle_balanced(sys, tol),
        "rvb_states": [list(c) for c in detbal.solve_rvb(sys, starts=rvb_starts)],
    }


def _support_has_grid(support, degree: int) -> bool:
    """Sufficient check that no nonzero polynomial of the given degree
    vanishes on the support: it contains a full (degree+1)-point grid."""
    if not support:
        return False
    n = len(support[0])
    if n == 0:
        return False
    axes = []
    for i in range(n):
        vals = sorted({x[i] for x in support})
        if len(vals) < degree + 1:
            return False
        axes.append(vals[: degree + 1])
    supp = set(support)
    return all(tuple(p) in supp for p in product(*axes))


# The implication map, one row per check: ``(arrow, premises, conclusion,
# detail)``, each premise and the conclusion a literal ``(fact, value)``.  A
# fact is True, False or None (undetermined).  A row fires when every premise
# literal is true and its conclusion fact is determined, and fails when that
# fact has the other value.  System rows read the deterministic facts and run
# once; component rows also read one classified component's ``stoch:*``
# statuses, ``active`` and ``rich`` and run once per component.
#
# The converse bridge rows (measure balance implies the deterministic
# property) and cb+rvb=>rb are theorems only when the support is rich enough
# that no low-degree polynomial vanishes on it; on small components the
# falling-factorial rates vanish on too many states and balance can hold "by
# accident", so ``rich`` gates them.
_ARROWS = {
    "system": (
        ("det:rb=>cb", (("det:rb", True),), ("det:cb", True),
         "reaction balanced but no complex balanced state"),
        ("det:rb=>rvb", (("det:rb", True),), ("det:rvb_at_rb", True),
         "reaction balanced state is not reaction vector balanced"),
        ("det:rb=>cyb", (("det:rb", True),), ("det:cyb", True),
         "reaction balanced but not cycle balanced"),
        ("det:cb+cyb=>rb", (("det:cb", True), ("det:cyb", True)), ("det:rb", True),
         "complex and cycle balanced but no reaction balanced state"),
    ),
    "component": (
        ("stoch:rb=>cb", (("stoch:rb", True),), ("stoch:cb", True), "rb holds but cb fails"),
        ("stoch:rb=>rvb", (("stoch:rb", True),), ("stoch:rvb", True), "rb holds but rvb fails"),
        ("stoch:rb=>cyb", (("stoch:rb", True),), ("stoch:cyb", True), "rb holds but cyb fails"),
        ("stoch:cb+cyb=>rb", (("stoch:cb", True), ("stoch:cyb", True)), ("stoch:rb", True),
         "cb and cyb hold but rb fails"),
        ("stoch:cb+rvb=>rb", (("stoch:cb", True), ("stoch:rvb", True), ("rich", True)),
         ("stoch:rb", True), "cb and rvb hold on rich support but rb fails"),
        ("bridge:rb", (("det:rb", True),), ("stoch:rb", True),
         "deterministic rb holds but measure rb fails"),
        ("bridge:rb", (("stoch:rb", True), ("active", True), ("rich", True)), ("det:rb", True),
         "measure rb holds on an active component with rich support "
         "but deterministic rb fails"),
        ("bridge:rb", (("stoch:rb", False), ("active", True)), ("det:rb", False),
         "measure rb fails on an active component but deterministic rb holds"),
        ("bridge:cb", (("det:cb", True),), ("stoch:cb", True),
         "deterministic cb holds but measure cb fails"),
        ("bridge:cb", (("stoch:cb", True), ("active", True), ("rich", True)), ("det:cb", True),
         "measure cb holds on an active component with rich support "
         "but deterministic cb fails"),
        ("bridge:cb", (("stoch:cb", False), ("active", True)), ("det:cb", False),
         "measure cb fails on an active component but deterministic cb holds"),
        ("bridge:cyb", (("det:cyb", True),), ("stoch:cyb", True),
         "rate constants are cycle balanced but measure cyb fails"),
        ("bridge:cyb", (("stoch:cyb", False), ("active", True)), ("det:cyb", False),
         "measure cyb fails on an active component "
         "but the rate constants are cycle balanced"),
    ),
}


def _implications(sys: MassActionSystem, det: dict, components, tol: float) -> list[dict]:
    """Evaluate every row of ``_ARROWS``; one entry per arrow, sorted.

    ``components`` holds one ``(component, active, measure report, support)``
    tuple per component whose stationary distribution was classified.
    """
    det_rb = det["rb_state"] is not None
    facts = {
        "det:rb": det_rb,
        "det:cb": det["cb_state"] is not None,
        "det:cyb": det["cyb_system"],
        "det:rvb_at_rb": det_rb and detbal.classify_state(sys, det["rb_state"], tol).rvb.holds,
    }
    degree = sys.network.source_factors[-1]
    scopes = [(_ARROWS["system"], facts, "")]
    for comp, active, report, support in components:
        comp_facts = {**facts, "active": active, "rich": _support_has_grid(support, degree)}
        for name in ("rb", "cb", "rvb", "cyb"):
            status = getattr(report, name).status
            comp_facts[f"stoch:{name}"] = {Status.HOLDS: True, Status.FAILS: False}.get(status)
        scopes.append((_ARROWS["component"], comp_facts, f"component seeded at {comp.seed}: "))

    checks = {row[0]: 0 for rows in _ARROWS.values() for row in rows}
    failures = {arrow: [] for arrow in checks}
    for rows, known, where in scopes:
        for arrow, premises, (fact, value), detail in rows:
            if known[fact] is None or any(known[f] != v for f, v in premises):
                continue
            checks[arrow] += 1
            if known[fact] != value:
                failures[arrow].append(where + detail)

    entries = []
    for arrow in sorted(checks):
        if failures[arrow]:
            status, detail = "violated", "; ".join(failures[arrow])
        else:
            status = "verified" if checks[arrow] else "not-applicable"
            detail = f"{checks[arrow]} check(s)"
        entries.append({"arrow": arrow, "status": status, "detail": detail})
    return entries


def analyze_system(
    sys: MassActionSystem,
    seeds=(),
    box: Box | None = None,
    tol: float = 1e-9,
    rvb_starts: int = 32,
):
    """Full analysis bundle; returns (json-ready dict, any_violated).

    A component truncated by ``box`` is solved as the reflected chain (see
    ``stoch.stationary_distribution``).
    """
    net = sys.network
    basis, conserved = model.stoichiometric_basis(net)
    det = _det_summary(sys, tol, rvb_starts)
    use_box = box if box is not None else Box.cube(net.n, 20)

    components, checked = [], []
    for seed in seeds:
        try:
            comp = stoch.communicating_class(sys, seed, use_box)
            summary = component_summary(sys, comp)
            dist = stoch.stationary_distribution(sys, comp, allow_truncated=True)
            report = stoch.classify_component_measure(sys, comp, dist, tol=tol)
        except CrnError as exc:
            components.append({"seed": list(seed), "error": f"{type(exc).__name__}: {exc}"})
            continue
        components.append(
            {**summary, "boundary_skipped": report.boundary_skipped, "report": _plain(report)}
        )
        checked.append((comp, summary["active"], report, dist.support()))

    implications = _implications(sys, det, checked, tol)
    result = {
        "network": {
            "species": list(net.species.names),
            "complexes": [cx.format(net.species) for cx in net.complexes],
            "n": net.n,
            "m": net.m,
            "r": net.r,
        },
        "graph": {
            "reversible": graph.is_reversible(net),
            "weakly_reversible": graph.is_weakly_reversible(net),
            "deficiency": None if net.is_empty else graph.deficiency(net),
            "linkage_class_count": len(graph.linkage_classes(net)),
            "stoich_dim": len(basis),
            "conserved_count": len(conserved),
        },
        "det": det,
        "stoch": {"components": components},
        "implications": implications,
    }
    return result, any(e["status"] == "violated" for e in implications)
