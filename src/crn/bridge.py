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
        "states": len(comp.states),
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
        "cyb_system": detbal.system_cycle_balanced(sys),
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


class _Arrow:
    def __init__(self, arrow_id: str):
        self.arrow_id = arrow_id
        self.checks = 0
        self.failures: list[str] = []

    def check(self, ok: bool, detail: str):
        self.checks += 1
        if not ok:
            self.failures.append(detail)

    def entry(self) -> dict:
        if self.failures:
            status = "violated"
        elif self.checks:
            status = "verified"
        else:
            status = "not-applicable"
        return {
            "arrow": self.arrow_id,
            "status": status,
            "detail": "; ".join(self.failures) if self.failures else f"{self.checks} check(s)",
        }


def _implications(sys: MassActionSystem, det: dict, components, tol: float) -> list[dict]:
    """Instance-level checks of the balance implication map.

    ``components`` holds one ``(component, active, measure report, support)``
    tuple per component whose stationary distribution was classified.
    """
    det_rb = det["rb_state"] is not None
    det_cb = det["cb_state"] is not None
    det_cyb = det["cyb_system"]
    arrows = {
        name: _Arrow(name)
        for name in (
            "det:rb=>cb",
            "det:rb=>rvb",
            "det:rb=>cyb",
            "det:cb+cyb=>rb",
            "stoch:rb=>cb",
            "stoch:rb=>rvb",
            "stoch:rb=>cyb",
            "stoch:cb+cyb=>rb",
            "stoch:cb+rvb=>rb",
            "bridge:rb",
            "bridge:cb",
            "bridge:cyb",
        )
    }

    if det_rb:
        arrows["det:rb=>cb"].check(det_cb, "reaction balanced but no complex balanced state")
        report = detbal.classify_state(sys, det["rb_state"], tol)
        arrows["det:rb=>rvb"].check(
            report.rvb.holds, "reaction balanced state is not reaction vector balanced"
        )
        arrows["det:rb=>cyb"].check(det_cyb, "reaction balanced but not cycle balanced")
    if det_cb and det_cyb:
        arrows["det:cb+cyb=>rb"].check(
            det_rb, "complex and cycle balanced but no reaction balanced state"
        )

    max_source_degree = max(
        (sys.network.complexes[r.source].degree for r in sys.network.reactions),
        default=0,
    )

    for comp, active, report, support in components:
        where = f"component seeded at {comp.seed}"
        # The converse bridge direction (measure balance implies the
        # deterministic property) and cb+rvb=>rb are theorems only when the
        # support is rich enough that no low-degree polynomial vanishes on it;
        # on small components the falling-factorial rates vanish on too many
        # states and balance can hold "by accident", so this check gates them.
        rich_support = _support_has_grid(support, max_source_degree)

        if report.rb.holds:
            for name, v in (("cb", report.cb), ("rvb", report.rvb), ("cyb", report.cyb)):
                if v.status is not Status.UNDETERMINED:
                    arrows[f"stoch:rb=>{name}"].check(
                        v.holds, f"{where}: rb holds but {name} fails"
                    )
        if report.cb.holds and report.cyb.holds:
            if report.rb.status is not Status.UNDETERMINED:
                arrows["stoch:cb+cyb=>rb"].check(
                    report.rb.holds, f"{where}: cb and cyb hold but rb fails"
                )
        if (
            report.cb.holds
            and report.rvb.holds
            and report.rb.status is not Status.UNDETERMINED
            and rich_support
        ):
            arrows["stoch:cb+rvb=>rb"].check(
                report.rb.holds, f"{where}: cb and rvb hold on rich support but rb fails"
            )

        # bridge: deterministic system property vs classified distribution.
        for name, det_flag, verdict in (
            ("rb", det_rb, report.rb),
            ("cb", det_cb, report.cb),
        ):
            arrow = arrows[f"bridge:{name}"]
            if det_flag and verdict.status is not Status.UNDETERMINED:
                arrow.check(
                    verdict.holds,
                    f"{where}: deterministic {name} holds but measure {name} fails",
                )
            if verdict.holds and active and rich_support:
                arrow.check(
                    det_flag,
                    f"{where}: measure {name} holds on an active component with "
                    f"rich support but deterministic {name} fails",
                )
            if verdict.fails and active:
                arrow.check(
                    not det_flag,
                    f"{where}: measure {name} fails on an active component "
                    f"but deterministic {name} holds",
                )

        arrow = arrows["bridge:cyb"]
        if det_cyb and report.cyb.status is not Status.UNDETERMINED:
            arrow.check(
                report.cyb.holds,
                f"{where}: rate constants are cycle balanced but measure cyb fails",
            )
        if report.cyb.fails and active:
            arrow.check(
                not det_cyb,
                f"{where}: measure cyb fails on an active component "
                f"but the rate constants are cycle balanced",
            )

    return [arrows[name].entry() for name in sorted(arrows)]


def analyze_system(
    sys: MassActionSystem,
    seeds=(),
    box: Box | None = None,
    tol: float = 1e-9,
    rvb_starts: int = 32,
    allow_truncated: bool = True,
):
    """Full analysis bundle; returns (json-ready dict, any_violated)."""
    net = sys.network
    basis, conserved = model.stoichiometric_basis(net)
    det = _det_summary(sys, tol, rvb_starts)
    use_box = box if box is not None else Box.cube(net.n, 20)

    components, checked = [], []
    for seed in seeds:
        try:
            comp = stoch.communicating_class(sys, seed, use_box)
            summary = component_summary(sys, comp)
            dist = stoch.stationary_distribution(sys, comp, allow_truncated=allow_truncated)
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
