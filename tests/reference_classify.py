"""Test-only copy of the per-equation measure classifier.

Before the shared offset table, ``crn.stoch`` built each balance equation's
candidate states on its own: the support shifted back by each of the
equation's offsets, concatenated, keyed in a frame padded by the margin
around the support and sorted with ``np.unique``; each flux group then
re-keyed its states and looked them up in the support.  The table-driven
classifier must give the same ``MeasureBalanceReport`` as this one, lhs and
rhs bit for bit, wherever this one's int64 frame holds every candidate.
"""

from __future__ import annotations

import numpy as np

from crn.detbal import _balance_equations, _cycle_equations, _log_product_mismatch
from crn.graph import cycles_of
from crn.kinetics import propensities
from crn.model import Verdict, _in_order_sum
from crn.stoch import MeasureBalanceReport, _find, _Frame, _margin


def classify(sys, mu, domain, tol=1e-9, truncation_faces=None, component=None):
    """``crn.stoch.classify_measure`` one equation at a time, reading the
    support's propensities from the index of ``component`` (when given)
    wherever it holds the state."""
    net = sys.network
    if domain.n != net.n:
        raise ValueError("domain dimension does not match the species count")
    support = mu.support()
    points = np.array(support, dtype=np.int64).reshape(len(support), net.n)
    lower = np.array(domain.lower, dtype=np.int64)
    upper = np.array(domain.upper, dtype=np.int64)
    outside = np.flatnonzero(~((points >= lower) & (points <= upper)).all(axis=1))
    if len(outside):
        raise ValueError(f"support state {support[outside[0]]} lies outside the domain")
    faces = (
        frozenset((i, s) for i in range(net.n) for s in (-1, +1))
        if truncation_faces is None
        else truncation_faces
    )
    margin = _margin(net)
    trusted_lo = lower + [margin if (i, -1) in faces else 0 for i in range(net.n)]
    trusted_hi = upper - [margin if (i, +1) in faces else 0 for i in range(net.n)]

    def interior(x):
        return ((x >= trusted_lo) & (x <= trusted_hi)).all(axis=1)

    # Weights and propensities of the support, with a zero row at index -1
    # standing for every state outside it.
    weight = np.append([mu.weights[x] for x in support], 0.0)
    rates = np.zeros((len(points) + 1, net.r))
    rows = np.full(len(points), -1)
    if component is not None:
        index = _Frame(component.points.min(axis=0), component.points.max(axis=0))
        rows = _find(index.keys(component.points), index.keys(points))
        rates[:-1][rows >= 0] = component.rates[rows[rows >= 0]]
    if np.any(rows < 0):
        rates[:-1][rows < 0] = propensities(sys, points[rows < 0])
    flux_scale = max(0.0, float(np.max(weight * rates.sum(axis=1))))
    lo, hi = (points.min(axis=0), points.max(axis=0)) if len(points) else (lower, lower)
    frame = _Frame(lo - margin, hi + margin)  # holds every candidate state
    support_keys = frame.keys(points)

    def at(x):
        """Weight and rate row of each state in ``x``."""
        i = _find(support_keys, frame.keys(x))
        return weight[i], rates[i]

    def mismatch(lhs, rhs):
        """First instance whose scalar balance equation fails, or None."""
        lhs, rhs = np.broadcast_arrays(lhs, rhs)
        close = np.abs(lhs - rhs) <= tol * (flux_scale + np.abs(lhs) + np.abs(rhs))
        bad = np.flatnonzero(~close)
        return None if not len(bad) else (bad[0], lhs[bad[0]], rhs[bad[0]])

    # [checked, skipped, witness] per condition
    tallies = {name: [0, 0, None] for name in ("rb", "cb", "rvb", "cyb", "stationary")}

    def run_instances(name, label, refs, evaluate):
        """An instance at x references x shifted by each of ``refs``; the
        candidates are the support shifted back by each."""
        tally = tallies[name]
        x = np.concatenate([points - d for d in refs])
        _, first = np.unique(frame.keys(x), return_index=True)
        x = x[first]
        trusted = np.ones(len(x), dtype=bool)
        for d in refs:
            trusted &= interior(x + d)
        x = x[trusted]
        tally[0] += len(x)
        tally[1] += len(trusted) - len(x)
        if tally[2] is None and len(x):
            found = evaluate(x)
            if found is not None:
                i, lhs, rhs = found
                tally[2] = Verdict.fail(tuple(x[i].tolist()), label, lhs, rhs)

    def flux(x, shift, reactions):
        """mu(x + shift) times the total rate of ``reactions`` at x + shift."""
        w, r = at(x + shift)
        return w * _in_order_sum(r[:, k] for k in reactions)

    def evaluate(x, condition, lhs, rhs):
        fwd = [flux(x, *group) for group in lhs]
        bwd = [flux(x, *group) for group in rhs]
        if condition != "cyb":
            return mismatch(_in_order_sum(fwd), _in_order_sum(bwd))
        # products are compared one instance at a time in log space
        instances = zip(np.transpose(fwd).tolist(), np.transpose(bwd).tolist())
        for i, (f, b) in enumerate(instances):
            bad = _log_product_mismatch(f, b, tol, flux_scale)
            if bad is not None:
                return (i, *bad)
        return None

    for condition, label, lhs, rhs in _balance_equations(net):
        refs = list({tuple(d): d for d, _ in lhs + rhs}.values())
        run_instances(condition, label, refs, lambda x: evaluate(x, condition, lhs, rhs))

    # cycle balance: the candidates are the support shifted back by y_u for
    # each complex u with reactions in and out; at each, the basis cycles of
    # the graph without the complexes of zero flux or untrusted state are
    # evaluated, those through a zero flux only counted as checked, and
    # those that the untrusted complexes take away skipped
    hubs = []
    if cycles_of(net):
        hubs = sorted({r.source for r in net.reactions} & {r.target for r in net.reactions})
    if hubs and len(points):
        ys = [np.array(net.complexes[u].coeffs, dtype=np.int64) for u in hubs]
        x = np.concatenate([points - y for y in ys])
        _, first = np.unique(frame.keys(x), return_index=True)
        x = x[first]
        groups = {}
        for u, y in zip(hubs, ys):
            w, r = at(x + y)
            ks = [k for k, rxn in enumerate(net.reactions) if rxn.source == u]
            zero = ~(w[:, None] * r[:, ks] > 0).any(axis=1)
            trusted = interior(x + y)
            groups[u] = (zero | ~trusted, ~trusted)
        instances = {}
        for i in range(len(x)):
            dropped = frozenset(u for u in hubs if groups[u][0][i])
            untrusted = frozenset(u for u in hubs if groups[u][1][i])
            basis = _cycle_equations(net, dropped)
            trusted = len(cycles_of(net, untrusted))
            tallies["cyb"][0] += trusted - len(basis)
            tallies["cyb"][1] += len(cycles_of(net)) - trusted
            for cycle, equation in basis.items():
                instances.setdefault(cycle, (equation, []))[1].append(i)
        for cycle in sorted(instances, key=lambda c: (len(c), c)):
            (_, label, lhs, rhs), rows = instances[cycle]
            checked = x[rows]
            tallies["cyb"][0] += len(checked)
            if tallies["cyb"][2] is None:
                found = evaluate(checked, "cyb", lhs, rhs)
                if found is not None:
                    i, f, b = found
                    tallies["cyb"][2] = Verdict.fail(tuple(checked[i].tolist()), label, f, b)

    # stationarity: the single global-balance equation per state
    vecs = net.reaction_vectors

    def stationarity(x):
        w, r = at(x)
        return mismatch(
            w * r.sum(axis=1), _in_order_sum(flux(x, -vecs[k], (k,)) for k in range(net.r))
        )

    run_instances("stationary", "stationary", [0, *(-vecs)], stationarity)

    # a condition fails at its witness, is undetermined when every instance
    # of it was skipped, and holds otherwise
    verdicts = {
        name: witness or (Verdict.undetermined() if skipped and not checked else Verdict.ok())
        for name, (checked, skipped, witness) in tallies.items()
    }
    return MeasureBalanceReport(
        **verdicts, boundary_skipped=sum(skipped for _, skipped, _ in tallies.values())
    )
