"""Fixed-step reference integrator for the deterministic rate equations.

A test-only copy of the fourth-order Runge-Kutta loop that
``crn.detbal.integrate`` ran before it moved to one adaptive LSODA solve:
Python steps of size ``dt`` (the last one shortened to end at ``t_end``),
no error control, and the mass-action field set to zero wherever a
coordinate is negative.  The differential tests hold the adaptive solver to
its endpoints.  ``direct_sum`` lets one reference run serve many systems.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.linalg import block_diag

from crn.errors import NonFiniteStateError
from crn.model import MassActionSystem, det_state


def rk4_integrate(
    sys: MassActionSystem,
    c0,
    t_end: float,
    dt: float = 1e-3,
) -> list[tuple[float, np.ndarray]]:
    """Fixed-step fourth-order Runge-Kutta integration of the rate equations."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    net = sys.network
    c = det_state(c0, net.n)
    Y = net.source_matrix
    RV = net.reaction_vectors.T.astype(float)
    kappa = np.asarray(sys.kappa)

    def field(z):
        if net.r == 0 or np.any(z < 0):
            return np.zeros(net.n)
        return RV @ (kappa * np.prod(np.power(z[None, :], Y), axis=1))

    t = 0.0
    traj = [(0.0, c.copy())]
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end - 1e-12 * max(1.0, t_end):
            h = min(dt, t_end - t)
            k1 = field(c)
            k2 = field(c + 0.5 * h * k1)
            k3 = field(c + 0.5 * h * k2)
            k4 = field(c + h * k3)
            c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(c)):
                raise NonFiniteStateError(f"trajectory diverged at t={t + h}")
            t += h
            traj.append((t, c.copy()))
    return traj


def direct_sum(systems):
    """The rate equations of ``systems`` side by side, as one system.

    Species and reactions are concatenated in order (block-diagonal source
    and reaction-vector matrices), so the state of block ``i`` is its own
    slice of the concatenated state.  RK4 acts blockwise: while no
    coordinate turns negative, each block of an ``rk4_integrate`` run on the
    sum is that block's own fixed-step trajectory, and one run costs about
    as much as one of the small systems alone.
    """
    nets = [s.network for s in systems]
    net = SimpleNamespace(
        n=sum(net.n for net in nets),
        r=sum(net.r for net in nets),
        source_matrix=block_diag(*(net.source_matrix for net in nets)),
        reaction_vectors=block_diag(*(net.reaction_vectors for net in nets)),
    )
    return SimpleNamespace(network=net, kappa=np.concatenate([s.kappa for s in systems]))
