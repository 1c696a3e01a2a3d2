"""Mass-action rate evaluation, deterministic and stochastic.

Deterministic rates are ``indicator(c >= 0) * kappa * c**y`` with the
convention ``0**0 = 1``; any negative coordinate kills every rate.
Stochastic rates are the falling-factorial form
``kappa * x!/(x-y)! * indicator(x >= y)``; states off the nonnegative
orthant are therefore absorbing.
"""

from __future__ import annotations

import math

import numpy as np

from .model import MassActionSystem


def det_rates(sys: MassActionSystem, c) -> np.ndarray:
    """Deterministic mass-action rates at concentration vector ``c``.

    Returns an array aligned with ``sys.network.reactions``.
    """
    net = sys.network
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.shape != (net.n,):
        raise ValueError(f"state has length {c.shape[0]}, expected {net.n}")
    rates = np.zeros(net.r)
    if net.r == 0 or np.any(c < 0):
        return rates
    with np.errstate(over="ignore"):
        for k in range(net.r):
            mono = 1.0
            for ci, yi in zip(c, net.source_matrix[k]):
                if yi:
                    mono *= ci ** yi
            rates[k] = sys.kappa[k] * mono
    return rates


def propensities(sys: MassActionSystem, states) -> np.ndarray:
    """Stochastic mass-action propensities at each row of an N x n count array.

    Returns an N x r array aligned with ``sys.network.reactions``.  Falling
    factorials are exact integers (int64 while the product provably fits,
    Python ints beyond) and meet ``kappa`` in a single float multiply, so a
    row equals the scalar definition bit for bit.  Counts beyond int64 are
    held as Python ints.  A rate is zero wherever some ``x_i < y_i``; in
    particular every rate vanishes off the orthant.
    """
    net = sys.network
    try:
        x = np.asarray(states, dtype=np.int64)
    except OverflowError:
        x = np.asarray(states, dtype=object)
    x = x.reshape(len(x), net.n)
    rates = np.zeros((len(x), net.r))
    if not len(x) or not net.r:
        return rates
    y = net.source_matrix
    feasible = (x[:, None, :] >= y[None, :, :]).all(axis=2)
    x = np.maximum(x, 0)
    top = [int(v) for v in x.max(axis=0)]
    for k in range(net.r):
        y_k = [int(v) for v in y[k]]
        bound = math.prod(max(t, yi) ** yi for t, yi in zip(top, y_k))
        exact = np.int64 if bound < 2**63 else object
        prod = np.ones(len(x), dtype=exact)
        for i in np.flatnonzero(y_k):
            xi = x[:, i].astype(exact)
            for j in range(y_k[i]):
                prod = prod * (xi - j)
        rates[feasible[:, k], k] = sys.kappa[k] * prod[feasible[:, k]].astype(float)
    return rates


def propensity(sys: MassActionSystem, x) -> np.ndarray:
    """Stochastic mass-action propensities at count vector ``x``.

    Returns an array aligned with ``sys.network.reactions``; a reaction with
    ``x`` not componentwise >= its source complex has propensity zero.
    """
    x = tuple(int(v) for v in x)
    if len(x) != sys.network.n:
        raise ValueError(f"state has length {len(x)}, expected {sys.network.n}")
    return propensities(sys, [x])[0]
