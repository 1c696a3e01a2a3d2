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
    held as Python ints, and a product beyond float range gives the rate
    ``inf``.  A rate is zero wherever some ``x_i < y_i``; in particular every
    rate vanishes off the orthant.
    """
    net = sys.network
    try:
        x = np.asarray(states, dtype=np.int64)
    except OverflowError:
        x = np.asarray(states, dtype=object)
    x = x.reshape(len(x), net.n)
    if not len(x) or not net.r:
        return np.zeros((len(x), net.r))
    species, weight, offset, starts, degree = net.source_factors
    inside = None
    if x.min() < 0:  # zero the rows off the orthant, and their rates below
        inside = (x.min(axis=1) >= 0)[:, None]
        x = x * inside
    if x.dtype != object and int(x.max()) ** degree >= 2**63:
        x = x.astype(object)
    # x_i - j runs down from x_i and meets 0 before any negative factor, so
    # x_i < y_i gives a zero product and partial products stay within int64
    factors = x[:, species]  # the kernel's largest array, so worked in place
    factors *= weight
    factors -= offset
    prod = np.multiply.reduceat(factors, starts, axis=1)
    del factors
    if prod.dtype == object:
        prod = np.frompyfunc(_float, 1, 1)(prod)
    rates = np.asarray(sys.kappa) * prod.astype(float)
    return rates if inside is None else rates * inside


def _float(v: int) -> float:
    """``float(v)``, or ``inf`` for a nonnegative integer beyond float range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf
