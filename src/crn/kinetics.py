"""Mass-action rate evaluation, deterministic and stochastic.

Both rate laws are ``kappa`` times the left-to-right product of a reaction's
columns of ``ReactionNetwork.source_factors``.  Deterministic columns hold
``c_i``, so a rate is ``kappa * c**y`` (``0**0 = 1``); a zero factor gives
exactly 0, also past an overflow, and a negative coordinate kills every rate
of its state.  Stochastic columns hold ``x_i - j``, so a rate is
``kappa * x!/(x-y)! * indicator(x >= y)`` and states off the orthant absorb.
"""

from __future__ import annotations

import math

import numpy as np

from .model import MassActionSystem


def _monomials(net, c: np.ndarray) -> np.ndarray:
    """Source monomials of ``net`` at a float state or at each row of a stack:
    correctly rounded products, so no SIMD dispatch changes a bit."""
    species, _, _, starts, _ = net.source_factors
    factors = c[..., species]
    factors[..., starts] = 1.0
    return np.multiply.reduceat(factors, starts, axis=-1)


def det_rates(sys: MassActionSystem, c) -> np.ndarray:
    """Deterministic mass-action rates at concentration vector ``c``, aligned
    with ``sys.network.reactions``; N x r at the rows of an N x n stack, each
    row bit for bit the rates of its state alone."""
    net = sys.network
    rows = np.atleast_2d(np.asarray(c, dtype=float))
    if rows.shape[1] != net.n:
        raise ValueError(f"state has length {rows.shape[1]}, expected {net.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        rates = np.asarray(sys.kappa) * _monomials(net, rows)
    rates[(rows == 0) @ (net.source_matrix > 0).T] = 0.0  # also inf * 0
    rates[(rows < 0).any(axis=1)] = 0.0
    return rates if np.ndim(c) == 2 else rates[0]


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
