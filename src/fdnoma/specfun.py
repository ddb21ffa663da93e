"""Gamma-law statistics and order-statistic kernels.

Squared Nakagami-m channel norms are Gamma with integer shape, so every
distribution here is an integer-shape Gamma or an order statistic of
i.i.d. integer-shape Gammas.  The law of the ``l``-th smallest of ``L``
such gains is evaluated here only, in the binomial form of the parent
CDF ``F`` and survival ``S`` (David & Nagaraja, *Order Statistics*, 3rd
ed., 2003, ch. 2), each from its own regularized incomplete gamma
function and with only positive terms, so it keeps relative accuracy in
both tails: :func:`ordered_cdf`, :func:`ordered_sf`, :func:`ordered_logpdf`.
The exact outage, its lower bound and the 2-D oracle all read the law
from here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaincc, xlogy

from .config import _check_int

__all__ = [
    "ordered_cdf",
    "ordered_sf",
    "ordered_logpdf",
]


def _binomial_halves(x, order: int, num_users: int, shape: int, scale: float):
    """[CDF, survival] at ``x`` (floats at a scalar ``x``): the binomial terms ``C(L, j) F**j S**(L-j)``
    split at ``j = l``, both halves divided by their total ``(F + S)**L``
    (1 up to rounding), so that they add to 1 within rounding at every ``L``.
    """
    order = _check_int("order", order, 1, num_users)
    t = np.maximum(np.asarray(x, dtype=float), 0.0) / scale
    F, S = gammainc(shape, t), gammaincc(shape, t)
    terms = [math.comb(num_users, j) * F ** j * S ** (num_users - j) for j in range(num_users + 1)]
    lower, upper = sum(terms[order:]), sum(terms[:order])
    return [v if v.ndim else float(v) for v in (lower / (lower + upper), upper / (lower + upper))]


def ordered_cdf(x, order: int, num_users: int, shape: int, scale: float):
    """CDF of the ``order``-th smallest of ``num_users`` i.i.d.
    Gamma(shape, scale) gains: ``sum_{j>=l} C(L, j) F**j S**(L-j)``.

    Every term carries at least ``F**l``, so the deep lower tail keeps
    relative accuracy.
    """
    return _binomial_halves(x, order, num_users, shape, scale)[0]


def ordered_sf(x, order: int, num_users: int, shape: int, scale: float):
    """Survival function of the ``order``-th smallest of ``num_users``
    i.i.d. Gamma(shape, scale) gains: ``sum_{j<l} C(L, j) F**j S**(L-j)``.

    Every term carries at least ``S**(L-l+1)``, so the deep upper tail
    keeps relative accuracy (no ``1 - cdf`` cancellation).
    """
    return _binomial_halves(x, order, num_users, shape, scale)[1]


def ordered_logpdf(x, order: int, num_users: int, shape: int, scale: float):
    """log density of the ``order``-th smallest of ``num_users`` i.i.d.
    Gamma(shape, scale) gains at ``x >= 0``.

    The binomial form ``rank * F**(l-1) * S**(L-l) * f``, ``rank = L! /
    ((L-l)! (l-1)!)``.  An absent order factor (``F`` at ``l = 1``, ``S``
    at ``l = L``) is skipped, since its log would be exactly 0, and
    ``xlogy`` makes ``u**(shape-1)`` exactly 0 in log space at ``shape =
    1``; so ``order = num_users = 1`` is the Gamma log density.
    """
    l, n = _check_int("order", order, 1, num_users), num_users
    u = np.asarray(x, dtype=float) / scale
    out = math.lgamma(n + 1) - math.lgamma(n - l + 1) - math.lgamma(l)
    if l > 1:
        out = out + xlogy(l - 1, gammainc(shape, u))
    if l < n:
        out = out + xlogy(n - l, gammaincc(shape, u))
    return out + xlogy(shape - 1, u) - u - math.lgamma(shape) - math.log(scale)
