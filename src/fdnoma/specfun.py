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

__all__ = [
    "ordered_cdf",
    "ordered_sf",
    "ordered_logpdf",
]


def _check_order(order: int, num_users: int):
    if not 1 <= order <= num_users:
        raise ValueError(f"order must lie in 1..{num_users}")


def _binomial_halves(x, order: int, num_users: int, shape: int, scale: float):
    """(CDF, survival) at ``x``: the binomial terms ``C(L, j) F**j S**(L-j)``
    split at ``j = l``, both halves divided by their total ``(F + S)**L``
    (1 up to rounding), so that they add to 1 within rounding at every ``L``.
    """
    _check_order(order, num_users)
    t = np.maximum(np.asarray(x, dtype=float), 0.0) / scale
    F, S = gammainc(shape, t), gammaincc(shape, t)
    terms = [math.comb(num_users, j) * F ** j * S ** (num_users - j) for j in range(num_users + 1)]
    lower, upper = sum(terms[order:]), sum(terms[:order])
    return lower / (lower + upper), upper / (lower + upper)


def ordered_cdf(x, order: int, num_users: int, shape: int, scale: float):
    """CDF of the ``order``-th smallest of ``num_users`` i.i.d.
    Gamma(shape, scale) gains: ``sum_{j>=l} C(L, j) F**j S**(L-j)``.

    Every term carries at least ``F**l``, so the deep lower tail keeps
    relative accuracy.
    """
    out = _binomial_halves(x, order, num_users, shape, scale)[0]
    return out if out.ndim else float(out)


def ordered_sf(x, order: int, num_users: int, shape: int, scale: float):
    """Survival function of the ``order``-th smallest of ``num_users``
    i.i.d. Gamma(shape, scale) gains: ``sum_{j<l} C(L, j) F**j S**(L-j)``.

    Every term carries at least ``S**(L-l+1)``, so the deep upper tail
    keeps relative accuracy (no ``1 - cdf`` cancellation).
    """
    out = _binomial_halves(x, order, num_users, shape, scale)[1]
    return out if out.ndim else float(out)


def ordered_logpdf(x, order: int, num_users: int, shape: int, scale: float):
    """log density of the ``order``-th smallest of ``num_users`` i.i.d.
    Gamma(shape, scale) gains at ``x >= 0``.

    The binomial form ``rank * F**(l-1) * S**(L-l) * f``, ``rank = L! /
    ((L-l)! (l-1)!)``; ``xlogy`` makes each absent factor (``l = 1``,
    ``l = L``, ``shape = 1``) exactly 0 in log space, so ``order =
    num_users = 1`` is the Gamma log density.
    """
    _check_order(order, num_users)
    l, n = order, num_users
    u = np.asarray(x, dtype=float) / scale
    log_rank = math.lgamma(n + 1) - math.lgamma(n - l + 1) - math.lgamma(l)
    return (
        log_rank
        + xlogy(l - 1, gammainc(shape, u))
        + xlogy(n - l, gammaincc(shape, u))
        + xlogy(shape - 1, u)
        - u
        - math.lgamma(shape)
        - math.log(scale)
    )
