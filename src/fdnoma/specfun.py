"""Gamma-law statistics and order-statistic kernels.

Squared Nakagami-m channel norms are Gamma with integer shape, so every
distribution here is an integer-shape Gamma or an order statistic of
i.i.d. integer-shape Gammas.  The ordered survival function expands
``(1 - F(x))**s1`` through the power-series coefficients of the
truncated exponential sum (:func:`multinomial_coeffs`), the same
coefficients the closed-form outage expansion reads, which keeps it a
finite sum with relative accuracy in the deep upper tail.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "multinomial_coeffs",
    "gamma_pdf",
    "ordered_sf",
]


@lru_cache(maxsize=512)
def multinomial_coeffs(power: int, base_terms: int) -> np.ndarray:
    """Coefficients of ``(sum_{n<base_terms} x**n / n!) ** power``, by
    iterated polynomial convolution.

    Returns a read-only array (shared through the cache) whose entry
    ``j`` multiplies ``x**j``; it has ``power * (base_terms - 1) + 1``
    entries, all positive, and starts with 1.  The zeroth power is the
    empty product, a single coefficient 1.
    """
    if power < 0 or base_terms < 1:
        raise ValueError("power must be >= 0 and base_terms >= 1")
    base = np.array([1.0 / math.factorial(k) for k in range(base_terms)])
    out = np.array([1.0])
    for _ in range(power):
        out = np.convolve(out, base)
    out.setflags(write=False)
    return out


def gamma_pdf(x, shape: int, scale: float):
    """Density of Gamma(integer shape, scale)."""
    x = np.asarray(x, dtype=float)
    t = np.maximum(x, 0.0) / scale
    logpdf = (shape - 1) * np.log(np.where(t > 0, t, 1.0)) - t \
        - math.lgamma(shape) - math.log(scale)
    out = np.where(x > 0, np.exp(logpdf), 0.0)
    if shape == 1:
        out = np.where(x == 0, 1.0 / scale, out)
    return out if out.ndim else float(out)


def ordered_sf(x, order: int, num_users: int, shape: int, scale: float):
    """Survival function of the ``order``-th smallest of ``num_users``
    i.i.d. Gamma(shape, scale) gains.

    Computed directly as a finite sum so the deep upper tail keeps
    relative accuracy (no ``1 - cdf`` cancellation).
    """
    if not 1 <= order <= num_users:
        raise ValueError(f"order must lie in 1..{num_users}")
    l, n = order, num_users
    t = np.asarray(x, dtype=float) / scale
    # past ~700/scale the exponential factors underflow to exactly 0;
    # capping t keeps the polynomial factors from overflowing first
    t = np.clip(t, 0.0, 1e6)
    q = math.factorial(n) / (math.factorial(n - l) * math.factorial(l - 1))
    total = np.zeros_like(t)
    for s in range(n - l + 1):
        for s1 in range(1, l + s + 1):
            table = multinomial_coeffs(s1, shape)
            poly = np.polynomial.polynomial.polyval(t, table)
            sign = -1.0 if (s + s1 - 1) % 2 else 1.0
            total += (
                sign
                * math.comb(n - l, s)
                * math.comb(l + s, s1)
                / (l + s)
                * poly
                * np.exp(-s1 * t)
            )
    total *= q
    out = np.clip(total, 0.0, 1.0)
    return out if out.ndim else float(out)
