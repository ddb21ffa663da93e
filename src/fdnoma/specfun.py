"""Gamma-law statistics and order-statistic kernels.

Squared Nakagami-m channel norms are Gamma with integer shape, so every
distribution here is an integer-shape Gamma or an order statistic of
i.i.d. integer-shape Gammas.  :func:`order_weights` expands an order
statistic's density in powers of the parent survival ``S = 1 - F``; it
is the one such expansion, read by both the ordered survival function
here and the closed-form outage expansion.  Each power ``S**p`` is a
finite sum through the power-series coefficients of the truncated
exponential sum (:func:`multinomial_coeffs`), so the ordered survival
function keeps relative accuracy in the deep upper tail.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "multinomial_coeffs",
    "gamma_pdf",
    "order_weights",
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


def order_weights(order: int, num_users: int) -> list[tuple[int, int]]:
    """Expansion of the ``order``-th smallest of ``num_users`` i.i.d. gains
    in powers of the parent survival function ``S = 1 - F``.

    Its density is ``rank * F**(l-1) * S**(L-l) * f`` with
    ``rank = L! / ((L-l)! (l-1)!)`` (David & Nagaraja, *Order
    Statistics*, 3rd ed., 2003, ch. 2); expanding ``(1 - S)**(l-1)`` gives
    ``sum_j w_j * S**r_j * f`` with ``r_j = L - l + j`` and
    ``w_j = (-1)**j * rank * C(l-1, j)``, ``j = 0..l-1``.  Returns the
    pairs ``(r_j, w_j)``; the weights are exact integers.
    """
    if not 1 <= order <= num_users:
        raise ValueError(f"order must lie in 1..{num_users}")
    l, n = order, num_users
    rank = math.comb(n, l) * l
    return [(n - l + j, (-1) ** j * rank * math.comb(l - 1, j)) for j in range(l)]


def ordered_sf(x, order: int, num_users: int, shape: int, scale: float):
    """Survival function of the ``order``-th smallest of ``num_users``
    i.i.d. Gamma(shape, scale) gains.

    Integrates :func:`order_weights` term by term,
    ``sum_j w_j / (r_j + 1) * S**(r_j + 1)``, with each power of the
    parent survival ``S(x) = exp(-t) * sum_{k<shape} t**k / k!`` (``t =
    x / scale``) written as ``exp(-p*t) * polyval(t, multinomial_coeffs(p,
    shape))``.  The leading power dominates as ``S -> 0``, so the deep
    upper tail keeps relative accuracy (no ``1 - cdf`` cancellation).
    """
    t = np.asarray(x, dtype=float) / scale
    # past ~700/scale the exponential factors underflow to exactly 0;
    # capping t keeps the polynomial factors from overflowing first
    t = np.clip(t, 0.0, 1e6)
    total = np.zeros_like(t)
    for r, w in order_weights(order, num_users):
        poly = np.polynomial.polynomial.polyval(t, multinomial_coeffs(r + 1, shape))
        total += w / (r + 1) * poly * np.exp(-(r + 1) * t)
    out = np.clip(total, 0.0, 1.0)
    return out if out.ndim else float(out)
