"""Random generation of system realizations.

A batch of realizations is the triple (first-hop beamforming gains,
per-user combining gains with one row per realization, loop-interference
gains); each row of user gains is in ascending order unless scaled with
``sort=False``.  The user gains are a column-major ``(size, L)`` array,
so each user's gains are one contiguous column; the rows are ordered by
a compare-exchange network on whole columns (Batcher's odd-even merge
sort), which only selects values and so equals a row sort bit for bit.
Gains are drawn as
Gamma variates directly: for integer Nakagami shape the squared MRT/MRC
norms are exactly Gamma, and sampling the norm is far cheaper than
summing per-antenna components.  Estimation errors enter only through
the estimated link powers inside the Gamma scales; the error statistics
are already marginalized into the SIDNR constants.

:func:`draw_batch` draws a block's unit-scale variates (:func:`draw_units`,
which depend on the fading shapes only) and scales them to one
configuration (:func:`~fdnoma.config.gamma_laws`, the package's one
statement of the link shapes and scales, and :func:`scale_users`).  As
``Generator.gamma(k, s)`` is ``s * standard_gamma(k)`` bit for bit, every
configuration with the same shapes can share one block's unit draws.

Streams are counter-based (Philox) and keyed by ``(seed, substream)``:
the same key always reproduces the same draws, and distinct substreams
are statistically independent, so trial blocks can run in any order or
in parallel with identical aggregate results.  Constants that carry no
loop interference (``power_li = 0``, the half-duplex system) skip the
loop-interference block: the stream stops after the user blocks and the
loop-interference gain is the scalar 0.0.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import DerivedConstants, _check_int, gamma_laws

__all__ = ["seeded_stream", "draw_batch", "draw_units", "scale_users"]


def seeded_stream(seed: int, substream: int = 0) -> np.random.Generator:
    """Deterministic, disjoint random stream for ``(seed, substream)``.

    Identical arguments reproduce identical draw sequences; different
    substreams under the same seed are independent Philox keys.
    """
    seed, substream = _check_int("seed", seed), _check_int("substream", substream)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if not 0 <= substream < 2 ** 64:
        raise ValueError("substream must fit in an unsigned 64-bit integer")
    key = np.array([seed, substream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_units(shapes, rng: np.random.Generator, size: int, include_li: bool):
    """One block's unit-scale variates (first hop, users[size, L], loop
    interference or, without ``include_li``, None), in the stream layout
    contract order.  The user block is column-major: user ``i``'s draws
    fill one contiguous column, the ``i``-th ``standard_gamma`` call."""
    k1, k2, k3 = shapes
    unit_sr = rng.standard_gamma(k1, size)
    units_ru = np.empty((len(k2), size))
    for k, row in zip(k2, units_ru):
        rng.standard_gamma(k, size, out=row)
    return unit_sr, units_ru.T, (rng.standard_gamma(k3, size) if include_li else None)


@functools.cache
def _merge_network(n: int) -> tuple[tuple[int, int], ...]:
    """Comparator pairs ``(i, j)``, ``i < j``, of Batcher's odd-even merge
    sort on ``n`` keys (Knuth, TAOCP vol. 3, 5.3.4).  ``n`` need not be a
    power of two: comparators that would reach past key ``n - 1`` are left
    out, as if the missing keys were +inf."""
    pairs = []
    p = 1
    while p < n:
        k = p
        while k:
            for j in range(k % p, n - k, 2 * k):
                pairs += [(i, i + k) for i in range(j, j + min(k, n - j - k))
                          if i // (2 * p) == (i + k) // (2 * p)]
            k //= 2
        p *= 2
    return tuple(pairs)


def scale_users(units_ru: np.ndarray, scales, sort: bool = True) -> np.ndarray:
    """User gains: unit variates scaled per column into a column-major
    array, then ordered per row by a compare-exchange network on whole
    columns.  Each comparator only selects values, so for finite gains
    the result equals a row sort (``np.sort`` along axis 1) bit for bit."""
    gains_ru = np.multiply(units_ru, scales, order="F")
    if sort:
        cols, low = gains_ru.T, np.empty(len(gains_ru))
        for i, j in _merge_network(len(cols)):
            np.minimum(cols[i], cols[j], out=low)
            np.maximum(cols[i], cols[j], out=cols[j])
            cols[i] = low
    return gains_ru


def draw_batch(dc: DerivedConstants, rng: np.random.Generator, size: int):
    """Vectorized draws: (gain_sr[size], gains_ru[size, L], gain_li), with
    ``gains_ru`` column-major and each row in ascending order.

    Stream layout contract (fixed so results are reproducible): the
    first-hop block, then one block per user in user order, then the
    loop-interference block, which is skipped (and 0.0 returned in its
    place) when ``dc`` carries no loop-interference power.
    """
    shapes, (s1, s2, s3) = gamma_laws(dc)
    unit_sr, units_ru, unit_li = draw_units(shapes, rng, size, s3 > 0)
    return s1 * unit_sr, scale_users(units_ru, s2), (s3 * unit_li if s3 > 0 else 0.0)
