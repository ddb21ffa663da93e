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

Draws are laid out in columns: column 0 is the first hop, column 1 loop
interference and column ``2 + i`` user ``i``, whatever the number of
users (:func:`unit_columns`).  :func:`draw_units` draws column ``c`` at
Gamma shape ``k`` from ``stream(c, k)``.  The Monte Carlo engine gives
each (block, column, shape) its own stream, :func:`seeded_stream` of
``(seed, block, column, shape)``: an SFC64 generator seeded by a
``SeedSequence`` with that spawn key.  The same key always reproduces the
same draws and distinct keys are statistically independent, so blocks
run in any order or in parallel with identical results, and a column's
draws do not depend on which other columns or configurations share the
block.  :func:`draw_batch` draws every column from one generator in the
order first hop, users, loop interference.  Constants that carry no loop
interference (``power_li = 0``, the half-duplex system) skip its column:
the loop-interference gain is the scalar 0.0.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import DerivedConstants, _check_int, gamma_laws

__all__ = ["seeded_stream", "draw_batch", "draw_units", "scale_users", "unit_columns"]

SEED_MAX = 2 ** 64 - 1  # seeds and substream keys are unsigned 64-bit integers


def seeded_stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic random stream for ``(seed, *key)``: an SFC64 generator
    seeded by ``SeedSequence(seed, spawn_key=key)``.

    Identical arguments reproduce identical draw sequences; different keys
    under one seed give independent streams.
    """
    seed = _check_int("seed", seed, 0, SEED_MAX)
    key = tuple(_check_int("substream", k, 0, SEED_MAX) for k in key)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


def unit_columns(shapes, include_li: bool) -> tuple[tuple[int, int], ...]:
    """The ``(column, shape)`` pairs of one configuration's draws, in the
    stream layout contract order: the first hop (column 0), each user
    ``i`` (column ``2 + i``), then, with ``include_li``, loop
    interference (column 1)."""
    k1, k2, k3 = shapes
    return ((0, k1), *((2 + i, k) for i, k in enumerate(k2)), *([(1, k3)] if include_li else []))


def draw_units(columns, stream, size: int) -> dict:
    """Unit-scale variates ``{(column, shape): draws[size]}``, one
    ``stream(column, shape).standard_gamma(shape, size)`` call per pair of
    ``columns``, in their order, each filling one row of a single buffer."""
    units = np.empty((len(columns), size))
    for (c, k), row in zip(columns, units):
        stream(c, k).standard_gamma(k, size, out=row)
    return dict(zip(columns, units))


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


def scale_users(units_ru, scales, sort: bool = True) -> np.ndarray:
    """User gains: each user's unit variates (``units_ru``, one 1-D column
    per user, such as the transpose of a ``(size, L)`` array) scaled into
    one column of a column-major array, then ordered per row by a
    compare-exchange network on whole columns.  Each comparator only
    selects values, so for finite gains the result equals a row sort
    (``np.sort`` along axis 1) bit for bit."""
    gains_ru = np.empty((len(units_ru[0]), len(units_ru)), order="F")
    for unit, scale, col in zip(units_ru, scales, gains_ru.T):
        np.multiply(unit, scale, out=col)
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

    Every column comes from ``rng``, in the stream layout contract order
    of :func:`unit_columns`: the first-hop block, then one block per user
    in user order, then the loop-interference block, which is skipped
    (and 0.0 returned in its place) when ``dc`` carries no
    loop-interference power.
    """
    shapes, (s1, s2, s3) = gamma_laws(dc)
    units = list(draw_units(unit_columns(shapes, s3 > 0), lambda c, k: rng, size).values())
    gains_ru = scale_users(units[1:1 + len(s2)], s2)
    return s1 * units[0], gains_ru, (s3 * units[-1] if s3 > 0 else 0.0)
