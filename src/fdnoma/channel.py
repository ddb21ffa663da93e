"""Random generation of system realizations.

A batch of realizations is the triple (first-hop beamforming gains,
per-user combining gains with one row per realization, loop-interference
gains); each row of user gains is in ascending order unless drawn with
``sort=False``.  Gains are drawn as
Gamma variates directly: for integer Nakagami shape the squared MRT/MRC
norms are exactly Gamma, and sampling the norm is far cheaper than
summing per-antenna components.  Estimation errors enter only through
the estimated link powers inside the Gamma scales; the error statistics
are already marginalized into the SIDNR constants.

Streams are counter-based (Philox) and keyed by ``(seed, substream)``:
the same key always reproduces the same draws, and distinct substreams
are statistically independent, so trial blocks can run in any order or
in parallel with identical aggregate results.
"""

from __future__ import annotations

import numpy as np

from .config import DerivedConstants

__all__ = ["seeded_stream", "draw_batch"]


def seeded_stream(seed: int, substream: int = 0) -> np.random.Generator:
    """Deterministic, disjoint random stream for ``(seed, substream)``.

    Identical arguments reproduce identical draw sequences; different
    substreams under the same seed are independent Philox keys.
    """
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if not 0 <= int(substream) < 2 ** 64:
        raise ValueError("substream must fit in an unsigned 64-bit integer")
    key = np.array([int(seed), int(substream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_batch(
    dc: DerivedConstants,
    rng: np.random.Generator,
    size: int,
    include_li: bool = True,
    sort: bool = True,
):
    """Vectorized draws: (gain_sr[size], gains_ru[size, L], gain_li).

    Stream layout contract (fixed so results are reproducible): the
    first-hop block, then one block per user in user order, then the
    loop-interference block.  ``include_li=False`` skips the final block
    (half-duplex operation) and returns 0.0 in its place.  With
    ``sort=False`` the user gains stay in draw order (each user keeps its
    own channel; used by the orthogonal-access baseline, which has no
    ordering-based power allocation).
    """
    cfg = dc.cfg
    gain_sr = rng.gamma(cfg.m_sr * cfg.tx_antennas, dc.power_sr_est / cfg.m_sr, size)
    gains_ru = np.empty((size, cfg.num_users))
    for i in range(cfg.num_users):
        m = cfg.m_ru[i]
        gains_ru[:, i] = rng.gamma(m * cfg.rx_antennas, dc.power_ru_est[i] / m, size)
    if sort:
        gains_ru.sort(axis=1)
    if include_li:
        gain_li = rng.gamma(cfg.m_li, dc.power_li / cfg.m_li, size)
    else:
        gain_li = 0.0
    return gain_sr, gains_ru, gain_li

