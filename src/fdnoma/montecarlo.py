"""Stochastic outage estimation with deterministic parallel partitioning.

Trials are split into fixed-size blocks; block ``b`` draws from the
substream ``(seed, b)``, and per-user outage counts are integers summed
over blocks.  The block size is a constant of the estimator, so the
aggregate counts depend only on ``(seed, trials)``: the ``partitions``
argument controls scheduling concurrency and can never change a result.

One private engine, :func:`_estimate`, runs every Monte Carlo figure:
the full-duplex NOMA system here and both comparison systems in
:mod:`fdnoma.baselines`, which differ only in the derived constants,
the draw options and the per-user mask they pass in.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import draw_batch, seeded_stream
from .config import SystemConfig, derive_constants
from .sidnr import outage_mask

__all__ = ["BLOCK_TRIALS", "OutageEstimate", "estimate", "estimate_all_users"]

BLOCK_TRIALS = 1 << 18  # trials per substream block; fixed by contract


@dataclass(frozen=True)
class OutageEstimate:
    """An outage probability plus its provenance.

    ``std_error`` is the binomial standard error sqrt(p(1-p)/trials);
    ``method`` tags how the value was produced (mc, exact, lb, asymp,
    oracle, hd, oma).
    """

    op_value: float
    trials: int
    std_error: float
    method: str
    user: int
    seed: int | None = None
    partitions: int | None = None


def _blocks(trials: int):
    full, rest = divmod(trials, BLOCK_TRIALS)
    sizes = [BLOCK_TRIALS] * full + ([rest] if rest else [])
    return list(enumerate(sizes))


def _run_blocks(kernel, trials: int, partitions: int, n_out: int) -> np.ndarray:
    """Sum integer outage counts over all blocks, optionally threaded."""
    blocks = _blocks(trials)
    counts = np.zeros(n_out, dtype=np.int64)
    if partitions > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=min(partitions, 16)) as pool:
            for c in pool.map(kernel, blocks):
                counts += c
    else:
        for blk in blocks:
            counts += kernel(blk)
    return counts


def _estimate(dc, users, trials, seed, partitions, method, mask=outage_mask, **draw_opts):
    """Per-user outage estimates from one shared stream of realizations.

    Block ``b`` draws ``draw_batch(dc, seeded_stream(seed, b), size,
    **draw_opts)``; ``mask(g1, g2, g3, dc, user)`` marks the outages of
    ``user`` among them.  ``users`` defaults to every user of ``dc``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    num_users = dc.cfg.num_users
    if users is None:
        users = tuple(range(1, num_users + 1))
    users = tuple(int(u) for u in users)
    if not users:
        raise ValueError("users must not be empty")
    for u in users:
        if not 1 <= u <= num_users:
            raise ValueError(f"user {u} outside 1..{num_users}")

    def kernel(block):
        index, size = block
        g1, g2, g3 = draw_batch(dc, seeded_stream(seed, index), size, **draw_opts)
        return np.array([int(mask(g1, g2, g3, dc, u).sum()) for u in users], dtype=np.int64)

    counts = _run_blocks(kernel, trials, partitions, len(users))
    out = []
    for u, k in zip(users, counts):
        p = k / trials
        out.append(
            OutageEstimate(
                op_value=float(p),
                trials=trials,
                std_error=float(np.sqrt(p * (1.0 - p) / trials)),
                method=method,
                user=u,
                seed=seed,
                partitions=partitions,
            )
        )
    return out


def estimate_all_users(
    cfg: SystemConfig,
    trials: int,
    seed: int = 0,
    partitions: int = 1,
    users=None,
) -> list[OutageEstimate]:
    """Per-user outage estimates from one shared stream of realizations.

    Each trial draws a full realization and evaluates every requested
    user's indicator on it, which both halves the runtime and correlates
    the per-user curves (smoother comparisons at equal seeds).
    """
    return _estimate(derive_constants(cfg), users, trials, seed, partitions, "mc")


def estimate(
    cfg: SystemConfig, user: int, trials: int, seed: int = 0, partitions: int = 1
) -> OutageEstimate:
    """Outage estimate for a single user (same stream layout as the
    all-users run, so results agree realization-for-realization)."""
    return estimate_all_users(cfg, trials, seed, partitions, users=(user,))[0]
