"""Stochastic outage estimation with deterministic parallel partitioning.

Trials are split into fixed-size blocks; block ``b`` draws from the
substream ``(seed, b)``, and per-user outage counts are integers summed
over blocks.  The block size is a constant of the estimator, so the
aggregate counts depend only on ``(seed, trials)``: the ``partitions``
argument controls scheduling concurrency and can never change a result.

One private engine, :func:`_estimate`, runs every Monte Carlo figure:
the full-duplex NOMA system here and both comparison systems in
:mod:`fdnoma.baselines`, which differ only in the derived constants and
the user-gain ordering of their :class:`Job`; every job marks outages
by :func:`~fdnoma.sidnr.outage_mask`, one comparison per user.  One
call serves a whole sweep (every grid point and method) from one stream:
each block's unit Gamma draws are made once and scaled to every job,
which gives each job the counts of a separate run, bit for bit.

A call of at most ``CACHED_BLOCKS`` blocks also keeps its unit draws,
read-only, in a one-entry slot, :func:`_kept_blocks`, keyed by ``(shapes,
include_li, seed, trials)``: the jobs' Gamma shapes, whether they draw
loop interference, the seed and the trial count fix every block, so the
next call on that key reads the draws instead of making them again
(common random numbers across calls; Asmussen & Glynn, *Stochastic
Simulation*, 2007, ch. V).  A call on another key takes the slot, empty,
before it draws, and a call of more blocks leaves it empty, so one
call's blocks at most are kept.  Only repeated calls on one key gain, as
a loop of estimates at one seed and trial count over configs of the same
fading shapes makes; one CLI run is one call.
``_kept_blocks.cache_clear()`` empties the slot.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import draw_units, scale_users, seeded_stream
from .config import DerivedConstants, SystemConfig, _check_int, derive_constants, gamma_laws
from .sidnr import outage_mask

__all__ = ["BLOCK_TRIALS", "Job", "OutageEstimate", "estimate", "estimate_all_users"]

BLOCK_TRIALS = 1 << 18  # trials per substream block; fixed by contract
CHUNK_ROWS = 1 << 15  # rows scaled and masked at a time; results do not depend on it
CACHED_BLOCKS = 2  # a call of at most this many blocks keeps them for the next call


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


@functools.lru_cache(maxsize=1)
def _kept_blocks(shapes, include_li: bool, seed: int, trials: int) -> dict:
    """The slot of the call on this key: ``{index: units}`` of the blocks
    it keeps, shared with the next call on the same key.  A call on
    another key replaces it; calls still in flight keep theirs."""
    return {}


def _run_blocks(kernel, trials: int, partitions: int) -> np.ndarray:
    """Sum integer outage counts over all blocks, on ``partitions`` threads."""
    full, rest = divmod(trials, BLOCK_TRIALS)
    blocks = list(enumerate([BLOCK_TRIALS] * full + ([rest] if rest else [])))
    with ThreadPoolExecutor(max_workers=min(partitions, 16)) as pool:
        return sum(pool.map(kernel, blocks))


@dataclass(frozen=True)
class Job:
    """One Monte Carlo figure: :func:`~fdnoma.sidnr.outage_mask` on ``dc``
    marks the outages of ``users`` (default all) among draws scaled to
    ``dc``.  A ``dc`` with zero loop-interference power (half duplex) sees
    ``g3 = 0.0``; ``sort=False`` keeps the user gains in draw order."""

    dc: DerivedConstants
    users: tuple[int, ...] | None
    method: str
    sort: bool = True

    def __post_init__(self):
        num_users = self.dc.cfg.num_users
        users = range(1, num_users + 1) if self.users is None else self.users
        users = tuple(_check_int("user", u) for u in users)
        if not users:
            raise ValueError("users must not be empty")
        for u in users:
            if not 1 <= u <= num_users:
                raise ValueError(f"user {u} outside 1..{num_users}")
        object.__setattr__(self, "users", users)


def _estimate(jobs: list[Job], trials, seed, partitions) -> list[list[OutageEstimate]]:
    """Per-job lists of per-user estimates: block ``b`` is drawn once, from
    ``seeded_stream(seed, b)`` (or read from the slot), and scaled
    to each job's constants."""
    trials, seed = _check_int("trials", trials), _check_int("seed", seed)
    partitions = _check_int("partitions", partitions)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    laws = [gamma_laws(job.dc) for job in jobs]
    if len({shape for shape, _ in laws}) != 1:
        raise ValueError(f"jobs must share one set of fading shapes, got {[s for s, _ in laws]}")
    shapes, include_li = laws[0][0], any(scales[2] > 0 for _, scales in laws)
    groups = {}  # jobs whose user gains scale and sort alike share one gain matrix
    for i, (job, (_, scales)) in enumerate(zip(jobs, laws)):
        groups.setdefault((scales[1], job.sort), []).append(i)

    kept = _kept_blocks(shapes, include_li, seed, trials)  # taken once, before any draw
    keep = trials <= CACHED_BLOCKS * BLOCK_TRIALS

    def kernel(block):
        index, size = block
        units = kept.get(index)
        if units is None:
            units = draw_units(shapes, seeded_stream(seed, index), size, include_li)
            if keep:
                for u in units:
                    if u is not None:
                        u.flags.writeable = False
                kept[index] = units
        counts = [np.zeros(len(job.users), dtype=np.int64) for job in jobs]
        for lo in range(0, size, CHUNK_ROWS):  # row chunks bound the scaled copies
            unit_sr, units_ru, unit_li = (u if u is None else u[lo:lo + CHUNK_ROWS] for u in units)
            for (scales_ru, sort), members in groups.items():
                g2 = scale_users(units_ru, scales_ru, sort)
                for i in members:
                    job, (s1, _, s3) = jobs[i], laws[i][1]
                    g1, g3 = s1 * unit_sr, (s3 * unit_li if s3 > 0 else 0.0)
                    counts[i] += [np.count_nonzero(outage_mask(g1, g2, g3, job.dc, u)) for u in job.users]
        return np.concatenate(counts)

    p = _run_blocks(kernel, trials, partitions) / trials
    cells = iter(zip(p.tolist(), np.sqrt(p * (1.0 - p) / trials).tolist()))
    return [[OutageEstimate(v, trials, se, job.method, u, seed, partitions)
             for u, (v, se) in zip(job.users, cells)] for job in jobs]


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
    return _estimate([Job(derive_constants(cfg), users, "mc")], trials, seed, partitions)[0]


def estimate(
    cfg: SystemConfig, user: int, trials: int, seed: int = 0, partitions: int = 1
) -> OutageEstimate:
    """Outage estimate for a single user (same stream layout as the
    all-users run, so results agree realization-for-realization)."""
    return estimate_all_users(cfg, trials, seed, partitions, users=(user,))[0]
