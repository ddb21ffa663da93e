"""Stochastic outage estimation with deterministic parallel partitioning.

Trials are split into fixed-size blocks, and per-user outage counts are
integers summed over blocks.  In block ``b`` the unit Gamma draws of
column ``c`` (the first hop, loop interference or one user; see
:func:`~fdnoma.channel.unit_columns`) at shape ``k`` come from their own
stream, ``seeded_stream(seed, b, c, k)``.  The block size is a constant
of the estimator, so the aggregate counts depend only on ``(seed,
trials)``: the ``partitions`` argument controls scheduling concurrency
and can never change a result.

One private engine, :func:`_estimate`, runs every Monte Carlo figure:
the full-duplex NOMA system here and both comparison systems in
:mod:`fdnoma.baselines`, which differ only in the derived constants and
the user-gain ordering of their :class:`Job`; every job marks outages
by :func:`~fdnoma.sidnr.outage_mask`, one comparison per user.  One
call serves a whole sweep (every grid point and method, whatever their
fading shapes): each block draws every (column, shape) that some job
needs once and scales it to every job that reads it.  A job reads only
its own columns, so it gets the counts of a separate run, bit for bit.

A call of at most ``CACHED_BLOCKS`` blocks also keeps its unit draws,
read-only, in a one-entry slot, :func:`_kept_blocks`, keyed by the
call's ``(column, shape)`` set, the seed and the trial count, which fix
every block, so the next call on that key reads the draws instead of
making them again (common random numbers across calls; Asmussen &
Glynn, *Stochastic Simulation*, 2007, ch. V).  A call on another key
takes the slot, empty, before it draws, and a call of more blocks leaves
it empty, so one call's blocks at most are kept.  Only repeated calls on
one key gain, as a loop of estimates at one seed and trial count over
configs of the same fading shapes makes; one CLI run is one call.
``_kept_blocks.cache_clear()`` empties the slot.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import SEED_MAX, draw_units, scale_users, seeded_stream, unit_columns
from .config import ConfigError, DerivedConstants, SystemConfig, _check_int, derive_constants, gamma_laws
from .sidnr import outage_mask

__all__ = ["BLOCK_TRIALS", "Job", "OutageEstimate", "estimate", "estimate_all_users"]

BLOCK_TRIALS = 1 << 18  # trials per block; fixed by contract
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
def _kept_blocks(columns, seed: int, trials: int) -> dict:
    """The slot of the call on this key: ``{index: [units per chunk]}`` of
    the blocks it keeps, shared with the next call on the same key.  A
    call on another key replaces it; calls still in flight keep theirs."""
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
        L = self.dc.cfg.num_users
        users = tuple(_check_int("user", u, 1, L) for u in (range(1, L + 1) if self.users is None else self.users))
        if not users:
            raise ConfigError("users must not be empty")
        object.__setattr__(self, "users", users)


def _estimate(jobs: list[Job], trials, seed, partitions) -> list[list[OutageEstimate]]:
    """Per-job lists of per-user estimates: in block ``b`` each (column,
    shape) that some job needs is drawn once, from ``seeded_stream(seed,
    b, column, shape)`` (or read from the slot), and scaled to each job's
    constants."""
    trials, seed = _check_int("trials", trials, 1), _check_int("seed", seed, 0, SEED_MAX)
    partitions = _check_int("partitions", partitions, 1)
    if not jobs:
        raise ValueError("jobs must not be empty")
    laws = [gamma_laws(job.dc) for job in jobs]
    columns = [unit_columns(shapes, scales[2] > 0) for shapes, scales in laws]
    needed = tuple(sorted({pair for cols in columns for pair in cols}))
    groups = {}  # jobs whose user gains draw, scale and sort alike share one gain matrix
    for i, (job, cols, (_, scales)) in enumerate(zip(jobs, columns, laws)):
        groups.setdefault((cols[1:1 + len(scales[1])], scales[1], job.sort), []).append(i)

    kept = _kept_blocks(needed, seed, trials)  # taken once, before any draw
    keep = trials <= CACHED_BLOCKS * BLOCK_TRIALS

    def kernel(block):
        index, size = block
        pieces = kept.get(index)
        if pieces is None:
            # a kept block is held whole, so it is drawn whole; any other is
            # drawn CHUNK_ROWS rows at a time, which bounds the draws in flight
            rows = size if keep else CHUNK_ROWS
            streams = {pair: seeded_stream(seed, index, *pair) for pair in needed}
            pieces = (draw_units(needed, lambda c, k: streams[c, k], min(rows, size - lo))
                      for lo in range(0, size, rows))
            if keep:
                pieces = kept[index] = list(pieces)
                for units in pieces:
                    for u in units.values():
                        u.flags.writeable = False
        counts = [np.zeros(len(job.users), dtype=np.int64) for job in jobs]
        for units in pieces:
            for lo in range(0, len(units[needed[0]]), CHUNK_ROWS):  # row chunks bound the scaled copies
                chunk = {pair: u[lo:lo + CHUNK_ROWS] for pair, u in units.items()}
                for (users, scales_ru, sort), members in groups.items():
                    g2 = scale_users([chunk[pair] for pair in users], scales_ru, sort)
                    for i in members:
                        job, ((k1, _, k3), (s1, _, s3)) = jobs[i], laws[i]
                        g1, g3 = s1 * chunk[0, k1], (s3 * chunk[1, k3] if s3 > 0 else 0.0)
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
