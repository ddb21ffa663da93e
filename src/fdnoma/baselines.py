"""Half-duplex NOMA and full-duplex OMA comparison systems.

Both baselines reuse the same channel statistics and run Monte Carlo
only.  Neither has an outage event of its own: each is the system's
one-comparison :func:`~fdnoma.sidnr.outage_mask` on a transform of the
one :class:`~fdnoma.config.SystemConfig`, as a job (:func:`hd_job`,
:func:`oma_job`) of the shared engine in :mod:`fdnoma.montecarlo`.  Their
thresholds are the config's optional keys ``hd_thresholds`` and
``oma_threshold``, so they are validated and hashed with the rest.

* Half-duplex NOMA is the system with the thresholds replaced by
  ``hd_thresholds`` and zero loop-interference power: its derived
  constants carry ``power_li = 0``, so its draws see ``g3 = 0``.  By
  default the thresholds equal the full-duplex ones (the comparison
  convention that keeps every stage feasible); the rate-matched
  alternative, where one half-duplex channel use must carry what two
  full-duplex uses carry, is available through
  :func:`hd_thresholds_rate_matched`.  No prelog factor is applied: with
  thresholds fixed, the outage comparison is threshold-to-threshold.
* Full-duplex OMA serves each user alone: user ``l`` is user 1 of a
  one-user configuration (power coefficient 1, so no interference and no
  SIC; threshold ``oma_threshold``), with the loop-interference term
  kept.  The threshold defaults to the rate-sum equivalent
  ``prod(1 + thr_l) - 1``.  The mask reads the same one-user peak demand
  and feasibility for every user, so the job is the base system with
  those two replaced; each user's own ``m_ru`` and ``d_ru`` enter only
  through the draw scales of the base system.  Each user keeps its
  own, unordered channel (an unsorted job): orthogonal access has no
  ordering-based power allocation, so the multiuser-diversity boost of
  the ordered gains belongs to the NOMA side only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, SystemConfig, derive_constants
from .montecarlo import Job, _estimate

__all__ = [
    "BaselineConfig",
    "hd_thresholds_rate_matched",
    "fd_thresholds_rate_matched",
    "oma_threshold_rate_sum",
    "hd_job",
    "oma_job",
    "hd_outage_all",
    "oma_outage_all",
]


def hd_thresholds_rate_matched(fd_thresholds) -> tuple[float, ...]:
    """Thresholds a half-duplex link needs to match full-duplex rates:
    (1 + thr)**2 - 1 per user (two channel uses per symbol)."""
    return tuple((1.0 + t) ** 2 - 1.0 for t in fd_thresholds)


def fd_thresholds_rate_matched(hd_thresholds) -> tuple[float, ...]:
    """Full-duplex thresholds carrying the same rates as a half-duplex
    system with the given thresholds: sqrt(1 + thr) - 1 per user.

    Anchoring the half-duplex side keeps every decode stage feasible when
    the half-duplex thresholds are the standard ones; the full-duplex
    system then runs at the rate-equivalent lower targets.
    """
    return tuple(math.sqrt(1.0 + t) - 1.0 for t in hd_thresholds)


def oma_threshold_rate_sum(fd_thresholds) -> float:
    """Single OMA threshold carrying the summed NOMA rates:
    prod(1 + thr_l) - 1."""
    return math.prod(1.0 + t for t in fd_thresholds) - 1.0


@dataclass(frozen=True)
class BaselineConfig:
    """The argument of :func:`hd_outage_all` and :func:`oma_outage_all`: a
    comparison system derived from a full-duplex NOMA configuration, whose
    thresholds are the base config's ``hd_thresholds`` and ``oma_threshold``."""

    base: SystemConfig
    mode: str  # "hd_noma" or "fd_oma"

    def __post_init__(self):
        if self.mode not in ("hd_noma", "fd_oma"):
            raise ConfigError(f"unknown baseline mode {self.mode!r}")


def hd_job(base: SystemConfig, users=None) -> Job:
    """The half-duplex NOMA system as a Monte Carlo job: the base system
    at ``hd_thresholds`` (default: its own) with no loop interference."""
    dc = derive_constants(replace(base, thresholds=base.hd_thresholds or base.thresholds))
    return Job(replace(dc, power_li=0.0), users, "hd")


def oma_job(base: SystemConfig, users=None) -> Job:
    """The full-duplex OMA system as a Monte Carlo job: the base system with
    every user's peak demand and feasibility those of the one-user system
    at ``oma_threshold`` (by default the rate sum of the base thresholds),
    its user gains unsorted."""
    thr = base.oma_threshold or oma_threshold_rate_sum(base.thresholds)
    solo = derive_constants(replace(
        base, num_users=1, power_coeffs=(1.0,), thresholds=(thr,),
        m_ru=base.m_ru[:1], d_ru=base.d_ru[:1], hd_thresholds=None, oma_threshold=None,
    ))
    L = base.num_users
    dc = replace(derive_constants(base), demand_peak=np.repeat(solo.demand_peak, L),
                 feasible=np.repeat(solo.feasible, L))
    return Job(dc, users, "oma", sort=False)


def hd_outage_all(bcfg: BaselineConfig, trials, seed=0, partitions=1, users=None):
    """Half-duplex NOMA outage for several users from shared draws."""
    if bcfg.mode != "hd_noma":
        raise ConfigError("hd_outage_all requires a hd_noma baseline config")
    return _estimate([hd_job(bcfg.base, users)], trials, seed, partitions)[0]


def oma_outage_all(bcfg: BaselineConfig, trials, seed=0, partitions=1, users=None):
    """Full-duplex OMA outage for several users from shared draws."""
    if bcfg.mode != "fd_oma":
        raise ConfigError("oma_outage_all requires a fd_oma baseline config")
    return _estimate([oma_job(bcfg.base, users)], trials, seed, partitions)[0]
