"""System configuration and derived constants.

The modeled network: a base station with ``tx_antennas`` transmit antennas
serves ``num_users`` downlink NOMA users through a single full-duplex
amplify-and-forward relay.  The base station beamforms (MRT) on the first
hop, users combine (MRC) with ``rx_antennas`` antennas on the second hop,
and the relay suffers residual loop interference between its receive and
transmit antennas.  All links fade as independent Nakagami-m with integer
shape, so squared channel norms are Gamma distributed.

Impairments carried by the configuration:

* residual transceiver distortion, aggregate level ``kappa`` per hop,
* channel estimation error variances ``sigma_e_*_sq`` that subtract from
  the true link powers,
* residual successive-interference-cancellation power ``sigma_ipsic_sq``,
* residual loop interference with power ``li_scale_lambda *
  snr_lin**(li_quality_mu - 1)`` (noise power is normalized to 1, so the
  transmit power equals the linear average SNR).

Everything here is deterministic and immutable; the analytic and Monte
Carlo engines share one :class:`DerivedConstants` instance per
(configuration, SNR) pair.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import operator
import sys
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "SystemConfig",
    "DerivedConstants",
    "derive_constants",
    "default_config",
    "threshold_from_rate",
    "load_config",
    "config_to_dict",
    "config_from_dict",
    "config_hash",
    "gamma_laws",
]

POWER_SUM_TOL = 1e-12
SNR_DB_MAX = 1000.0  # above it products of the routes' SNR-free constants underflow
_LIST_KEYS = {"power_coeffs", "thresholds", "hd_thresholds"}  # one entry per user
_PER_USER_KEYS = _LIST_KEYS | {"m_ru", "d_ru"}  # these two also take one shared scalar
_OPTIONAL_KEYS = {"hd_thresholds", "oma_threshold"}  # None: the comparison system's default


class ConfigError(ValueError):
    """An input value (a config field, a run argument or a user index)
    violates one of the model invariants."""


def _check_real(name, value):
    """Reject a config value that is not a real number within the float
    range (bools, NaN and the infinities included) or a list of them where
    the key takes one; returns it unchanged.  Nothing is coerced, so the
    config hash of a valid file does not change."""
    # a plain float or int (not a bool) takes the short way; any other
    # value, and every refusal, goes through the full check below
    if (type(value) is float or type(value) is int) and name not in _LIST_KEYS \
            and abs(value) <= sys.float_info.max:
        return value
    seq = isinstance(value, (list, tuple, np.ndarray))
    shape_ok = name in _PER_USER_KEYS if seq else name not in _LIST_KEYS
    items = value if seq else [value]
    if not shape_ok or any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in items):
        kinds = ["a number"] * (name not in _LIST_KEYS) + ["a list of numbers"] * (name in _PER_USER_KEYS)
        raise ConfigError(f"{name} must be {' or '.join(kinds)}, got {value!r}")
    if not all(abs(v) <= sys.float_info.max for v in items):  # NaN and inf fail too
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _check_int(name, value, lo=None, hi=None) -> int:
    """``operator.index(value)``, checked to lie in ``[lo, hi]`` (a None
    bound is open), or ConfigError: the package's one integer rule, for
    every count and index.  NumPy integers pass; a float is refused, even
    an integral one, and so is a bool."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    v = operator.index(value)
    if (lo is not None and v < lo) or (hi is not None and v > hi):
        raise ConfigError(f"{name} must be " + (f">= {lo}" if hi is None else f"in {lo}..{hi}") + f", got {v}")
    return v


def _count(name, value) -> int:
    """A config count or shape, at least 1; an integral float (JSON's
    ``2.0``) is read as its int, so the file keeps its config hash."""
    return _check_int(name, int(value) if isinstance(value, float) and value.is_integer() else value, 1)


def _per_user(value, n, name) -> tuple:
    out = tuple(value) if isinstance(value, (list, tuple, np.ndarray)) else (value,) * n
    if len(out) != n:
        raise ConfigError(f"{name} must have {n} entries, got {len(out)}")
    return out


@dataclass(frozen=True)
class SystemConfig:
    """Every user-facing parameter of the network, in linear units.

    ``snr_db`` is the sole decibel quantity: the average SNR (transmit
    power over unit noise power), from about -3,230 dB (-3,080 dB at
    mu = 0) to ``SNR_DB_MAX`` (1000 dB).  ``power_coeffs`` must sum to one
    and be strictly decreasing; ``thresholds`` are the per-user linear
    SIDNR targets for full-duplex operation.  ``m_ru`` and ``d_ru`` accept a
    scalar (shared by all users) or one value per user.  The optional
    ``hd_thresholds`` (one per user) and ``oma_threshold`` are the targets
    of the comparison systems in :mod:`fdnoma.baselines`; ``None`` leaves
    the baseline's default.
    """

    num_users: int
    tx_antennas: int
    rx_antennas: int
    m_sr: int
    m_ru: int | tuple[int, ...]
    m_li: int
    path_loss_exponent: float
    d_sr: float
    d_ru: float | tuple[float, ...]
    li_quality_mu: float
    li_scale_lambda: float
    power_coeffs: tuple[float, ...]
    thresholds: tuple[float, ...]
    kappa_sr: float
    kappa_ru: float
    sigma_e_sr_sq: float
    sigma_e_ru_sq: float
    sigma_ipsic_sq: float
    snr_db: float
    hd_thresholds: tuple[float, ...] | None = None
    oma_threshold: float | None = None

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not (name in _OPTIONAL_KEYS and getattr(self, name) is None):
                _check_real(name, getattr(self, name))
        for name in ("num_users", "tx_antennas", "rx_antennas", "m_sr", "m_li"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        n = self.num_users
        object.__setattr__(self, "m_ru", tuple(_count("m_ru", m) for m in _per_user(self.m_ru, n, "m_ru")))

        d_ru = tuple(float(d) for d in _per_user(self.d_ru, n, "d_ru"))
        if self.d_sr <= 0 or any(d <= 0 for d in d_ru):
            raise ConfigError("distances must be positive")
        object.__setattr__(self, "d_ru", d_ru)
        object.__setattr__(self, "d_sr", float(self.d_sr))

        if self.path_loss_exponent <= 0:
            raise ConfigError("path_loss_exponent must be positive")
        if not 0.0 <= self.li_quality_mu <= 1.0:
            raise ConfigError("li_quality_mu must lie in [0, 1]")
        if self.li_scale_lambda <= 0:
            raise ConfigError("li_scale_lambda must be positive")

        a = tuple(float(v) for v in self.power_coeffs)
        g = tuple(float(v) for v in self.thresholds)
        object.__setattr__(self, "power_coeffs", a)
        object.__setattr__(self, "thresholds", g)
        if len(a) != n or len(g) != n:
            raise ConfigError("power_coeffs and thresholds need one entry per user")
        if any(v <= 0 for v in a):
            raise ConfigError("power coefficients must be positive")
        if abs(math.fsum(a) - 1.0) > POWER_SUM_TOL:
            raise ConfigError(f"power coefficients must sum to 1, got {math.fsum(a)!r}")
        if any(a[i] <= a[i + 1] for i in range(n - 1)):
            raise ConfigError("power coefficients must be strictly decreasing")
        if any(v <= 0 for v in g):
            raise ConfigError("thresholds must be positive")
        if self.hd_thresholds is not None:
            hd = tuple(float(v) for v in self.hd_thresholds)
            if len(hd) != n or any(v <= 0 for v in hd):
                raise ConfigError("hd_thresholds needs one positive entry per user")
            object.__setattr__(self, "hd_thresholds", hd)
        if self.oma_threshold is not None:
            if self.oma_threshold <= 0:
                raise ConfigError("oma_threshold must be positive")
            object.__setattr__(self, "oma_threshold", float(self.oma_threshold))

        if self.kappa_sr < 0 or self.kappa_ru < 0:
            raise ConfigError("impairment levels kappa must be non-negative")
        if self.sigma_e_sr_sq < 0 or self.sigma_e_ru_sq < 0:
            raise ConfigError("estimation error variances must be non-negative")
        if not 0.0 <= self.sigma_ipsic_sq <= 1.0:
            raise ConfigError("sigma_ipsic_sq must lie in [0, 1]")

        # Estimated link powers (true power minus estimation error variance)
        # must stay positive or the Gamma scales become meaningless.
        alpha = self.path_loss_exponent
        if self.sigma_e_sr_sq >= self.d_sr ** (-alpha):
            raise ConfigError("sigma_e_sr_sq must be below the S-R link power d_sr**-alpha")
        for d in d_ru:
            if self.sigma_e_ru_sq >= d ** (-alpha):
                raise ConfigError("sigma_e_ru_sq must be below every R-U link power")

        try:  # the SNR and the loop-interference power it scales stay positive finite doubles
            in_range = self.snr_db <= SNR_DB_MAX and self.snr_lin > 0.0 and _power_li(self) < math.inf
        except OverflowError:
            in_range = False
        if not in_range:
            raise ConfigError(f"snr_db must be at most {SNR_DB_MAX:g} and keep the linear SNR and the "
                              f"loop-interference power positive finite doubles, got {self.snr_db!r}")

    @property
    def snr_lin(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)


@dataclass(frozen=True, eq=False)
class DerivedConstants:
    """Constants shared by the analytic and simulation engines.

    Stage arrays are indexed 0..L-1 for decode stages 1..L.  The margin
    ``margin_j = a_j - gamma_th_j * (iui[j] + ipsic[j] + rhi_mix)`` is the
    share of desired power left after the threshold claims interference,
    residual SIC leakage and distortion.  ``demand[j]`` is
    ``gamma_th_j / (snr_lin * margin_j)``, the channel-gain level the
    decode stage requires; it is ``inf`` when the stage is infeasible.
    ``demand_peak[l-1]`` is the running maximum over stages ``j <= l``
    and drives every outage expression.  Instances are immutable, their
    array fields read-only (also in a copy made by ``dataclasses.replace``),
    and safe to share across concurrent workers.
    """

    cfg: SystemConfig
    snr_lin: float
    power_sr: float          # mean squared S-R channel gain per antenna
    power_li: float          # residual loop-interference power
    power_sr_est: float      # estimated (true minus CEE variance)
    power_ru_est: np.ndarray
    iui: np.ndarray          # power of not-yet-decoded users at each stage
    ipsic: np.ndarray        # residual SIC leakage power at each stage
    rhi_mix: float           # aggregate distortion-to-signal power ratio
    noise_ru: np.ndarray     # per-user effective noise + CEE at the user
    rhi_amp: float           # distortion amplification of noise terms
    sr_derate: float         # first-hop distortion de-rating of the LI term
    noise_sr: float          # effective noise + CEE at the relay input
    demand: np.ndarray
    demand_peak: np.ndarray
    feasible: np.ndarray     # per user: all stages j <= l have margin > 0

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def _power_li(cfg: SystemConfig) -> float:  # the residual loop-interference power
    return cfg.li_scale_lambda * cfg.snr_lin ** (cfg.li_quality_mu - 1.0)


def _sum_like_numpy(xs) -> float:
    """``np.sum(xs)`` of a tuple of floats, bit for bit: NumPy adds fewer
    than eight values one after another, as the loop does here, and sums
    longer runs pairwise, which is left to it."""
    if len(xs) >= 8:
        return float(np.sum(xs))
    total = 0.0
    for x in xs:
        total += x
    return total


def derive_constants(cfg: SystemConfig) -> DerivedConstants:
    """Compute every symbol the outage expressions need, once.

    Pure and deterministic: identical configurations give identical
    constants.  Each constant is computed in Python floats by the
    operations, in the order, of the elementwise array expression it
    stands for, so it matches that expression bit for bit; the array
    fields are built at the end and are read-only.
    """
    n = cfg.num_users
    g = cfg.snr_lin
    alpha = cfg.path_loss_exponent

    power_sr = cfg.d_sr ** (-alpha)
    power_li = _power_li(cfg)
    power_sr_est = power_sr - cfg.sigma_e_sr_sq
    power_ru_est = [d ** (-alpha) - cfg.sigma_e_ru_sq for d in cfg.d_ru]

    a = cfg.power_coeffs
    iui = [_sum_like_numpy(a[j + 1:]) for j in range(n)]
    ipsic = [cfg.sigma_ipsic_sq * _sum_like_numpy(a[:j]) for j in range(n)]

    ksr2 = cfg.kappa_sr ** 2
    kru2 = cfg.kappa_ru ** 2
    rhi_mix = ksr2 + kru2 * (1.0 + ksr2)
    rhi_amp = (1.0 + kru2) * (1.0 + ksr2)
    sr_derate = 1.0 / (1.0 + ksr2)
    noise_ru = g * cfg.sigma_e_ru_sq + 1.0 / (1.0 + kru2)
    noise_sr = g * cfg.sigma_e_sr_sq + 1.0 / (1.0 + ksr2)

    gth = cfg.thresholds
    margin = [a[j] - gth[j] * (iui[j] + ipsic[j] + rhi_mix) for j in range(n)]
    # g >= 0, so g*m > 0 iff m > 0, save where g*m underflows to 0, and
    # there the array division gt/0 read inf as well
    demand = [t / gm if (gm := g * m) > 0 else math.inf for t, m in zip(gth, margin)]

    return DerivedConstants(
        cfg=cfg,
        snr_lin=g,
        power_sr=power_sr,
        power_li=power_li,
        power_sr_est=power_sr_est,
        power_ru_est=np.array(power_ru_est),
        iui=np.array(iui),
        ipsic=np.array(ipsic),
        rhi_mix=rhi_mix,
        noise_ru=np.full(n, noise_ru),
        rhi_amp=rhi_amp,
        sr_derate=sr_derate,
        noise_sr=noise_sr,
        demand=np.array(demand),
        demand_peak=np.array(list(itertools.accumulate(demand, max))),
        feasible=np.array(list(itertools.accumulate((m > 0 for m in margin), operator.and_))),
    )


def gamma_laws(dc: DerivedConstants):
    """Gamma shapes and scales of the links of ``dc``, each a triple
    (first hop, per-user tuple, loop interference); the one statement
    of the link law, read by the Monte Carlo draws and the analytic routes.
    """
    cfg = dc.cfg
    shapes = cfg.m_sr * cfg.tx_antennas, tuple(m * cfg.rx_antennas for m in cfg.m_ru), cfg.m_li
    ru = tuple(float(p) / m for p, m in zip(dc.power_ru_est, cfg.m_ru))
    return shapes, (dc.power_sr_est / cfg.m_sr, ru, dc.power_li / cfg.m_li)


def threshold_from_rate(rate_bpcu: float) -> float:
    """Linear SIDNR threshold for a target rate in bits per channel use."""
    return 2.0 ** rate_bpcu - 1.0


def default_config(**overrides) -> SystemConfig:
    """Three-user reference setup used throughout the experiments.

    Half-power to the weakest user (1/2, 1/3, 1/6 split), thresholds
    (0.9, 1.5, 2), both hops at normalized distance 0.5 with path-loss
    exponent 3, unit-scale loop interference and no impairments.
    """
    base = dict(
        num_users=3,
        tx_antennas=1,
        rx_antennas=1,
        m_sr=1,
        m_ru=1,
        m_li=1,
        path_loss_exponent=3.0,
        d_sr=0.5,
        d_ru=0.5,
        li_quality_mu=0.2,
        li_scale_lambda=1.0,
        power_coeffs=(1 / 2, 1 / 3, 1 / 6),
        thresholds=(0.9, 1.5, 2.0),
        kappa_sr=0.0,
        kappa_ru=0.0,
        sigma_e_sr_sq=0.0,
        sigma_e_ru_sq=0.0,
        sigma_ipsic_sq=0.0,
        snr_db=15.0,
    )
    base.update(overrides)
    return SystemConfig(**base)


# -- config file handling ---------------------------------------------------


def config_to_dict(cfg: SystemConfig) -> dict:
    """Plain JSON-ready dict; an unset optional key is left out, so it
    does not enter the config hash."""
    d = asdict(cfg)
    return {k: list(v) if isinstance(v, tuple) else v for k, v in d.items() if v is not None}


def config_from_dict(data: dict) -> SystemConfig:
    fields = set(SystemConfig.__dataclass_fields__)
    extra = set(data) - fields
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    missing = fields - _OPTIONAL_KEYS - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    return SystemConfig(**data)


def load_config(path) -> SystemConfig:
    """Read a flat JSON key-value file; raises ConfigError on any defect."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return config_from_dict(data)


def config_hash(cfg: SystemConfig) -> str:
    """Digest that changes iff a semantic field changes."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
