"""Outage probability toolkit for dual-hop NOMA full-duplex AF relay
networks over Nakagami-m fading, with residual hardware impairments,
channel estimation errors and imperfect SIC.

Exact closed forms, a direct 2-D integration oracle, high-SNR asymptotics and
a deterministic Monte Carlo engine cross-validate each other; a CLI
sweeps parameters and emits CSV curves.
"""

__version__ = "0.1.0"

from .analytic import (
    AsymptoteReport,
    NumericsError,
    cee_floor,
    op_asymptotic,
    op_exact,
    op_lower_bound,
    op_oracle_2d,
    tail_weight_integral,
)
from .baselines import (
    BaselineConfig,
    fd_thresholds_rate_matched,
    hd_outage_all,
    hd_thresholds_rate_matched,
    oma_outage_all,
    oma_threshold_rate_sum,
)
from .channel import draw_batch, seeded_stream
from .config import (
    ConfigError,
    DerivedConstants,
    SystemConfig,
    config_hash,
    default_config,
    derive_constants,
    load_config,
    threshold_from_rate,
)
from .montecarlo import OutageEstimate, estimate, estimate_all_users
from .specfun import ordered_sf

__all__ = [
    "__version__",
    "AsymptoteReport",
    "BaselineConfig",
    "ConfigError",
    "DerivedConstants",
    "NumericsError",
    "OutageEstimate",
    "SystemConfig",
    "cee_floor",
    "config_hash",
    "default_config",
    "derive_constants",
    "draw_batch",
    "estimate",
    "estimate_all_users",
    "fd_thresholds_rate_matched",
    "hd_outage_all",
    "hd_thresholds_rate_matched",
    "load_config",
    "oma_outage_all",
    "oma_threshold_rate_sum",
    "op_asymptotic",
    "op_exact",
    "op_lower_bound",
    "op_oracle_2d",
    "ordered_sf",
    "seeded_stream",
    "tail_weight_integral",
    "threshold_from_rate",
]
