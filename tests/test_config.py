import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fdnoma import (
    ConfigError,
    config_hash,
    default_config,
    derive_constants,
    threshold_from_rate,
)
from fdnoma.baselines import hd_job, oma_job
from fdnoma.config import config_from_dict, config_to_dict, load_config
from test_acceptance import _sample_config


def test_zero_impairment_constants(ideal_cfg):
    dc = derive_constants(ideal_cfg)
    assert dc.rhi_mix == 0.0
    assert dc.noise_ru[0] == 1.0
    assert dc.rhi_amp == 1.0
    assert dc.sr_derate == 1.0
    assert dc.noise_sr == 1.0


def test_iui_is_trailing_power_sum():
    dc = derive_constants(default_config())
    assert dc.iui[0] == pytest.approx(0.5, abs=1e-15)
    assert dc.iui[1] == pytest.approx(1 / 6, abs=1e-15)
    assert dc.iui[2] == 0.0  # empty sum for the last user


def test_rhi_mix_value():
    cfg = default_config(kappa_sr=0.14, kappa_ru=0.14)
    dc = derive_constants(cfg)
    assert dc.rhi_mix == pytest.approx(0.0196 + 0.0196 * 1.0196, rel=1e-12)


def test_demand_at_zero_db():
    # first user at 0 dB: threshold 0.9 against margin 0.5 - 0.9*0.5 = 0.05
    dc = derive_constants(default_config(snr_db=0.0))
    assert dc.demand[0] == pytest.approx(18.0, rel=1e-12)


def test_link_powers_and_estimates():
    cfg = default_config(d_sr=0.5, d_ru=0.5, sigma_e_sr_sq=0.03, sigma_e_ru_sq=0.02, snr_db=10.0)
    dc = derive_constants(cfg)
    assert dc.power_sr == pytest.approx(8.0)
    assert dc.power_sr_est == pytest.approx(7.97)
    assert np.allclose(dc.power_ru_est, 7.98)
    # residual loop interference follows scale * snr**(mu-1)
    assert dc.power_li == pytest.approx(1.0 * 10.0 ** (cfg.li_quality_mu - 1.0))


def test_feasibility_examples():
    ok = derive_constants(default_config())
    assert ok.feasible[0]
    assert ok.feasible[2]
    bad = default_config(thresholds=(1.2, 1.5, 2.0))
    dc = derive_constants(bad)
    assert not dc.feasible[0]
    assert math.isinf(dc.demand[0])
    # stages accumulate: user 3 inherits user 1's infeasibility
    assert not dc.feasible[2]


def test_power_sum_validation():
    with pytest.raises(ConfigError):
        default_config(power_coeffs=(0.5, 0.5, 0.2))
    with pytest.raises(ConfigError):
        default_config(power_coeffs=(0.2, 0.3, 0.5))  # not decreasing


def test_estimation_error_bound():
    with pytest.raises(ConfigError):
        default_config(d_sr=1.0, sigma_e_sr_sq=1.0)  # equals link power
    with pytest.raises(ConfigError):
        default_config(d_ru=1.0, sigma_e_ru_sq=2.0)


def test_snr_db_range():
    # above 1000 dB the SNR-free constants leave the double range; far
    # below 0 dB the linear SNR underflows or, at mu 0, the loop-interference
    # power lambda / snr_lin overflows
    assert default_config(snr_db=1000.0).snr_lin == 1e100
    assert derive_constants(default_config(snr_db=-3235.0)).power_li < math.inf
    for snr_db, mu in ((1000.5, 0.2), (-3300.0, 0.2), (-3235.0, 0.0)):
        with pytest.raises(ConfigError, match="snr_db"):
            default_config(snr_db=snr_db, li_quality_mu=mu)


def test_integer_shape_validation():
    with pytest.raises(ConfigError):
        default_config(m_sr=0)
    with pytest.raises(ConfigError):
        default_config(m_ru=(1, 2, 0))
    with pytest.raises(ConfigError):
        default_config(li_quality_mu=1.5)


def test_kappa_monotonicity():
    # distortion mix never decreases, first-hop de-rating never increases
    kappas = np.linspace(0.0, 0.5, 11)
    for which in ("kappa_sr", "kappa_ru"):
        mixes, derates = [], []
        for k in kappas:
            kw = {"kappa_sr": 0.1, "kappa_ru": 0.1, which: float(k)}
            dc = derive_constants(default_config(**kw))
            mixes.append(dc.rhi_mix)
            derates.append(dc.sr_derate)
        assert np.all(np.diff(mixes) >= 0)
        assert np.all(np.diff(derates) <= 0)


def test_demand_scales_inverse_snr():
    vals = []
    for snr in (0.0, 10.0, 17.0, 30.0):
        dc = derive_constants(default_config(snr_db=snr))
        vals.append(dc.demand * dc.snr_lin)
    for v in vals[1:]:
        assert np.allclose(v, vals[0], rtol=1e-12)


def test_demand_peak_nondecreasing():
    dc = derive_constants(default_config(kappa_sr=0.1, kappa_ru=0.1, sigma_ipsic_sq=0.02))
    assert np.all(np.diff(dc.demand_peak) >= 0)


def test_derive_constants_deterministic(ideal_cfg):
    a = derive_constants(ideal_cfg)
    b = derive_constants(ideal_cfg)
    assert a.demand_peak.tolist() == b.demand_peak.tolist()
    assert a.power_li == b.power_li


def _numpy_constants(cfg):
    """Every field of :class:`DerivedConstants` by the vectorized NumPy
    formulas that ``derive_constants`` once used: the reference its
    plain-float derivation must match bit for bit."""
    n, g, alpha = cfg.num_users, cfg.snr_lin, cfg.path_loss_exponent
    power_sr = cfg.d_sr ** (-alpha)
    power_ru = np.array([d ** (-alpha) for d in cfg.d_ru])
    a, gth = np.array(cfg.power_coeffs), np.array(cfg.thresholds)
    iui = np.array([a[j + 1:].sum() for j in range(n)])
    ipsic = np.array([cfg.sigma_ipsic_sq * a[:j].sum() for j in range(n)])
    ksr2, kru2 = cfg.kappa_sr ** 2, cfg.kappa_ru ** 2
    rhi_mix = ksr2 + kru2 * (1.0 + ksr2)
    margin = a - gth * (iui + ipsic + rhi_mix)
    with np.errstate(divide="ignore"):
        demand = np.where(margin > 0, gth / (g * np.where(margin > 0, margin, 1.0)), np.inf)
    return dict(
        snr_lin=g,
        power_sr=power_sr,
        power_li=cfg.li_scale_lambda * g ** (cfg.li_quality_mu - 1.0),
        power_sr_est=power_sr - cfg.sigma_e_sr_sq,
        power_ru_est=power_ru - cfg.sigma_e_ru_sq,
        iui=iui,
        ipsic=ipsic,
        rhi_mix=rhi_mix,
        noise_ru=np.full(n, g * cfg.sigma_e_ru_sq + 1.0 / (1.0 + kru2)),
        rhi_amp=(1.0 + kru2) * (1.0 + ksr2),
        sr_derate=1.0 / (1.0 + ksr2),
        noise_sr=g * cfg.sigma_e_sr_sq + 1.0 / (1.0 + ksr2),
        demand=demand,
        demand_peak=np.maximum.accumulate(demand),
        feasible=np.logical_and.accumulate(margin > 0),
    )


def _ten_users(**kw):
    """Ten users, so the trailing power sums run past seven terms, where
    NumPy stops adding in order and sums pairwise."""
    a = np.arange(10.0, 0.0, -1.0)
    return default_config(num_users=10, power_coeffs=tuple((a / a.sum()).tolist()),
                          thresholds=(0.01,) * 10, **kw)


def _derivation_cases():
    family = [
        default_config(tx_antennas=tx, rx_antennas=rx, m_sr=m_sr, li_quality_mu=mu, snr_db=float(snr))
        for (tx, rx), m_sr, mu, snr in itertools.product(
            ((1, 1), (2, 2), (3, 2)), (1, 2), (0.0, 0.2, 0.5), range(0, 81, 10))
    ]
    rng = np.random.default_rng(2025)
    sampled = [replace(_sample_config(rng), snr_db=float(rng.integers(0, 81))) for _ in range(60)]
    edges = [
        _ten_users(sigma_ipsic_sq=0.03, kappa_sr=0.1, kappa_ru=0.14, snr_db=20.0),
        _ten_users(snr_db=-50.0),
        default_config(thresholds=(1.2, 1.5, 2.0)),  # an infeasible first stage
        default_config(snr_db=-3235.0),  # SNR times margin underflows to 0: demand inf
        default_config(kappa_sr=0, kappa_ru=0, sigma_ipsic_sq=0, sigma_e_ru_sq=0),  # int zeros
    ]
    return family + sampled + edges


def test_derivation_matches_the_numpy_formulas():
    # bit for bit, dtypes included, on the reference family at 0-80 dB,
    # acceptance-sampler draws and edge cases
    cases = _derivation_cases()
    for cfg in cases:
        dc = derive_constants(cfg)
        for name, want in _numpy_constants(cfg).items():
            got = getattr(dc, name)
            assert np.asarray(got).dtype == np.asarray(want).dtype, (name, cfg)
            assert np.array_equal(got, want), (name, got, want, cfg)
        assert dc.feasible.dtype == bool and dc.demand.dtype == np.float64
    assert len(cases) == 162 + 60 + 5


@pytest.mark.parametrize("build", ["derive_constants", "hd_job", "oma_job"])
def test_derived_arrays_are_read_only(build):
    cfg = default_config(kappa_sr=0.1, sigma_e_ru_sq=0.02)
    dc = {"derive_constants": derive_constants, "hd_job": lambda c: hd_job(c).dc,
          "oma_job": lambda c: oma_job(c).dc}[build](cfg)
    arrays = [f.name for f in fields(dc) if isinstance(getattr(dc, f.name), np.ndarray)]
    assert arrays == ["power_ru_est", "iui", "ipsic", "noise_ru", "demand", "demand_peak", "feasible"]
    for name in arrays:
        with pytest.raises(ValueError, match="read-only"):
            getattr(dc, name)[0] = 99.0


def test_threshold_from_rate():
    assert threshold_from_rate(1.0) == pytest.approx(1.0)
    assert threshold_from_rate(2.0) == pytest.approx(3.0)


def test_config_roundtrip_and_hash(tmp_path):
    cfg = default_config(snr_db=12.5, kappa_sr=0.1)
    d = config_to_dict(cfg)
    assert config_from_dict(d) == cfg

    path = tmp_path / "cfg.json"
    import json

    path.write_text(json.dumps(d))
    assert load_config(path) == cfg

    h = config_hash(cfg)
    assert h == config_hash(config_from_dict(d))
    assert h != config_hash(replace(cfg, snr_db=13.0))
    assert h != config_hash(replace(cfg, kappa_ru=0.01))

    # a JSON 2.0 count is the int 2: the config and hash of the int file
    # (2.5 and booleans are refused: tests/test_cli.py)
    floats = config_from_dict({**d, "num_users": 3.0, "m_ru": 2.0, "tx_antennas": 2.0})
    ints = replace(cfg, m_ru=2, tx_antennas=2)
    assert floats == ints and config_hash(floats) == config_hash(ints)
    assert all(type(v) is int for v in (floats.num_users, floats.tx_antennas, *floats.m_ru))


def test_baseline_keys_are_optional_config_fields(tmp_path):
    import json

    cfg = default_config()
    assert (cfg.hd_thresholds, cfg.oma_threshold) == (None, None)
    d = config_to_dict(cfg)
    assert "hd_thresholds" not in d and "oma_threshold" not in d
    assert config_hash(cfg) == "7a52c5050c37b1bb"  # unset keys leave every hash as it was
    assert config_from_dict({**d, "hd_thresholds": None, "oma_threshold": None}) == cfg

    both = replace(cfg, hd_thresholds=[1, 2, 3], oma_threshold=4)
    assert (both.hd_thresholds, both.oma_threshold) == ((1.0, 2.0, 3.0), 4.0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(both)))
    assert load_config(path) == both
    assert len({config_hash(c) for c in (cfg, both, replace(both, oma_threshold=None))}) == 3

    with pytest.raises(ConfigError, match="kappa_sr must be a number"):
        config_from_dict({**d, "kappa_sr": None})  # null only for the optional keys
    with pytest.raises(ConfigError, match="hd_thresholds must be a list"):
        replace(cfg, hd_thresholds=1.5)
    with pytest.raises(ConfigError, match="oma_threshold must be a number"):
        replace(cfg, oma_threshold=[4.0])


def test_config_file_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text('{"num_users": 3}')
    with pytest.raises(ConfigError, match="missing"):
        load_config(p)
    import json

    d = config_to_dict(default_config())
    d["mystery"] = 1
    p.write_text(json.dumps(d))
    with pytest.raises(ConfigError, match="unknown"):
        load_config(p)
