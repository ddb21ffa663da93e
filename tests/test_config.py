import math
from dataclasses import replace

import numpy as np
import pytest

from fdnoma import (
    ConfigError,
    config_hash,
    default_config,
    derive_constants,
    threshold_from_rate,
)
from fdnoma.config import config_from_dict, config_to_dict, load_config


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
