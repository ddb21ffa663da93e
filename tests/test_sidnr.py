from dataclasses import replace

import numpy as np
import pytest

from fdnoma import default_config, derive_constants
from fdnoma.channel import draw_batch, seeded_stream
from fdnoma.sidnr import _stage_ratios, outage_mask


def ratio(g1, g2, g3, dc, user, stage):
    stages = _stage_ratios(np.asarray(g1, float), np.asarray(g2, float), g3, dc, user)
    num, den = list(stages)[stage - 1]
    return num / den


def region_mask(g1, g2, g3, dc, user):
    """Outage test in gain space: the complement of

        g2 > noise_ru * rhi_amp * demand_peak   and
        g1 > (g2*snr + noise_ru)(g3*snr*sr_derate + noise_sr) * rhi_amp
             * demand_peak / (snr * (g2 - noise_ru*rhi_amp*demand_peak))

    Algebraically identical to thresholding every stage ratio, and kept
    independent of ``_stage_ratios`` as a reference for ``outage_mask``.
    An infeasible user has ``demand_peak = inf``, so the first clause
    marks every draw.
    """
    t2 = dc.noise_ru[user - 1]
    dmax = dc.demand_peak[user - 1]
    edge = t2 * dc.rhi_amp * dmax
    g = dc.snr_lin
    g2u = g2[:, user - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        need = (
            (g2u * g + t2)
            * (g3 * g * dc.sr_derate + dc.noise_sr)
            * dc.rhi_amp
            * dmax
            / (g * (g2u - edge))
        )
    return (g2u <= edge) | (g1 <= need)


def single_user_cfg(**kw):
    return default_config(num_users=1, power_coeffs=(1.0,), thresholds=(0.9,), **kw)


def test_hand_value_single_user():
    # ideal single user, unit gains, no loop interference, snr 10:
    # num = 1*1*100, den = 10 + (10+1)*(0+1) = 21
    cfg = single_user_cfg(snr_db=10.0)
    dc = derive_constants(cfg)
    v = ratio([1.0], [1.0], 0.0, dc, 1, 1)
    assert v[0] == pytest.approx(100.0 / 21.0, rel=1e-12)


def test_zero_power_coefficient_limit():
    # the desired-signal share drives the numerator: tiny share, tiny ratio
    cfg = default_config(power_coeffs=(1 - 2e-9, 1.5e-9, 0.5e-9))
    dc = derive_constants(cfg)
    assert ratio([1.0], [1.0], 0.0, dc, 3, 3)[0] < 1e-8


def test_interference_limited_ratio():
    cfg = default_config(snr_db=80.0)  # snr -> inf with fixed gains
    dc = derive_constants(cfg)
    for j in (1, 2):
        cap = cfg.power_coeffs[j - 1] / dc.iui[j - 1]
        assert ratio([1.0], [1.0], 0.0, dc, 3, j)[0] == pytest.approx(cap, rel=1e-6)


def test_monotonicity_in_gains(rng):
    cfg = default_config(kappa_sr=0.1, kappa_ru=0.1, sigma_ipsic_sq=0.01, snr_db=12.0)
    dc = derive_constants(cfg)
    g1, g2, g3 = rng.uniform(0.01, 5.0, (3, 200))
    base = ratio(g1, g2, g3, dc, 3, 2)
    assert np.all(ratio(g1 * 1.5, g2, g3, dc, 3, 2) >= base - 1e-15)
    assert np.all(ratio(g1, g2 * 1.5, g3, dc, 3, 2) >= base - 1e-15)
    assert np.all(ratio(g1, g2, g3 * 1.5, dc, 3, 2) <= base + 1e-15)


def test_scale_invariance_of_power_split(rng):
    """Jointly rescaling the power share, interference shares, distortion
    mix and distortion amplification leaves the ratio unchanged.  The
    numerator is linear in the power share, so with the denominator
    constants scaled by c (and the share left alone) the ratio must drop
    by exactly 1/c.
    """
    cfg = default_config(kappa_sr=0.12, kappa_ru=0.08, sigma_ipsic_sq=0.02, snr_db=9.0)
    dc = derive_constants(cfg)
    for _ in range(50):
        g1, g2, g3 = rng.uniform(0.05, 4.0, (3, 1))
        c = float(rng.uniform(0.5, 2.0))
        base = ratio(g1, g2, g3, dc, 2, 1)
        scaled = replace(
            dc,
            iui=dc.iui * c,
            ipsic=dc.ipsic * c,
            rhi_mix=dc.rhi_mix * c,
            rhi_amp=dc.rhi_amp * c,
        )
        assert ratio(g1, g2, g3, scaled, 2, 1)[0] * c == pytest.approx(base[0], rel=1e-12)


def test_infeasible_always_outage():
    cfg = default_config(thresholds=(1.2, 1.5, 2.0))
    dc = derive_constants(cfg)
    rng_ = np.random.default_rng(5)
    g1 = rng_.uniform(0.01, 50.0, 200)
    g2 = np.sort(rng_.uniform(0.01, 50.0, (200, 3)), axis=1)
    g3 = rng_.uniform(0, 2, 200)
    assert outage_mask(g1, g2, g3, dc, 1).all()


def test_huge_gains_no_outage():
    cfg = default_config(li_quality_mu=0.2, snr_db=10.0)
    dc = derive_constants(cfg)
    for u in (1, 2, 3):
        assert not outage_mask(np.array([1e12]), np.full((1, 3), 1e12), np.array([0.0]), dc, u).any()


def test_threshold_and_region_forms_agree(ideal_cfg):
    configs = [
        ideal_cfg,
        default_config(kappa_sr=0.14, kappa_ru=0.14, snr_db=8.0),
        default_config(sigma_e_sr_sq=0.03, sigma_e_ru_sq=0.03, snr_db=20.0),
        default_config(sigma_ipsic_sq=0.05, li_quality_mu=0.7, snr_db=12.0),
        default_config(thresholds=(1.2, 1.5, 2.0)),  # infeasible
    ]
    for cfg in configs:
        dc = derive_constants(cfg)
        g1, g2, g3 = draw_batch(dc, seeded_stream(11, 0), 100_000)
        for u in (1, 2, 3):
            assert np.array_equal(outage_mask(g1, g2, g3, dc, u), region_mask(g1, g2, g3, dc, u))


def test_region_form_matches_on_full_batch(ideal_cfg):
    # exact vectorized equivalence of both event formulations
    dc = derive_constants(default_config(kappa_sr=0.1, kappa_ru=0.1, snr_db=14.0))
    g1, g2, g3 = draw_batch(dc, seeded_stream(12, 0), 100_000)
    for u in (1, 2, 3):
        assert np.array_equal(outage_mask(g1, g2, g3, dc, u), region_mask(g1, g2, g3, dc, u))


def test_user_bounds_validated(ideal_cfg):
    dc = derive_constants(ideal_cfg)
    g1, g2, g3 = np.ones(1), np.ones((1, 3)), np.zeros(1)
    for user in (0, 4):
        with pytest.raises(ValueError):
            outage_mask(g1, g2, g3, dc, user)
