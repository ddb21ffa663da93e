from dataclasses import replace

import numpy as np
import pytest

from fdnoma import ConfigError, default_config, derive_constants
from fdnoma.channel import draw_batch, seeded_stream
from fdnoma.sidnr import outage_mask


def stage_ratios(g1, g2, g3, dc, user):
    """``(num, den)`` of decode stages 1..user, the paper's per-stage SIDNR
    term by term (the formula of the ``fdnoma.sidnr`` docstring): the
    reference that pins ``outage_mask``'s one peak-demand comparison."""
    g = dc.snr_lin
    t2 = dc.noise_ru[user - 1]
    x = g1 * g2 * g * g
    a = g1 * g * t2 * dc.rhi_amp
    b = (g2 * g + t2) * (g3 * g * dc.sr_derate + dc.noise_sr) * dc.rhi_amp
    for j in range(user):
        yield x * dc.cfg.power_coeffs[j], x * (dc.iui[j] + dc.ipsic[j] + dc.rhi_mix) + a + b


def ratio(g1, g2, g3, dc, user, stage):
    stages = stage_ratios(np.asarray(g1, float), np.asarray(g2, float), g3, dc, user)
    num, den = list(stages)[stage - 1]
    return num / den


def stage_mask(g1, g2, g3, dc, user):
    """Outage as the union of the per-stage threshold tests, ties counting
    as outage; an infeasible stage (margin <= 0) fails every draw."""
    out = np.zeros(g1.shape, dtype=bool)
    for thr, (num, den) in zip(dc.cfg.thresholds, stage_ratios(g1, g2[:, user - 1], g3, dc, user)):
        out |= num <= thr * den
    return out


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
            assert np.array_equal(outage_mask(g1, g2, g3, dc, u), stage_mask(g1, g2, g3, dc, u))


def test_region_form_matches_on_full_batch(ideal_cfg):
    # the one peak-demand comparison decides every draw as the stages do
    dc = derive_constants(default_config(kappa_sr=0.1, kappa_ru=0.1, snr_db=14.0))
    g1, g2, g3 = draw_batch(dc, seeded_stream(12, 0), 100_000)
    for u in (1, 2, 3):
        assert np.array_equal(outage_mask(g1, g2, g3, dc, u), stage_mask(g1, g2, g3, dc, u))


@pytest.mark.parametrize("kind", ["feasible", "impaired", "half-duplex"])
@pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12])
def test_forms_agree_at_the_boundary(kind, delta):
    """Draws a relative ``delta`` either side of the outage boundary, where
    the one comparison and the stages could round apart (random draws
    almost never come this close): just below the first-hop gain the
    user needs, just above it, and just below the floor ``c`` of the
    ordered gain with a first-hop gain far above any need.  The boundary
    in ``g1`` has condition number ``g2 / (g2 - c)``, so the ordered gains
    start 1% above the floor: at 0.1% a 1e-12 step is within the two
    forms' rounding and they do differ there."""
    cfg = default_config(snr_db=15.0)
    if kind == "impaired":
        cfg = default_config(kappa_sr=0.1, kappa_ru=0.08, sigma_e_sr_sq=0.02, sigma_e_ru_sq=0.02,
                             sigma_ipsic_sq=0.03, li_quality_mu=0.5, snr_db=12.0)
    dc = derive_constants(cfg)
    g3 = np.repeat([0.01, 0.3, 1.0, 4.0], 5)
    if kind == "half-duplex":
        dc, g3 = replace(dc, power_li=0.0), 0.0
    g = dc.snr_lin
    for u in (1, 2, 3):
        assert dc.feasible[u - 1]
        t2, dmax = dc.noise_ru[u - 1], dc.demand_peak[u - 1]
        c = t2 * dc.rhi_amp * dmax
        g2u = c * np.tile([1.01, 1.3, 3.0, 20.0, 1e3], 4)
        need = (g2u * g + t2) * (g3 * g * dc.sr_derate + dc.noise_sr) * dc.rhi_amp * dmax / (g * (g2u - c))
        cases = [
            (need * (1 - delta), g2u, True),
            (need * (1 + delta), g2u, False),
            (need * 1e6, np.full_like(g2u, c * (1 - delta)), True),
        ]
        for g1, g2_col, outage in cases:
            g2 = np.repeat(g2_col[:, None], 3, axis=1)
            mask = outage_mask(g1, g2, g3, dc, u)
            assert np.array_equal(mask, stage_mask(g1, g2, g3, dc, u))
            assert (mask == outage).all()


def test_exact_tie_is_outage():
    # one user at snr 1, threshold 1, no impairments: every constant is 1,
    # so the tie g1 * (g2 - 1) == (g2 + 1) * (g3 + 1) is exact in both forms
    dc = derive_constants(default_config(num_users=1, power_coeffs=(1.0,), thresholds=(1.0,), snr_db=0.0))
    g1, g2, g3 = np.array([2.0, 1.5, 4.0]), np.array([[3.0], [5.0], [3.0]]), np.array([0.0, 0.0, 1.0])
    assert outage_mask(g1, g2, g3, dc, 1).all()
    assert stage_mask(g1, g2, g3, dc, 1).all()
    assert not outage_mask(np.nextafter(g1, np.inf), g2, g3, dc, 1).any()


def test_user_bounds_validated(ideal_cfg):
    dc = derive_constants(ideal_cfg)
    g1, g2, g3 = np.ones(1), np.ones((1, 3)), np.zeros(1)
    for user in (0, 4, True, 1.5):
        with pytest.raises(ConfigError):
            outage_mask(g1, g2, g3, dc, user)
