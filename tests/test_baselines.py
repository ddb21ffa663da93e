from dataclasses import replace

import numpy as np
import pytest

from fdnoma import (
    BaselineConfig,
    ConfigError,
    default_config,
    derive_constants,
    estimate_all_users,
    fd_thresholds_rate_matched,
    hd_outage_all,
    hd_thresholds_rate_matched,
    oma_outage_all,
    oma_threshold_rate_sum,
)
from fdnoma import montecarlo
from fdnoma.baselines import hd_job, oma_job
from fdnoma.montecarlo import Job, _estimate, _kept_blocks


def test_threshold_mappings_roundtrip():
    fd = (0.9, 1.5, 2.0)
    hd = hd_thresholds_rate_matched(fd)
    assert hd == pytest.approx(((1.9) ** 2 - 1, (2.5) ** 2 - 1, 9.0 - 1))
    back = fd_thresholds_rate_matched(hd)
    assert back == pytest.approx(fd)


def test_oma_rate_sum_threshold():
    assert oma_threshold_rate_sum((0.9, 1.5, 2.0)) == pytest.approx(13.25)


def test_baseline_defaults_and_validation(ideal_cfg):
    # half duplex: the base thresholds and no loop interference
    job = hd_job(ideal_cfg)
    assert job.dc.cfg.thresholds == ideal_cfg.thresholds
    assert job.dc.power_li == 0.0
    # orthogonal access: the rate-sum threshold, 13.25 for (0.9, 1.5, 2)
    default, explicit = (
        oma_job(c)
        for c in (ideal_cfg, replace(ideal_cfg, oma_threshold=13.25))
    )
    # the user noise reads no per-user field: the base system's is the one-user system's
    solo = derive_constants(replace(ideal_cfg, num_users=1, power_coeffs=(1.0,), thresholds=(13.25,),
                                    m_ru=ideal_cfg.m_ru[:1], d_ru=ideal_cfg.d_ru[:1]))
    assert np.array_equal(default.dc.noise_ru, np.repeat(solo.noise_ru, ideal_cfg.num_users))
    a, b = _estimate([default, explicit], 50_000, 4, 1)
    assert [e.op_value for e in a] == [e.op_value for e in b]
    assert 0.0 < a[0].op_value < 1.0
    with pytest.raises(ConfigError):
        BaselineConfig(base=ideal_cfg, mode="tdma")
    with pytest.raises(ConfigError):
        replace(ideal_cfg, hd_thresholds=(1.0,))
    with pytest.raises(ConfigError):
        hd_outage_all(BaselineConfig(base=ideal_cfg, mode="fd_oma"), 10)
    with pytest.raises(ConfigError):
        oma_outage_all(BaselineConfig(base=ideal_cfg, mode="hd_noma"), 10)


def test_hd_equals_fd_when_loop_interference_vanishes():
    # with a negligible residual-interference scale the duplexing modes
    # see the same effective system
    cfg = default_config(li_scale_lambda=1e-30, li_quality_mu=0.0, snr_db=10.0)
    fd_est = estimate_all_users(cfg, trials=400_000, seed=21)
    b = BaselineConfig(base=cfg, mode="hd_noma")
    hd_est = hd_outage_all(b, trials=400_000, seed=22)
    for f, h in zip(fd_est, hd_est):
        sigma = np.hypot(f.std_error, h.std_error)
        assert abs(f.op_value - h.op_value) <= 3 * max(sigma, 1e-9)


def _record_draws(monkeypatch):
    """The (block, column) of each stream the engine makes: one per
    (block, column, shape) it draws."""
    made = []
    real = montecarlo.seeded_stream

    def recording(seed, block, column, shape):
        made.append((block, column))
        return real(seed, block, column, shape)

    monkeypatch.setattr(montecarlo, "seeded_stream", recording)
    return made


def test_hd_draws_loop_interference_only_next_to_a_full_duplex_job(monkeypatch):
    # an hd-only run skips the loop-interference column (1); next to an mc
    # job each block draws it, and the hd counts stay those of the hd-only run
    cfg = default_config(snr_db=12.0, kappa_sr=0.1, kappa_ru=0.05, sigma_e_sr_sq=0.01,
                         sigma_ipsic_sq=0.05, tx_antennas=2, rx_antennas=2)
    calls = _record_draws(monkeypatch)
    trials = montecarlo.BLOCK_TRIALS + 5000
    alone = hd_outage_all(BaselineConfig(base=cfg, mode="hd_noma"), trials, seed=13)
    assert sorted(calls) == [(b, c) for b in (0, 1) for c in (0, 2, 3, 4)]
    calls.clear()
    mc, mixed = _estimate(
        [Job(derive_constants(cfg), None, "mc"), hd_job(cfg)],
        trials, 13, 2,
    )
    assert sorted(calls) == [(b, c) for b in (0, 1) for c in range(5)]
    assert [e.op_value for e in mixed] == [e.op_value for e in alone]
    assert all(0.0 < e.op_value < 1.0 for e in alone)
    assert [e.op_value for e in mc] != [e.op_value for e in alone]


def test_hd_ignores_loop_interference_quality():
    base = default_config(snr_db=12.0)
    a = hd_outage_all(BaselineConfig(base=replace(base, li_quality_mu=0.1), mode="hd_noma"), 100_000, seed=5)
    b = hd_outage_all(BaselineConfig(base=replace(base, li_quality_mu=0.9), mode="hd_noma"), 100_000, seed=5)
    for x, y in zip(a, b):
        assert x.op_value == y.op_value


def test_hd_outage_no_floor_at_high_snr():
    # without loop interference the half-duplex curve keeps falling
    b = lambda s: BaselineConfig(
        base=default_config(li_quality_mu=1.0, snr_db=s), mode="hd_noma"
    )
    lo = hd_outage_all(b(10.0), trials=200_000, seed=6, users=(1,))[0].op_value
    hi = hd_outage_all(b(25.0), trials=200_000, seed=6, users=(1,))[0].op_value
    assert hi < lo / 20


def test_oma_independent_of_power_coefficients():
    cfg_a = default_config(snr_db=12.0)
    cfg_b = default_config(snr_db=12.0, power_coeffs=(0.6, 0.3, 0.1))
    ea = oma_outage_all(BaselineConfig(base=cfg_a, mode="fd_oma"), 100_000, seed=7)
    eb = oma_outage_all(BaselineConfig(base=cfg_b, mode="fd_oma"), 100_000, seed=7)
    for x, y in zip(ea, eb):
        assert x.op_value == y.op_value  # identical counts, same seed


def test_oma_vanishing_threshold_no_outage():
    cfg = default_config(li_quality_mu=0.2, snr_db=40.0)
    b = BaselineConfig(base=replace(cfg, oma_threshold=1e-6), mode="fd_oma")
    est = oma_outage_all(b, trials=100_000, seed=8, users=(1,))[0]
    assert est.op_value < 1e-4


def test_relay_placement_pattern():
    """Near the base station the shared-access users 2 and 3 beat
    orthogonal access; the weakest user prefers orthogonal access at
    every relay position."""
    base = default_config(
        snr_db=15.0, kappa_sr=0.1, kappa_ru=0.1, tx_antennas=2, rx_antennas=2
    )
    for d in (0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
        cfg = replace(base, d_sr=d, d_ru=1.0 - d)
        noma = {e.user: e.op_value for e in estimate_all_users(cfg, 150_000, seed=3)}
        oma = {
            e.user: e.op_value
            for e in oma_outage_all(BaselineConfig(base=cfg, mode="fd_oma"), 150_000, seed=3)
        }
        assert oma[1] < noma[1]
        if d <= 0.3:
            assert noma[2] < oma[2]
            assert noma[3] < oma[3]


def test_partition_invariance(ideal_cfg):
    b = BaselineConfig(base=ideal_cfg, mode="hd_noma")
    runs = [
        hd_outage_all(b, trials=600_000, seed=9, partitions=p, users=(2,))[0]
        for p in (1, 4, 16)
    ]
    assert len({r.op_value for r in runs}) == 1


RUNNERS = {
    "mc": lambda cfg, trials=10, **kw: estimate_all_users(cfg, trials, **kw),
    "hd": lambda cfg, trials=10, **kw: hd_outage_all(BaselineConfig(base=cfg, mode="hd_noma"), trials, **kw),
    "oma": lambda cfg, trials=10, **kw: oma_outage_all(BaselineConfig(base=cfg, mode="fd_oma"), trials, **kw),
}


@pytest.mark.parametrize(
    "bad",
    [{"partitions": 0}, {"partitions": 2.5}, {"users": ()}, {"users": (1.5,)}, {"trials": 2000.0}, {"seed": 1.9},
     {"trials": True}, {"seed": True}, {"partitions": True}, {"users": (True,)}],
    ids=["partitions0", "float_partitions", "no_users", "float_user", "float_trials", "float_seed",
         "bool_trials", "bool_seed", "bool_partitions", "bool_user"],
)
@pytest.mark.parametrize("method", sorted(RUNNERS))
def test_every_engine_rejects_bad_input(ideal_cfg, method, bad):
    # refused before anything is drawn or the unit-draw slot is taken;
    # a float or a bool is refused, not truncated nor read as 0 or 1
    with pytest.raises(ConfigError):
        RUNNERS[method](ideal_cfg, **bad)
    assert _kept_blocks.cache_info().currsize == 0
