from dataclasses import replace

import numpy as np
import pytest

from fdnoma import default_config, derive_constants, estimate, estimate_all_users, op_exact
from fdnoma.baselines import BaselineConfig, hd_job, oma_job
from fdnoma.montecarlo import BLOCK_TRIALS, Job, _estimate


def test_determinism_across_partition_counts(ideal_cfg):
    ests = [
        estimate_all_users(ideal_cfg, trials=600_000, seed=9, partitions=p)
        for p in (1, 4, 16)
    ]
    for other in ests[1:]:
        for a, b in zip(ests[0], other):
            assert a.op_value == b.op_value
            assert a.std_error == b.std_error


def test_repeated_run_identical(ideal_cfg):
    a = estimate(ideal_cfg, 2, trials=100_000, seed=3)
    b = estimate(ideal_cfg, 2, trials=100_000, seed=3)
    assert a.op_value == b.op_value


def test_single_user_matches_all_users_run(ideal_cfg):
    # same stream layout: identical realizations, not merely 3-sigma close
    alls = estimate_all_users(ideal_cfg, trials=200_000, seed=4)
    for u in (1, 2, 3):
        single = estimate(ideal_cfg, u, trials=200_000, seed=4)
        assert single.op_value == alls[u - 1].op_value


def test_trials_and_users_validation(ideal_cfg):
    with pytest.raises(ValueError):
        estimate_all_users(ideal_cfg, trials=0)
    with pytest.raises(ValueError):
        estimate_all_users(ideal_cfg, trials=10, users=())
    with pytest.raises(ValueError):
        estimate_all_users(ideal_cfg, trials=10, users=(4,))
    with pytest.raises(ValueError):
        estimate_all_users(ideal_cfg, trials=10, partitions=0)


def test_jobs_must_share_fading_shapes(ideal_cfg):
    # one stream of unit draws can serve only jobs with the same Gamma shapes
    a = Job(derive_constants(ideal_cfg), None, "mc")
    b = Job(derive_constants(replace(ideal_cfg, m_sr=2)), None, "mc")
    with pytest.raises(ValueError, match="fading shapes"):
        _estimate([a, b], 10, 0, 1)
    with pytest.raises(ValueError, match="fading shapes"):
        _estimate([], 10, 0, 1)


def test_infeasible_user_hits_one_exactly():
    cfg = default_config(thresholds=(1.2, 1.5, 2.0))
    est = estimate(cfg, 1, trials=50_000, seed=1)
    assert est.op_value == 1.0
    assert est.std_error == 0.0


def test_deep_noise_floor_outage():
    cfg = default_config(snr_db=-60.0)
    est = estimate(cfg, 1, trials=20_000, seed=2)
    assert est.op_value > 0.999


def test_std_error_consistency(ideal_cfg):
    est = estimate(ideal_cfg, 1, trials=123_456, seed=8)
    p = est.op_value
    assert est.std_error == pytest.approx(np.sqrt(p * (1 - p) / est.trials), abs=1e-12)


def test_per_user_channel_overrides():
    # heterogeneous second-hop statistics: simulation-only territory
    cfg = default_config(d_ru=(0.4, 0.5, 0.6), m_ru=(1, 2, 1), snr_db=10.0)
    a = estimate_all_users(cfg, trials=100_000, seed=13)
    b = estimate_all_users(cfg, trials=100_000, seed=13, partitions=4)
    for x, y in zip(a, b):
        assert 0.0 <= x.op_value <= 1.0
        assert x.op_value == y.op_value


def test_matches_exact_within_three_sigma(ideal_cfg):
    ex = {u: op_exact(ideal_cfg, u) for u in (1, 2, 3)}
    for e in estimate_all_users(ideal_cfg, trials=1_000_000, seed=42):
        assert abs(e.op_value - ex[e.user]) <= 3 * e.std_error



# Outage counts of one seeded block.  The first two were recorded before
# the mask became one peak-demand comparison, the last two (two users;
# unequal per-user distances and shapes, so the ordered gains are not
# identically distributed) before the row sort became a compare-exchange
# network.  They hold for the Philox and Gamma streams of numpy 2.4.6 /
# scipy 1.17.1, the versions the CI pins.
PINNED_COUNTS = [
    (default_config(tx_antennas=2, rx_antennas=2),
     {"mc": [10993, 7274, 6917], "hd": [2941, 718, 681], "oma": [4646, 4664, 4640]}),
    (default_config(tx_antennas=3, rx_antennas=2, m_sr=2, li_quality_mu=0.5, kappa_sr=0.1,
                    kappa_ru=0.1, sigma_e_sr_sq=0.02, sigma_e_ru_sq=0.02, sigma_ipsic_sq=0.02,
                    snr_db=15.0),
     {"mc": [41394, 38983, 30385], "hd": [13626, 926, 17], "oma": [6934, 7062, 7123]}),
    (default_config(num_users=2, tx_antennas=2, rx_antennas=2, power_coeffs=(0.7, 0.3),
                    thresholds=(0.9, 1.2), snr_db=10.0),
     {"mc": [1054, 2739], "hd": [307, 361], "oma": [2101, 2132]}),
    (default_config(tx_antennas=2, rx_antennas=2, m_ru=(1, 2, 1), d_ru=(0.4, 0.5, 0.7),
                    kappa_ru=0.05, sigma_e_ru_sq=0.01, snr_db=15.0),
     {"mc": [22542, 8185, 7536], "hd": [10958, 840, 758], "oma": [4495, 4404, 11748]}),
]


@pytest.mark.parametrize("cfg, counts", PINNED_COUNTS,
                         ids=["2x2-reference", "3x2-impaired", "2x2-two-users", "2x2-unequal-users"])
def test_pinned_outage_counts(cfg, counts):
    jobs = [Job(derive_constants(cfg), None, "mc"), hd_job(BaselineConfig(cfg, "hd_noma")),
            oma_job(BaselineConfig(cfg, "fd_oma"))]
    results = _estimate(jobs, BLOCK_TRIALS, 2026, 1)
    assert {job.method: [round(e.op_value * e.trials) for e in ests]
            for job, ests in zip(jobs, results)} == counts

@pytest.mark.slow
def test_coverage_calibration(ideal_cfg):
    # over repeated runs the 2-sigma interval should cover the exact
    # value like a binomial confidence interval does
    ex = op_exact(ideal_cfg, 2)
    hits = 0
    for seed in range(100):
        e = estimate(ideal_cfg, 2, trials=100_000, seed=seed)
        if abs(e.op_value - ex) <= 2 * e.std_error:
            hits += 1
    assert hits >= 90
