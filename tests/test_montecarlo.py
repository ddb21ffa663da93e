import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from fdnoma import default_config, derive_constants, estimate, estimate_all_users, montecarlo, op_exact
from fdnoma.baselines import hd_job, oma_job
from fdnoma.channel import unit_columns
from fdnoma.config import gamma_laws
from fdnoma.montecarlo import BLOCK_TRIALS, CACHED_BLOCKS, Job, _estimate, _kept_blocks


def _key(cfg, seed, trials):
    """The slot key of an ``estimate_all_users(cfg, trials, seed)`` call."""
    shapes, scales = gamma_laws(derive_constants(cfg))
    return tuple(sorted(unit_columns(shapes, scales[2] > 0))), seed, trials


def _held(key):
    """Sorted indices of the blocks the slot keeps, which must be under
    ``key``: the call on it is then a hit and replaces nothing.  Calls
    from other threads on the held key are hits too, so a miss is ours."""
    misses = _kept_blocks.cache_info().misses
    blocks = sorted(_kept_blocks(*key))
    assert _kept_blocks.cache_info().misses == misses, "the slot held another key"
    return blocks


# Each determinism test makes its calls cold (the slot emptied, so the
# blocks are drawn from the stream) and, where the call keeps its draws,
# warm (read from the slot), and requires the same values.

def test_determinism_across_partition_counts(ideal_cfg):
    # 600,000 trials is three blocks, more than a call keeps; 500,000 is two
    for trials, kept in ((600_000, False), (500_000, True)):
        runs = []
        for p in (1, 4, 16):
            _kept_blocks.cache_clear()
            runs.append(estimate_all_users(ideal_cfg, trials=trials, seed=9, partitions=p))
            assert bool(_held(_key(ideal_cfg, 9, trials))) == kept
            runs.append(estimate_all_users(ideal_cfg, trials=trials, seed=9, partitions=p))
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert a.op_value == b.op_value
                assert a.std_error == b.std_error


def test_repeated_run_identical(ideal_cfg):
    a = estimate(ideal_cfg, 2, trials=100_000, seed=3)
    _kept_blocks.cache_clear()
    b = estimate(ideal_cfg, 2, trials=100_000, seed=3)
    assert _held(_key(ideal_cfg, 3, 100_000))
    c = estimate(ideal_cfg, 2, trials=100_000, seed=3)
    assert a.op_value == b.op_value == c.op_value


def test_single_user_matches_all_users_run(ideal_cfg):
    # same stream layout: identical realizations, not merely 3-sigma close
    alls = estimate_all_users(ideal_cfg, trials=200_000, seed=4)
    for u in (1, 2, 3):
        _kept_blocks.cache_clear()
        single = estimate(ideal_cfg, u, trials=200_000, seed=4)
        assert _held(_key(ideal_cfg, 4, 200_000))
        warm = estimate(ideal_cfg, u, trials=200_000, seed=4)
        assert single.op_value == warm.op_value == alls[u - 1].op_value


def _counts(jobs, trials, seed, partitions=2):
    return [[e.op_value for e in ests] for ests in _estimate(jobs, trials, seed, partitions)]


def test_interleaved_streams_match_cold_runs(ideal_cfg):
    # B, C, D and E each differ from A in one part of the cache key (seed,
    # loop-interference draw, fading shapes, trials): none may read A's
    # blocks, nor A theirs.  C before A catches a key without include_li,
    # as A's kernel would find no loop-interference draws.
    cfg = replace(ideal_cfg, tx_antennas=2)
    mc = Job(derive_constants(cfg), None, "mc")
    trials = BLOCK_TRIALS + 20_000
    runs = {
        "A": ([mc], trials, 5),
        "B": ([mc], trials, 6),
        "C": ([hd_job(cfg)], trials, 5),
        "D": ([Job(derive_constants(replace(cfg, m_sr=2)), None, "mc")], trials, 5),
        "E": ([mc], trials + 1, 5),
    }
    cold = {}
    for name, run in runs.items():
        _kept_blocks.cache_clear()
        cold[name] = _counts(*run)
    assert len({str(c) for c in cold.values()}) == len(runs)
    for name in "CABACADAEA":
        assert _counts(*runs[name]) == cold[name], name


def test_trial_sweep_keeps_one_call():
    # a same-seed sweep over trial counts keeps only the latest call's blocks
    cfg = default_config(num_users=2, power_coeffs=(0.7, 0.3), thresholds=(0.9, 1.5))
    assert CACHED_BLOCKS == 2
    for trials in (1000, 5000, BLOCK_TRIALS, BLOCK_TRIALS + 1000, 2 * BLOCK_TRIALS, 7000):
        warm = estimate_all_users(cfg, trials, seed=11, partitions=2)
        assert _held(_key(cfg, 11, trials)) == list(range(-(-trials // BLOCK_TRIALS)))
        _kept_blocks.cache_clear()
        assert estimate_all_users(cfg, trials, seed=11, partitions=2) == warm


def _record_block_draws(monkeypatch, key):
    """``{block: held}``, filled as each block's first-hop stream is made
    (the first of its streams): the sorted blocks that the slot then
    holds under ``key[0]``, the key of the call in flight."""
    seen = {}
    real = montecarlo.seeded_stream

    def recording(seed, block, column, shape):
        if column == 0:
            seen[block] = _held(key[0])
        return real(seed, block, column, shape)

    monkeypatch.setattr(montecarlo, "seeded_stream", recording)
    return seen


def test_call_of_more_blocks_keeps_none(ideal_cfg, monkeypatch):
    # a call of more than CACHED_BLOCKS blocks drops what an earlier call
    # kept before its first draw, draws every block, and keeps none
    trials = (CACHED_BLOCKS + 1) * BLOCK_TRIALS
    cold = estimate_all_users(ideal_cfg, trials, seed=1, partitions=2)
    estimate_all_users(ideal_cfg, 2 * BLOCK_TRIALS, seed=1, partitions=2)
    assert _held(_key(ideal_cfg, 1, 2 * BLOCK_TRIALS)) == [0, 1]
    seen = _record_block_draws(monkeypatch, [_key(ideal_cfg, 1, trials)])
    assert estimate_all_users(ideal_cfg, trials, seed=1, partitions=2) == cold
    assert sorted(seen) == list(range(CACHED_BLOCKS + 1))
    assert list(seen.values()) == [[]] * (CACHED_BLOCKS + 1)
    assert _held(_key(ideal_cfg, 1, trials)) == []


def test_new_stream_dropped_before_drawing(ideal_cfg, monkeypatch):
    # when a block is drawn, the slot holds its key alone, and none of
    # the old key's blocks
    trials = BLOCK_TRIALS + 1000
    key = [_key(ideal_cfg, 1, trials)]  # the key of the call in flight
    seen = _record_block_draws(monkeypatch, key)
    estimate_all_users(ideal_cfg, trials, seed=1, partitions=1)
    assert len(seen) == 2
    assert _held(key[0]) == [0, 1]
    seen.clear()
    estimate_all_users(ideal_cfg, trials, seed=1, partitions=1)
    assert seen == {}  # both blocks read from the slot
    key[0] = _key(ideal_cfg, 2, trials)
    estimate_all_users(ideal_cfg, trials, seed=2, partitions=1)
    assert _held(key[0]) == [0, 1]
    assert seen == {0: [], 1: [0]}


# first-hop and user shapes: 1 and 1; 4 and 2, both drawn as products of
# uniforms; 6, drawn by standard_gamma, and 2
@pytest.mark.parametrize("overrides", [dict(li_quality_mu=0.2), dict(tx_antennas=2, rx_antennas=2, m_sr=2),
                                       dict(tx_antennas=3, rx_antennas=2, m_sr=2)],
                         ids=["ideal", "2x2-m_sr2", "3x2-m_sr2"])
def test_kept_and_chunked_draws_give_the_same_counts(overrides, monkeypatch):
    # a call that keeps its blocks draws each column whole, a larger call
    # PIECE_ROWS rows at a time; the counts must not tell them apart
    cfg = default_config(**overrides)
    trials = (CACHED_BLOCKS + 1) * BLOCK_TRIALS - 7
    chunked = estimate_all_users(cfg, trials, seed=6, partitions=2)
    assert _held(_key(cfg, 6, trials)) == []
    monkeypatch.setattr(montecarlo, "CACHED_BLOCKS", CACHED_BLOCKS + 1)
    whole = estimate_all_users(cfg, trials, seed=6, partitions=2)
    assert _held(_key(cfg, 6, trials)) == list(range(CACHED_BLOCKS + 1))
    assert whole == chunked


def test_concurrent_streams_match_sequential_runs(ideal_cfg):
    # more threads than cores, each on its own seed, with a short switch
    # interval: every result must equal its sequential run
    trials, seeds = BLOCK_TRIALS + 20_000, range(1, 7)
    sequential = {}
    for seed in seeds:
        _kept_blocks.cache_clear()
        sequential[seed] = [e.op_value for e in estimate_all_users(ideal_cfg, trials, seed, 2)]
    results, errors = {}, []

    def run(seed):
        try:
            results[seed] = [e.op_value for e in estimate_all_users(ideal_cfg, trials, seed, 2)]
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == sequential
    assert _kept_blocks.cache_info().currsize == 1


def test_trials_and_users_validation(ideal_cfg):
    with pytest.raises(ValueError):
        estimate_all_users(ideal_cfg, trials=0)
    with pytest.raises(ValueError):
        estimate_all_users(ideal_cfg, trials=10, users=())
    with pytest.raises(ValueError):
        estimate_all_users(ideal_cfg, trials=10, users=(4,))
    with pytest.raises(ValueError):
        estimate_all_users(ideal_cfg, trials=10, partitions=0)


def test_jobs_must_not_be_empty():
    # jobs of different fading shapes share a call, but a call needs a job
    with pytest.raises(ValueError, match="jobs must not be empty"):
        _estimate([], 10, 0, 1)


# (users, tx antennas, rx antennas, m_sr, m_ru, m_li) of the six strata of
# the benchmark's cross-check workload
CROSS_STRATA = [(2, 1, 1, 1, 1, 1), (3, 2, 2, 2, 1, 2), (2, 3, 3, 1, 2, 1),
                (3, 1, 2, 2, 2, 2), (2, 2, 3, 2, 1, 1), (3, 3, 2, 2, 1, 1)]


def _stratum(num_users, tx, rx, m_sr, m_ru, m_li, **overrides):
    users = {2: ((0.7, 0.3), (0.9, 1.5)), 3: ((1 / 2, 1 / 3, 1 / 6), (0.9, 1.5, 2.0))}
    coeffs, thresholds = users[num_users]
    return default_config(num_users=num_users, power_coeffs=coeffs, thresholds=thresholds,
                          tx_antennas=tx, rx_antennas=rx, m_sr=m_sr, m_ru=m_ru, m_li=m_li,
                          **overrides)


def test_jobs_of_mixed_shapes_match_their_own_calls():
    # jobs of different fading shapes share one call; each reads only its
    # own (column, shape) draws, so each estimate equals its own call
    cfgs = [_stratum(*s, li_quality_mu=0.2, snr_db=12.0) for s in CROSS_STRATA]
    jobs = [Job(derive_constants(c), None, "mc") for c in cfgs] + [hd_job(cfgs[1]), oma_job(cfgs[2])]
    assert len({gamma_laws(job.dc)[0] for job in jobs}) == len(CROSS_STRATA)
    trials = BLOCK_TRIALS + 30_000
    together = _estimate(jobs, trials, 17, 2)
    assert any(0.0 < e.op_value < 1.0 for ests in together for e in ests)
    for job, ests in zip(jobs, together):
        assert _estimate([job], trials, 17, 2) == [ests]


def test_user_columns_do_not_depend_on_the_number_of_users(monkeypatch):
    # users 1 and 2 draw from the same (block, column, shape) streams in
    # 2-user and 3-user configs of equal shapes: a call of both makes
    # exactly the streams of the 3-user job alone
    three = _stratum(3, 2, 2, 1, 1, 1)
    two = _stratum(2, 2, 2, 1, 1, 1)
    jobs = [Job(derive_constants(c), None, "mc") for c in (three, two)]
    made = []
    real = montecarlo.seeded_stream
    monkeypatch.setattr(montecarlo, "seeded_stream", lambda *key: made.append(key) or real(*key))
    _estimate(jobs, BLOCK_TRIALS + 1, 3, 1)
    both = sorted(made)
    made.clear()
    _kept_blocks.cache_clear()  # the 3-user call alone has the same slot key
    _estimate(jobs[:1], BLOCK_TRIALS + 1, 3, 1)
    assert both == sorted(made) and len(both) == 2 * 5


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



# Outage counts of one seeded block.  The first two configs were pinned
# before the mask became one peak-demand comparison, the last two (two
# users; unequal per-user distances and shapes, so the ordered gains are
# not identically distributed) before the row sort became a
# compare-exchange network.  The counts were recorded when shapes up to 4
# were first drawn as -log of a product of uniforms, on SFC64 streams keyed
# by (seed, block, column, shape); they hold for the SFC64 and Gamma
# samplers of numpy 2.4.6 / scipy 1.17.1, the versions the CI pins.
PINNED_COUNTS = [
    (default_config(tx_antennas=2, rx_antennas=2),
     {"mc": [11043, 7259, 6929], "hd": [2927, 678, 644], "oma": [4689, 4728, 4707]}),
    (default_config(tx_antennas=3, rx_antennas=2, m_sr=2, li_quality_mu=0.5, kappa_sr=0.1,
                    kappa_ru=0.1, sigma_e_sr_sq=0.02, sigma_e_ru_sq=0.02, sigma_ipsic_sq=0.02,
                    snr_db=15.0),
     {"mc": [41539, 38998, 30464], "hd": [13561, 927, 23], "oma": [7096, 7223, 7110]}),
    (default_config(num_users=2, tx_antennas=2, rx_antennas=2, power_coeffs=(0.7, 0.3),
                    thresholds=(0.9, 1.2), snr_db=10.0),
     {"mc": [991, 2684], "hd": [265, 324], "oma": [2027, 2061]}),
    (default_config(tx_antennas=2, rx_antennas=2, m_ru=(1, 2, 1), d_ru=(0.4, 0.5, 0.7),
                    kappa_ru=0.05, sigma_e_ru_sq=0.01, snr_db=15.0),
     {"mc": [22614, 8205, 7570], "hd": [10687, 794, 703], "oma": [4617, 4479, 11657]}),
]


@pytest.mark.parametrize("cfg, counts", PINNED_COUNTS,
                         ids=["2x2-reference", "3x2-impaired", "2x2-two-users", "2x2-unequal-users"])
def test_pinned_outage_counts(cfg, counts):
    jobs = [Job(derive_constants(cfg), None, "mc"), hd_job(cfg), oma_job(cfg)]
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
