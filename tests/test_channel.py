import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from fdnoma import ConfigError, default_config, derive_constants, draw_batch, ordered_sf, seeded_stream
from fdnoma.channel import draw_units, scale_users, unit_columns
from fdnoma.config import gamma_laws


def test_same_key_reproduces_identical_draws(ideal_cfg):
    dc = derive_constants(ideal_cfg)
    a = draw_batch(dc, seeded_stream(1, 0), 1000)
    b = draw_batch(dc, seeded_stream(1, 0), 1000)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


def test_zero_loop_interference_skips_its_block(ideal_cfg):
    # constants without loop-interference power (half duplex) draw the same
    # first-hop and user columns and no loop-interference column: g3 is
    # the scalar 0.0 and one generator is left where that column would begin
    dc = derive_constants(ideal_cfg)
    shapes, (_, _, s3) = gamma_laws(dc)
    assert unit_columns(shapes, False) == unit_columns(shapes, True)[:-1]
    full_rng, hd_rng = seeded_stream(1, 0), seeded_stream(1, 0)
    full = draw_batch(dc, full_rng, 1000)
    hd = draw_batch(replace(dc, power_li=0.0), hd_rng, 1000)
    assert hd[0].tobytes() == full[0].tobytes() and hd[1].tobytes() == full[1].tobytes()
    assert hd[2] == 0.0 and isinstance(hd[2], float)
    assert (s3 * hd_rng.standard_gamma(ideal_cfg.m_li, 1000)).tobytes() == full[2].tobytes()


def test_different_seed_or_substream_differs(ideal_cfg):
    dc = derive_constants(ideal_cfg)
    base = draw_batch(dc, seeded_stream(1, 0), 10)[0]
    assert not np.array_equal(base, draw_batch(dc, seeded_stream(2, 0), 10)[0])
    assert not np.array_equal(base, draw_batch(dc, seeded_stream(1, 1), 10)[0])
    # the engine's keys: a different seed, block, column or shape differs
    key = (1, 0, 2, 1)
    unit = seeded_stream(*key).standard_gamma(1, 10)
    for i in range(len(key)):
        other = list(key)
        other[i] += 1
        assert not np.array_equal(unit, seeded_stream(*other).standard_gamma(1, 10))


@pytest.mark.parametrize("shape", [1, 2, 3, 4, 6, 2.5])
def test_gamma_is_scaled_standard_gamma(shape):
    # draw_batch scales unit draws instead of calling rng.gamma, and one
    # unit draw serves every configuration of a sweep; both rely on this
    # identity of numpy's Gamma sampler, bit for bit, stream included
    for scale in (0.37, 1 / 3, 2.0e-3, 5.5):
        a, b = seeded_stream(9, 1), seeded_stream(9, 1)
        x = a.gamma(shape, scale, 20_000)
        y = scale * b.standard_gamma(shape, 20_000)
        assert x.tobytes() == y.tobytes()
        assert a.gamma(shape, scale, 100).tobytes() == (scale * b.standard_gamma(shape, 100)).tobytes()
        assert a.random(100).tobytes() == b.random(100).tobytes()


def test_seed_bounds():
    with pytest.raises(ValueError):
        seeded_stream(-1)
    with pytest.raises(ValueError):
        seeded_stream(0, 2 ** 64)
    with pytest.raises(ValueError, match="integer"):
        seeded_stream(1.5)
    with pytest.raises(ValueError, match="integer"):
        seeded_stream(1, 0.5)
    with pytest.raises(ValueError):
        seeded_stream(1, 0, 2 ** 64, 1)
    with pytest.raises(ValueError, match="integer"):
        seeded_stream(1, 0, 2, 1.0)
    with pytest.raises(ConfigError, match="integer"):
        seeded_stream(True)
    with pytest.raises(ConfigError, match="integer"):
        seeded_stream(1, True)


def test_substreams_uncorrelated(ideal_cfg):
    dc = derive_constants(ideal_cfg)
    a = draw_batch(dc, seeded_stream(1, 0), 10_000)[0]
    b = draw_batch(dc, seeded_stream(1, 1), 10_000)[0]
    rho = stats.spearmanr(a, b).statistic
    assert abs(rho) < 0.05


def test_first_hop_mean():
    # unit-power single-antenna link: mean gain 1
    cfg = default_config(d_sr=1.0, d_ru=1.0)
    dc = derive_constants(cfg)
    g1 = draw_batch(dc, seeded_stream(3, 0), 1_000_000)[0]
    assert g1.mean() == pytest.approx(1.0, abs=0.005)


def test_li_mean_snr_free_at_mu_one():
    for snr in (0.0, 20.0):
        cfg = default_config(li_quality_mu=1.0, li_scale_lambda=1.0, snr_db=snr)
        dc = derive_constants(cfg)
        g3 = draw_batch(dc, seeded_stream(4, 0), 1_000_000)[2]
        assert g3.mean() == pytest.approx(1.0, abs=0.005)


def test_sorted_and_single_draw(ideal_cfg):
    dc = derive_constants(ideal_cfg)
    for size in (500, 1):
        g1, g2, g3 = draw_batch(dc, seeded_stream(5, 0), size)
        assert g1.shape == g3.shape == (size,) and g2.shape == (size, 3)
        assert np.all(np.diff(g2, axis=1) >= 0)
        for g in (g1, g2, g3):
            assert np.all(np.isfinite(g)) and np.all(g >= 0)


def test_network_sorts_every_zero_one_row():
    # 0-1 principle: a compare-exchange network that sorts every 0/1 input
    # sorts every input; all 2**L rows go through one call
    for num_users in range(1, 13):
        rows = np.array(list(itertools.product((0.0, 1.0), repeat=num_users)))
        ordered = scale_users(rows.T, np.ones(num_users))
        assert np.array_equal(ordered, np.sort(rows, axis=1))


@pytest.mark.parametrize("order", ["C", "F"])
def test_network_equals_row_sort_with_ties(order):
    # integer-valued gains tie often; the network must still match a row
    # sort bit for bit, whatever the input layout
    rng = np.random.default_rng(17)
    for num_users in range(1, 21):
        units = np.asarray(rng.integers(0, 4, (2_000, num_users)), dtype=float, order=order)
        scales = rng.integers(1, 3, num_users).astype(float)
        ordered = scale_users(units.T, scales)
        assert np.array_equal(ordered, np.sort(units * scales, axis=1))


def test_unsorted_or_single_user_gains_are_only_scaled():
    rng = seeded_stream(8, 0)
    units = list(draw_units(((2, 2), (3, 1), (4, 3)), lambda c, k: rng, 1_000).values())
    scales = (0.5, 2.0, 1 / 3)
    gains = scale_users(units, scales, sort=False)
    assert gains.flags.f_contiguous
    assert np.array_equal(gains, np.column_stack(units) * np.array(scales))
    assert np.array_equal(scale_users(units[:1], (0.7,)), units[0][:, None] * 0.7)


@pytest.mark.parametrize("include_li", [True, False])
def test_user_columns_follow_the_stream_contract(include_li):
    # column 0 is the first hop, 1 loop interference and 2 + i user i, for
    # any number of users; draw_units draws each (column, shape) from its
    # stream, in the order given, and draw_batch's one generator draws them
    # in the contract order, ending where sequential calls leave it
    shapes = (2, (4, 1, 6, 2), 3)
    columns = unit_columns(shapes, include_li)
    assert columns == ((0, 2), (2, 4), (3, 1), (4, 6), (5, 2)) + (((1, 3),) if include_li else ())
    assert unit_columns((2, (4, 1), 3), include_li)[:3] == columns[:3]
    units = draw_units(columns, lambda c, k: seeded_stream(5, 3, c, k), 3_001)
    assert list(units) == list(columns)
    for (c, k), unit in units.items():
        assert unit.tobytes() == seeded_stream(5, 3, c, k).standard_gamma(k, 3_001).tobytes()
    rng, twin = seeded_stream(5, 3), seeded_stream(5, 3)
    for (c, k), unit in draw_units(columns, lambda c, k: rng, 3_001).items():
        assert unit.tobytes() == twin.standard_gamma(k, 3_001).tobytes()
    assert rng.random(100).tobytes() == twin.random(100).tobytes()


@pytest.mark.parametrize("shape", [1, 2, 3, 6])
def test_chunked_draws_equal_one_draw(shape):
    # the engine draws a block's column CHUNK_ROWS rows at a time from one
    # generator; the chunks must join into the one whole-block draw
    whole = seeded_stream(3, 1, 2, shape).standard_gamma(shape, 100_003)
    rng = seeded_stream(3, 1, 2, shape)
    parts = [rng.standard_gamma(shape, n) for n in (32_768, 32_768, 30_000, 4_467)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_largest_order_statistic_mean_matches_quadrature():
    cfg = default_config(rx_antennas=2, d_ru=1.0)
    dc = derive_constants(cfg)
    scale = float(dc.power_ru_est[0]) / cfg.m_ru[0]
    shape = cfg.m_ru[0] * cfg.rx_antennas
    _, g2, _ = draw_batch(dc, seeded_stream(6, 0), 1_000_000)
    emp = g2[:, 2].mean()
    # the mean of a non-negative variable is the integral of its survival
    ref, _ = integrate.quad(
        lambda x: ordered_sf(x, 3, 3, shape, scale), 0, np.inf, limit=200
    )
    assert emp == pytest.approx(ref, rel=0.01)


@pytest.mark.slow
def test_empirical_cdfs_match_closed_forms(ideal_cfg):
    dc = derive_constants(ideal_cfg)
    cfg = ideal_cfg
    n = 1_000_000
    g1, g2, _ = draw_batch(dc, seeded_stream(7, 0), n)
    k1 = cfg.m_sr * cfg.tx_antennas
    scale1 = dc.power_sr_est / cfg.m_sr
    ks1 = stats.kstest(g1, lambda x: stats.gamma.cdf(x, a=k1, scale=scale1)).statistic
    assert ks1 < 0.002
    shape = cfg.m_ru[0] * cfg.rx_antennas
    scale2 = float(dc.power_ru_est[0]) / cfg.m_ru[0]
    for l in (1, 2, 3):
        ks = stats.kstest(
            g2[:, l - 1], lambda x: 1.0 - ordered_sf(x, l, 3, shape, scale2)
        ).statistic
        assert ks < 0.002
