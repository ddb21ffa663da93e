"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full suite is
statistical but fully seeded: every run evaluates identical draws.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import fdnoma
from fdnoma import (
    BaselineConfig,
    default_config,
    derive_constants,
    estimate_all_users,
    fd_thresholds_rate_matched,
    hd_outage_all,
    op_asymptotic,
    op_exact,
    op_lower_bound,
    op_oracle_2d,
    ordered_sf,
)
from fdnoma.analytic import _relay_cdf
from fdnoma.channel import draw_batch, seeded_stream
from fdnoma.cli import SweepSpec, run_sweep
from fdnoma.config import config_to_dict, gamma_laws
from fdnoma.montecarlo import Job, _estimate

pytestmark = pytest.mark.acceptance

TRIANGLE_TRIALS = 10_000_000


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _sample_config(rng):
    n = int(rng.choice([2, 3]))
    if n == 2:
        coeffs, thr = (0.7, 0.3), (0.9, 1.5)
    else:
        coeffs, thr = (1 / 2, 1 / 3, 1 / 6), (0.9, 1.5, 2.0)
    return default_config(
        num_users=n,
        power_coeffs=coeffs,
        thresholds=thr,
        tx_antennas=int(rng.integers(1, 4)),
        rx_antennas=int(rng.integers(1, 4)),
        m_sr=int(rng.choice([1, 2])),
        m_ru=int(rng.choice([1, 2])),
        m_li=int(rng.choice([1, 2])),
        li_quality_mu=float(rng.choice([0.0, 0.2, 0.5, 1.0])),
        kappa_sr=float(rng.choice([0.0, 0.14])),
        kappa_ru=float(rng.choice([0.0, 0.14])),
        sigma_e_sr_sq=float(rng.choice([0.0, 0.03])),
        sigma_e_ru_sq=float(rng.choice([0.0, 0.03])),
        sigma_ipsic_sq=float(rng.choice([0.0, 0.03])),
        snr_db=float(rng.integers(0, 31)),
    )


@pytest.fixture(scope="module")
def triangle_grid():
    """50 random feasible configurations with an informative outage level.

    Configurations are kept only when the exact outage lies in
    [1e-4, 0.99]: outside that band the Monte Carlo cross-check at 1e7
    trials is statistically empty (zero-count runs have zero standard
    error) and the relative exact-vs-oracle comparison exceeds double
    precision.  Returns the rows and the number of draws skipped, by
    reason.
    """
    rng = np.random.default_rng(424242)
    rows = []
    skipped = {"infeasible": 0, "NumericsError": 0, "outside band": 0}
    while len(rows) < 50:
        cfg = _sample_config(rng)
        user = int(rng.integers(1, cfg.num_users + 1))
        dc = derive_constants(cfg)
        if not dc.feasible[user - 1]:
            skipped["infeasible"] += 1
            continue
        try:
            exact = op_exact(cfg, user)
        except fdnoma.NumericsError:
            skipped["NumericsError"] += 1
            continue
        if not 1e-4 <= exact <= 0.99:
            skipped["outside band"] += 1
            continue
        rows.append((cfg, user, exact))
    # One engine call per set of fading shapes draws each stream once; every
    # estimate equals its own estimate(cfg, user, ...) call bit for bit.
    groups = {}
    for i, (cfg, user, _) in enumerate(rows):
        dc = derive_constants(cfg)
        groups.setdefault(gamma_laws(dc)[0], []).append((i, Job(dc, (user,), "mc")))
    mc = [None] * len(rows)
    for members in groups.values():
        index, jobs = zip(*members)
        for i, (est,) in zip(index, _estimate(list(jobs), TRIANGLE_TRIALS, 20240817, 8)):
            mc[i] = est
    out = [(cfg, user, exact, op_oracle_2d(cfg, user), op_lower_bound(cfg, user), est)
           for (cfg, user, exact), est in zip(rows, mc)]
    return out, skipped


def test_criterion_01_oracle_triangle(triangle_grid):
    rows, skipped = triangle_grid
    worst_rel = 0.0
    worst_z = 0.0
    for cfg, user, exact, oracle, lb, mc in rows:
        rel = abs(exact - oracle) / exact
        worst_rel = max(worst_rel, rel)
        z = abs(mc.op_value - exact) / mc.std_error
        worst_z = max(worst_z, z)
    ok = worst_rel < 1e-4 and worst_z <= 3.0
    assert _report(
        1, ok,
        f"oracle triangle on 50 configs: max |exact-oracle|/exact = {worst_rel:.2e} "
        f"(< 1e-4), max |exact-mc| = {worst_z:.2f} sigma (<= 3); skipped before "
        f"50 were kept: " + ", ".join(f"{n} {why}" for why, n in skipped.items()),
    )


def test_criterion_02_bound_ordering(triangle_grid):
    rows, _ = triangle_grid
    worst = -np.inf
    for cfg, user, exact, oracle, lb, mc in rows:
        worst = max(worst, lb - exact)
    ok = worst <= 1e-6
    assert _report(
        2, ok, f"lower bound <= exact on 50 configs: max(lb - exact) = {worst:.2e} (<= 1e-6)"
    )


def test_criterion_03_duplexing_crossovers():
    hd_thr = (0.9, 1.5, 2.0)
    base = default_config(
        snr_db=15.0,
        tx_antennas=2,
        rx_antennas=2,
        thresholds=fd_thresholds_rate_matched(hd_thr),
        hd_thresholds=hd_thr,
    )
    bcfg = BaselineConfig(base=base, mode="hd_noma")
    trials, seed = 1_000_000, 11
    hd = {e.user: e.op_value for e in hd_outage_all(bcfg, trials, seed=seed, users=(2, 3))}
    mus = np.round(np.arange(0.0, 1.0001, 0.01), 2)
    curves = {2: [], 3: []}
    # one engine call draws the stream once for all 101 mu points, each
    # estimate equal to its own estimate_all_users call bit for bit
    jobs = [Job(derive_constants(replace(base, li_quality_mu=float(m))), (2, 3), "mc") for m in mus]
    for cells in _estimate(jobs, trials, seed, 1):
        for e in cells:
            curves[e.user].append(e.op_value)
    stars = {}
    for u in (2, 3):
        y = np.array(curves[u])
        idx = int(np.argmax(y >= hd[u]))
        x0, x1, y0, y1 = mus[idx - 1], mus[idx], y[idx - 1], y[idx]
        stars[u] = float(x0 + (hd[u] - y0) * (x1 - x0) / (y1 - y0))
    ok = 0.44 <= stars[2] <= 0.54 and 0.21 <= stars[3] <= 0.31
    assert _report(
        3, ok,
        f"full-/half-duplex crossovers: user2 mu*={stars[2]:.3f} (in [0.44,0.54]), "
        f"user3 mu*={stars[3]:.3f} (in [0.21,0.31])",
    )


def _snr_solve(make_cfg, user, target=1e-5, lo=0.0, hi=80.0):
    for _ in range(36):
        mid = 0.5 * (lo + hi)
        if op_exact(make_cfg(mid), user) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_04_distortion_gap():
    clean = lambda s: default_config(
        snr_db=s, li_quality_mu=0.2, tx_antennas=3, rx_antennas=2
    )
    noisy = lambda s: default_config(
        snr_db=s, li_quality_mu=0.2, tx_antennas=3, rx_antennas=2,
        kappa_sr=0.16, kappa_ru=0.16,
    )
    gaps = {u: _snr_solve(noisy, u) - _snr_solve(clean, u) for u in (1, 2, 3)}
    ok = (
        abs(gaps[1] - 12.5) <= 1.5
        and abs(gaps[2] - 15.0) <= 1.5
        and abs(gaps[3] - 15.0) <= 1.5
    )
    assert _report(
        4, ok,
        "distortion-level SNR gaps at outage 1e-5: "
        f"user1 {gaps[1]:.2f} dB (12.5±1.5), user2 {gaps[2]:.2f} dB (15±1.5), "
        f"user3 {gaps[3]:.2f} dB (15±1.5)",
    )


def test_criterion_05_antenna_gain_gap():
    big = lambda s: default_config(snr_db=s, li_quality_mu=0.2, tx_antennas=3, rx_antennas=2)
    small = lambda s: default_config(snr_db=s, li_quality_mu=0.2, tx_antennas=2, rx_antennas=2)
    gaps = {u: _snr_solve(small, u) - _snr_solve(big, u) for u in (1, 2, 3)}
    ok = (
        abs(gaps[1] - 7.0) <= 1.5
        and abs(gaps[2] - 11.0) <= 1.5
        and abs(gaps[3] - 11.0) <= 1.5
    )
    assert _report(
        5, ok,
        "beamforming-gain SNR gaps at outage 1e-5: "
        f"user1 {gaps[1]:.2f} dB (7±1.5), user2 {gaps[2]:.2f} dB (11±1.5), "
        f"user3 {gaps[3]:.2f} dB (11±1.5)",
    )


SLOPE_CONFIGS = [
    (dict(li_quality_mu=0.5, tx_antennas=1, rx_antennas=1), 1),  # first hop, DO 0.5
    (dict(li_quality_mu=0.5, tx_antennas=2, rx_antennas=2), 1),  # first hop, DO 1.0
    (dict(li_quality_mu=0.2, tx_antennas=2, rx_antennas=2), 1),  # first hop, DO 1.6
    (dict(li_quality_mu=0.2, tx_antennas=3, rx_antennas=1), 1),  # second hop, DO 1
    (dict(li_quality_mu=0.0, tx_antennas=3, rx_antennas=1, d_ru=0.9), 2),  # second hop, DO 2
    (dict(li_quality_mu=0.5, tx_antennas=3, rx_antennas=1), 1),  # second hop, DO 1
]


def test_criterion_06_diversity_slopes():
    details = []
    ok = True
    for kw, user in SLOPE_CONFIGS:
        do = op_asymptotic(default_config(**kw), user).diversity_order
        x = np.array([5.0, 5.5, 6.0])
        y = np.array(
            [math.log10(op_exact(default_config(snr_db=10 * s, **kw), user)) for s in x]
        )
        slope = -np.polyfit(x, y, 1)[0]
        err = abs(slope - do) / do
        ok &= err <= 0.05
        details.append(f"{slope:.3f}/{do:g}")
    assert _report(
        6, ok,
        "log-log slopes 50-60 dB vs diversity order (fitted/predicted): "
        + ", ".join(details) + " (each within 5%)",
    )


def test_criterion_07_loop_interference_floor():
    ok = True
    details = []
    for nt, nr in ((3, 2), (2, 1)):
        base = default_config(li_quality_mu=1.0, tx_antennas=nt, rx_antennas=nr)
        mc = estimate_all_users(replace(base, snr_db=60.0), trials=10_000_000, seed=77, partitions=8)
        for u in (1, 2, 3):
            floor = op_asymptotic(base, u).floor_value
            e60 = op_exact(replace(base, snr_db=60.0), u)
            e70 = op_exact(replace(base, snr_db=70.0), u)
            ok &= abs(e60 - floor) / floor < 0.01 and abs(e70 - floor) / floor < 0.01
            z = abs(mc[u - 1].op_value - e60) / mc[u - 1].std_error
            ok &= z <= 3.0
            if u == 2:
                details.append(f"N=({nt},{nr}): floor={floor:.4f}, mc z={z:.2f}")
    assert _report(
        7, ok,
        "saturated-cancellation floors at 60/70 dB within 1% of closed form, "
        "Monte Carlo within 3 sigma: " + "; ".join(details),
    )


def test_criterion_08_estimation_error_floor():
    cfg = default_config(sigma_e_sr_sq=0.03, sigma_e_ru_sq=0.03, li_quality_mu=0.2)
    ok = True
    details = []
    mc = estimate_all_users(replace(cfg, snr_db=40.0), trials=10_000_000, seed=88, partitions=8)
    for u in (1, 2, 3):
        f6 = fdnoma.cee_floor(cfg, u, snr_ref_db=60.0)
        f7 = fdnoma.cee_floor(cfg, u, snr_ref_db=70.0)
        drift = abs(f6 - f7) / f6
        err = abs(mc[u - 1].op_value - f6) / f6
        ok &= drift < 0.005 and err < 0.10
        details.append(f"u{u}: floor={f6:.4e}, drift={drift:.2e}, mc err={err:.1%}")
    assert _report(
        8, ok,
        "estimation-error floors: reference-level drift < 0.5%, Monte Carlo at "
        "40 dB within 10%: " + "; ".join(details),
    )


def test_criterion_09_statistical_kernels(relay_cdf_references):
    worst = max(abs(float(_relay_cdf(*case)) - want) / want for case, want in relay_cdf_references)
    cfg = default_config(rx_antennas=2, li_quality_mu=0.2)
    dc = derive_constants(cfg)
    n = 1_000_000
    g1, g2, _ = draw_batch(dc, seeded_stream(99, 0), n)
    k1 = cfg.m_sr * cfg.tx_antennas
    ks = [stats.kstest(g1, lambda x: stats.gamma.cdf(x, a=k1, scale=dc.power_sr_est / cfg.m_sr)).statistic]
    shape = cfg.m_ru[0] * cfg.rx_antennas
    scale = float(dc.power_ru_est[0]) / cfg.m_ru[0]
    for l in (1, 2, 3):
        ks.append(
            stats.kstest(g2[:, l - 1], lambda x: 1.0 - ordered_sf(x, l, 3, shape, scale)).statistic
        )
    ok = worst < 1e-12 and max(ks) < 0.002
    assert _report(
        9, ok,
        f"kernels: relay kernel within {worst:.1e} of 60-digit quadrature (<1e-12); "
        f"sampler KS max {max(ks):.5f} (<0.002) at 1e6 draws",
    )


def test_criterion_10_determinism(tmp_path):
    cfg = default_config(li_quality_mu=0.2, tx_antennas=2, rx_antennas=2)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config_to_dict(cfg)))

    spec = SweepSpec("snr_db", 0.0, 10.0, 5.0, ("mc", "exact"), (1, 2, 3),
                     trials=200_000, seed=5, partitions=4)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(p, spec, a)
    run_sweep(p, spec, b)
    byte_ok = a.read_bytes() == b.read_bytes()

    vals = []
    for parts in (1, 4, 16):
        spec_p = SweepSpec("snr_db", 0.0, 10.0, 5.0, ("mc",), (1, 2, 3),
                           trials=200_000, seed=5, partitions=parts)
        path = tmp_path / f"p{parts}.csv"
        run_sweep(p, spec_p, path)
        rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        vals.append(rows[1:])
    parts_ok = vals[0] == vals[1] == vals[2]
    ok = byte_ok and parts_ok
    assert _report(
        10, ok,
        f"determinism: identical re-run byte-identical ({byte_ok}); "
        f"partition counts 1/4/16 give identical values ({parts_ok})",
    )
