import itertools
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special, stats

from fdnoma import (
    NumericsError,
    cee_floor,
    default_config,
    derive_constants,
    estimate,
    op_asymptotic,
    op_exact,
    op_lower_bound,
    op_oracle_2d,
    tail_weight_integral,
)
from fdnoma import analytic
from fdnoma.analytic import _log_tail_weights, _relay_cdf
from fdnoma.config import ConfigError


def mp_tail_integral(p, rate, inv_rate, shift, shift_power, dps=30):
    """Arbitrary-precision oracle for the tail integral."""
    with mp.workdps(dps):
        f = lambda x: x ** p * mp.exp(-rate * x - (inv_rate / x if inv_rate else 0)) * (
            x + shift
        ) ** (-shift_power)
        peak = math.sqrt(inv_rate / rate) if inv_rate else max(p, 1) / rate
        val = mp.quad(f, [0, peak, mp.inf])
        return float(val)


def quad_tail_integral(p, rate, inv_rate, shift, shift_power):
    """log of the tail integral by adaptive quadrature: the reference kernel.

    Works on the log axis (x = e^w) like the package's kernel, but scalar:
    the integrand is scaled by its peak on a coarse scan and each side of
    the peak goes to its own ``scipy.integrate.quad`` call out to infinity.
    """
    ws = np.linspace(-60.0, 45.0, 841)
    xs = np.exp(ws)
    phi = (p + 1) * ws - rate * xs - shift_power * np.log(xs + shift) - inv_rate / xs
    peak = int(np.argmax(phi))
    phi_max, w_star = float(phi[peak]), float(ws[peak])

    def f(w):
        if w > 700.0:
            return 0.0
        x = math.exp(w)
        if x == 0.0:
            return 0.0
        e = (p + 1) * w - rate * x - shift_power * math.log(x + shift) - phi_max
        if inv_rate > 0.0:
            e -= inv_rate / x
        return math.exp(e) if e > -745.0 else 0.0

    lo = integrate.quad(f, -np.inf, w_star, epsabs=0.0, epsrel=1e-12, limit=200)
    hi = integrate.quad(f, w_star, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    assert lo[1] + hi[1] <= 1e-6 * (lo[0] + hi[0])
    return phi_max + math.log(lo[0] + hi[0])


def tail_grid(rng, n):
    """Rows over the ranges the closed form produces on its workloads:
    p -4..13, rate 0.125-0.75, q = 0 or 1e-12..1.5e5, shift 5e-13..1e3,
    M 1..6.  Rows with q = 0 take p >= 0 and shift >= 1e-3, which keeps
    the origin integrable and the bump inside the kernel's scan."""
    q = np.where(rng.random(n) < 0.1, 0.0, 10.0 ** rng.uniform(-12, math.log10(1.5e5), n))
    p = np.where(q == 0, rng.integers(0, 14, n), rng.integers(-4, 14, n))
    shift = np.where(q == 0, 10.0 ** rng.uniform(-3, 3, n), 10.0 ** rng.uniform(math.log10(5e-13), 3, n))
    return p, rng.uniform(0.125, 0.75, n), q, shift, rng.integers(1, 7, n)


def closed_form_no_inverse(p, rate, shift, shift_power):
    """Finite-sum form valid when the exp(-q/x) factor is absent and p >= 0."""
    with mp.workdps(40):
        total = mp.mpf(0)
        for k in range(p + 1):
            total += (
                mp.binomial(p, k)
                * (-shift) ** (p - k)
                * rate ** (shift_power - k - 1)
                * mp.gammainc(k - shift_power + 1, rate * shift, mp.inf)
            )
        return float(mp.exp(rate * shift) * total)


class TestTailIntegral:
    def test_non_negative(self, rng):
        for _ in range(10):
            v = tail_weight_integral(
                int(rng.integers(-3, 8)),
                float(rng.uniform(0.1, 3.0)),
                float(rng.uniform(1e-6, 2.0)),
                float(rng.uniform(1e-3, 5.0)),
                int(rng.integers(1, 5)),
            )
            assert v >= 0.0

    def test_matches_arbitrary_precision(self, rng):
        cases = [
            (0, 0.5, 0.2, 0.1, 1),
            (3, 1.2, 0.01, 2.0, 2),
            (-2, 0.3, 0.5, 0.7, 3),
            (5, 2.0, 1e-6, 1e-3, 1),
            (-1, 0.125, 4e-11, 1e-4, 2),
        ]
        for p, r, q, F, M in cases:
            got = tail_weight_integral(p, r, q, F, M)
            want = mp_tail_integral(p, r, q, F, M)
            assert got == pytest.approx(want, rel=1e-9)

    def test_no_inverse_factor_closed_form(self):
        for p, r, F, M in [(0, 1.0, 0.5, 2), (2, 0.7, 1.5, 1), (4, 1.3, 0.2, 3)]:
            got = tail_weight_integral(p, r, 0.0, F, M)
            want = closed_form_no_inverse(p, r, F, M)
            assert got == pytest.approx(want, rel=1e-9)

    def test_matches_quad_reference(self, rng):
        rows = tail_grid(rng, 400)
        got = _log_tail_weights(*rows)
        want = np.array([quad_tail_integral(*r) for r in zip(*rows)])
        assert np.abs(np.expm1(got - want)).max() <= 1e-11

    def test_batch_equals_single_rows(self, rng):
        # a batch shares one node count, set by its widest window; each
        # row then differs from its own one-row rule only by rounding in
        # phi, whose terms reach ~1e3 near the peak (1e3 * eps ~ 2e-13)
        rows = tail_grid(rng, 200)
        batch = _log_tail_weights(*rows)
        single = np.array([math.log(tail_weight_integral(*r)) for r in zip(*rows)])
        assert np.abs(np.expm1(batch - single)).max() <= 5e-13

    def test_bump_outside_scan_raises(self):
        with pytest.raises(NumericsError, match="scan"):
            tail_weight_integral(1, 1e-25, 0.1, 1.0, 1)  # peak near x = 1e25
        with pytest.raises(NumericsError, match="scan"):
            tail_weight_integral(0, 0.5, 0.0, 1e-12, 3)  # slow falloff below x = 1e-12
        rows = tail_grid(np.random.default_rng(1), 20)
        rows[1][7] = 1e-25  # one bad row fails the whole batch
        with pytest.raises(NumericsError, match="rate=1e-25"):
            _log_tail_weights(*rows)

    def test_unresolved_bump_raises(self):
        # phi'' = -2*sqrt(rate*inv_rate) at the peak: a bump ~7e-4 wide,
        # below the ~2e-3 step of the narrowest window (2 scan steps / 128)
        with pytest.raises(NumericsError, match="step-halving"):
            tail_weight_integral(0, 1e6, 1e6, 1.0, 1)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            tail_weight_integral(1, 0.0, 0.1, 1.0, 1)


class TestRelayKernel:
    def test_matches_arbitrary_precision(self, relay_cdf_references):
        for case, want in relay_cdf_references:
            assert abs(float(_relay_cdf(*case)) - want) <= 1e-14 * want, case

    def test_reductions(self):
        theta = np.array([0.0, 1e-300, 1e-6, 0.3, 7.0, 1e12])
        mean = np.array([0.0, 1e-12, 0.02, 1.5, 40.0])
        for k1, k3 in ((1, 1), (3, 2), (6, 4)):
            # no relay noise: P(N2 >= k1), the regularized incomplete beta
            got = _relay_cdf(k1, k3, theta, 0.0)
            assert np.array_equal(got, special.betainc(k1, k3, theta / (1 + theta)))
            # no loop interference: the first-hop Gamma CDF
            assert np.array_equal(_relay_cdf(k1, k3, 0.0, mean), special.gammainc(k1, mean))


CROSS_CASES = [
    dict(snr_db=10, kappa_sr=0.14, kappa_ru=0.14),
    dict(snr_db=20, sigma_e_sr_sq=0.03, sigma_e_ru_sq=0.03),
    dict(snr_db=15, sigma_ipsic_sq=0.03),
    dict(snr_db=12, tx_antennas=3, rx_antennas=2),
    dict(snr_db=8, m_sr=2, m_ru=2, m_li=2, tx_antennas=2, rx_antennas=2),
    dict(snr_db=25, li_quality_mu=1.0),
    dict(snr_db=30, tx_antennas=2, rx_antennas=2, li_quality_mu=0.2),
]


class TestExactVsOracle:
    @pytest.mark.parametrize("kw", CROSS_CASES)
    def test_triangle(self, kw):
        cfg = default_config(**kw)
        for u in (1, 3):
            ex = op_exact(cfg, u)
            orc = op_oracle_2d(cfg, u)
            lb = op_lower_bound(cfg, u)
            assert abs(ex - orc) / ex < 1e-12
            assert lb <= ex + 1e-6

    def test_reference_point(self):
        # moderate-decay loop interference, single antennas, 30 dB
        cfg = default_config(li_quality_mu=0.2, snr_db=30.0)
        ex = op_exact(cfg, 1)
        orc = op_oracle_2d(cfg, 1)
        assert abs(ex - orc) / ex < 1e-12

    def test_two_user_system(self):
        cfg = default_config(
            num_users=2, power_coeffs=(0.7, 0.3), thresholds=(0.9, 1.5),
            rx_antennas=2, snr_db=14.0,
        )
        for u in (1, 2):
            assert abs(op_exact(cfg, u) - op_oracle_2d(cfg, u)) / op_exact(cfg, u) < 1e-12

    def test_infeasible_returns_one(self):
        cfg = default_config(thresholds=(1.2, 1.5, 2.0))
        assert op_exact(cfg, 1) == 1.0
        assert op_oracle_2d(cfg, 1) == 1.0
        assert op_lower_bound(cfg, 1) == 1.0

    def test_matches_monte_carlo(self, ideal_cfg):
        ex = op_exact(ideal_cfg, 2)
        mc = estimate(ideal_cfg, 2, trials=2_000_000, seed=17)
        assert abs(mc.op_value - ex) <= 3 * mc.std_error

    def test_monotone_in_snr(self):
        last = 1.1
        for snr in (0.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0):
            v = op_exact(default_config(li_quality_mu=0.2, snr_db=snr), 2)
            assert v <= last + 1e-12
            last = v

    @pytest.mark.parametrize("route", [op_exact, op_oracle_2d, op_lower_bound, op_asymptotic])
    def test_requires_identical_user_statistics(self, route):
        # the last case pins the li_floor branch of op_asymptotic after the check
        unequal = (dict(d_ru=(0.4, 0.5, 0.6)), dict(m_ru=(1, 2, 1)), dict(m_ru=(2, 2, 1), li_quality_mu=1.0))
        for kw in unequal:
            with pytest.raises(ConfigError):
                route(default_config(**kw), 1)

    @pytest.mark.parametrize("route", [op_exact, op_oracle_2d, op_lower_bound, op_asymptotic])
    def test_infeasible_user_precedes_statistics_check(self, route):
        # user 3 cannot decode (distortion claims its whole power share):
        # its outage is 1 whatever the other users' statistics
        cfg = default_config(d_ru=(0.4, 0.5, 0.6), thresholds=(0.9, 1.5, 20.0),
                             kappa_sr=0.14, kappa_ru=0.14)
        value = route(cfg, 3)
        if route is op_asymptotic:
            assert value.regime == "infeasible"
            value = value.probability(1e6)
        assert value == 1.0

    def test_closed_form_calls_no_quadrature(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("an analytic route called scipy.integrate.quad")

        monkeypatch.setattr(integrate, "quad", no_quad)
        assert not hasattr(analytic, "quad")
        for kw in CROSS_CASES:
            cfg = default_config(**kw)
            for u in range(1, cfg.num_users + 1):
                assert 0.0 < op_exact(cfg, u) < 1.0
                assert 0.0 < op_oracle_2d(cfg, u) < 1.0
                assert 0.0 <= op_lower_bound(cfg, u) < 1.0
                assert op_asymptotic(cfg, u).regime != "infeasible"

    def test_oracle_window_at_scan_edge_raises(self, monkeypatch):
        monkeypatch.setattr(analytic, "_ORACLE_REACH", (5.0, 1.0))
        with pytest.raises(NumericsError, match="scan"):
            op_oracle_2d(default_config(li_quality_mu=0.2, snr_db=30.0), 1)

    def test_oracle_unresolved_body_raises(self, monkeypatch):
        # one node per unit of log gain, not refined, cannot resolve the bump to 1e-12
        monkeypatch.setattr(analytic, "_ORACLE_STEP", 1.0)
        monkeypatch.setattr(analytic, "_ORACLE_HALVINGS", 0)
        with pytest.raises(NumericsError, match="step-halving"):
            op_oracle_2d(default_config(li_quality_mu=0.2, snr_db=30.0), 1)

    def test_exact_unresolved_or_unscanned_body_raises(self, monkeypatch):
        cfg = default_config(li_quality_mu=0.2, snr_db=30.0)
        monkeypatch.setattr(analytic, "_EXACT_STEP", 1.0)
        with pytest.raises(NumericsError, match="step-halving"):
            op_exact(cfg, 1)
        monkeypatch.setattr(analytic, "_EXACT_STEP", 0.05)
        monkeypatch.setattr(analytic, "_ORACLE_REACH", (5.0, 1.0))
        with pytest.raises(NumericsError, match="scan"):
            op_exact(cfg, 1)

    def test_one_tolerance_governs_both_rules(self, monkeypatch):
        monkeypatch.setattr(analytic, "_REL_TOL", 1e-30)
        with pytest.raises(NumericsError, match="step-halving"):
            tail_weight_integral(0, 0.5, 0.2, 0.1, 1)
        # a point whose fine and coarse oracle sums differ at every step down
        # to the floor (at mu 0.2 they round to the same double at step 0.1)
        with pytest.raises(NumericsError, match="step-halving"):
            op_oracle_2d(default_config(li_quality_mu=0.5, snr_db=30.0), 1)

    @pytest.mark.parametrize("kw, user", [
        (dict(tx_antennas=2, rx_antennas=2, snr_db=120.0), 1),  # ~3.2e-19
        (dict(tx_antennas=4, rx_antennas=4, m_sr=3, m_ru=3, snr_db=20.0), 3),  # ~1.4e-10
        (dict(tx_antennas=4, rx_antennas=4, m_sr=3, m_ru=3, snr_db=30.0), 3),  # ~1.3e-19
    ], ids=["2x2-120dB-user1", "4x4-m3-20dB-user3", "4x4-m3-30dB-user3"])
    def test_exact_matches_oracle_deep_in_tail(self, kw, user):
        # outages far below the rounding of 1, first-hop limited (the body
        # carries all but 2e-5 of it): a sum of positive terms, not the
        # remainder of 1 - success
        cfg = default_config(li_quality_mu=0.2, **kw)
        assert op_exact(cfg, user) == pytest.approx(op_oracle_2d(cfg, user), rel=1e-12, abs=0)


# 3x2 antennas, mu = 0, user 1: 7.6e-6 at 30 dB and 7.6e-8 at 40 dB, where
# the body above the floor is ~1e-3 of the outage.  Pinned from an
# adaptive-quad reference on the same log axes as op_oracle_2d (each axis
# in 12 fixed pieces; 27 pieces and wider axes moved it by under 4e-14).
DEEP_TAIL = {30.0: 7.649246009e-06, 40.0: 7.599259702e-08}


def deep_tail_config(snr_db):
    return default_config(tx_antennas=3, rx_antennas=2, li_quality_mu=0.0, snr_db=snr_db)


class TestDeepTail:
    @pytest.mark.parametrize("snr_db", sorted(DEEP_TAIL))
    def test_exact_matches_logaxis_reference(self, snr_db):
        assert op_exact(deep_tail_config(snr_db), 1) == pytest.approx(DEEP_TAIL[snr_db], rel=1e-9, abs=0)

    @pytest.mark.parametrize("snr_db", sorted(DEEP_TAIL))
    def test_oracle_matches_logaxis_reference(self, snr_db):
        assert op_oracle_2d(deep_tail_config(snr_db), 1) == pytest.approx(DEEP_TAIL[snr_db], rel=1e-9, abs=0)

    def test_oracle_refines_by_halving(self, monkeypatch):
        # from step 0.4 the check fails at 0.4 and 0.2, so the value comes
        # from two halvings that reuse every node already evaluated
        cases = [(default_config(li_quality_mu=0.2, snr_db=30.0), None)]
        cases += [(deep_tail_config(snr_db), DEEP_TAIL[snr_db]) for snr_db in sorted(DEEP_TAIL)]
        default = [op_oracle_2d(cfg, 1) for cfg, _ in cases]
        monkeypatch.setattr(analytic, "_ORACLE_STEP", 0.4)
        for (cfg, pinned), want in zip(cases, default):
            got = op_oracle_2d(cfg, 1)
            assert got == pytest.approx(want, rel=1e-13, abs=0)
            if pinned is not None:
                assert got == pytest.approx(pinned, rel=1e-9, abs=0)
        monkeypatch.setattr(analytic, "_ORACLE_HALVINGS", 1)
        with pytest.raises(NumericsError, match="step-halving"):
            op_oracle_2d(cases[0][0], 1)

    def test_oracle_holds_body_within_one_over_snr_of_floor(self):
        # 2x2, mu 0.2, 60 dB, user 3: the body sits within ~1/SNR of the floor c
        cfg = default_config(tx_antennas=2, rx_antennas=2, li_quality_mu=0.2, snr_db=60.0)
        orc = op_oracle_2d(cfg, 3)
        assert orc >= op_lower_bound(cfg, 3)
        assert orc == pytest.approx(op_exact(cfg, 3), rel=1e-5, abs=0)


class TestLowerBound:
    def test_random_feasible_grid(self, rng):
        for _ in range(10):
            cfg = default_config(
                snr_db=float(rng.uniform(0, 30)),
                li_quality_mu=float(rng.choice([0.0, 0.2, 0.5, 1.0])),
                kappa_sr=float(rng.choice([0.0, 0.14])),
                kappa_ru=float(rng.choice([0.0, 0.14])),
                tx_antennas=int(rng.integers(1, 3)),
                rx_antennas=int(rng.integers(1, 3)),
            )
            u = int(rng.integers(1, 4))
            assert op_lower_bound(cfg, u) <= op_exact(cfg, u) + 1e-6

    def test_below_exact_on_reference_family(self):
        # the reference family of the benchmark's analytic sweep, down to
        # outages of ~1e-30: the bound may exceed exact only by rounding
        checked, raised = 0, []
        grid = itertools.product(
            ((1, 1), (2, 2), (3, 2)), (1, 2), (0.0, 0.2, 1.0), (0.0, 20.0, 40.0, 60.0), (1, 2, 3)
        )
        for (tx, rx), m_sr, mu, snr, u in grid:
            point = (tx, rx, m_sr, mu, snr, u)
            cfg = default_config(tx_antennas=tx, rx_antennas=rx, m_sr=m_sr, li_quality_mu=mu, snr_db=snr)
            try:
                ex = op_exact(cfg, u)
            except NumericsError:
                raised.append(point)
                continue
            lb = op_lower_bound(cfg, u)
            assert lb <= ex * (1 + 1e-9) + 1e-300, (point, lb, ex)
            checked += 1
        assert raised == []
        assert checked == 216

    @pytest.mark.parametrize("mu, snr_db, lb_want, ex_want", [
        (0.2, 50.0, 2.0136337157e-19, 2.0144470372e-19),
        (0.0, 60.0, 1.9221622045e-23, 1.9221768130e-23),
    ])
    def test_keeps_relative_accuracy_far_below_rounding_of_one(self, mu, snr_db, lb_want, ex_want):
        # 1 - (survival * survival) would round to a multiple of 1.1e-16 here
        cfg = default_config(tx_antennas=3, rx_antennas=2, m_sr=2, li_quality_mu=mu, snr_db=snr_db)
        lb, ex = op_lower_bound(cfg, 2), op_exact(cfg, 2)
        assert lb == pytest.approx(lb_want, rel=1e-9, abs=0)
        assert ex == pytest.approx(ex_want, rel=1e-9, abs=0)
        assert lb <= ex

    def test_tight_at_high_snr(self):
        cfg = default_config(li_quality_mu=0.2, snr_db=40.0, tx_antennas=2, rx_antennas=2)
        for u in (1, 2, 3):
            ratio = op_lower_bound(cfg, u) / op_exact(cfg, u)
            assert 0.5 <= ratio <= 1.0 + 1e-9


class TestAsymptotics:
    def test_diversity_order_min_rule(self):
        r = op_asymptotic(default_config(li_quality_mu=0.2), 1)
        assert r.regime == "ideal"
        assert r.diversity_order == pytest.approx(0.8)
        r = op_asymptotic(
            default_config(li_quality_mu=0.2, tx_antennas=3, rx_antennas=2), 1
        )
        assert r.diversity_order == pytest.approx(2.0)  # second hop limits
        r = op_asymptotic(
            default_config(li_quality_mu=0.2, tx_antennas=3, rx_antennas=2), 3
        )
        assert r.diversity_order == pytest.approx(2.4)  # first hop limits

    def test_asymptote_matches_exact_at_high_snr(self):
        cfg = default_config(li_quality_mu=0.5)
        r = op_asymptotic(cfg, 1)
        ex = op_exact(replace(cfg, snr_db=60.0), 1)
        assert r.probability(1e6) == pytest.approx(ex, rel=0.10)

    def test_asymptote_matches_oracle_at_high_snr(self):
        # second-hop-limited: the faster first-hop branch dies off well
        # before 60 dB and the single-term asymptote is already exact
        cfg = default_config(li_quality_mu=0.2, tx_antennas=3, rx_antennas=1)
        r = op_asymptotic(cfg, 1)
        orc = op_oracle_2d(replace(cfg, snr_db=60.0), 1)
        assert r.probability(1e6) == pytest.approx(orc, rel=0.10)

    @pytest.mark.parametrize("lam", [1.0, 3.0])
    @pytest.mark.parametrize("m_li", [1, 2])
    @pytest.mark.parametrize("m_sr", [1, 2])
    @pytest.mark.parametrize("antennas", [(1, 1), (2, 2), (3, 2)], ids=["1x1", "2x2", "3x2"])
    def test_mu0_asymptote_keeps_relay_noise(self, antennas, m_sr, m_li, lam):
        # at mu = 0 the loop interference and the relay noise share one
        # order, so the first-hop coefficient is E[(X + 1)**k1], not E[X**k1]
        cfg = default_config(tx_antennas=antennas[0], rx_antennas=antennas[1], m_sr=m_sr,
                             m_li=m_li, li_scale_lambda=lam, li_quality_mu=0.0, snr_db=80.0)
        for u in (1, 2, 3):
            r = op_asymptotic(cfg, u)
            assert r.probability(1e8) / op_oracle_2d(cfg, u) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("antennas", [1, 2])
    def test_tied_orders_add_asymptotes(self, antennas):
        # m_sr 2, mu 0.5: first-hop order 0.5 * 2 * tx equals user 1's
        # second-hop order rx, so both hops' asymptotes count
        cfg = default_config(tx_antennas=antennas, rx_antennas=antennas, m_sr=2, li_quality_mu=0.5)
        r = op_asymptotic(cfg, 1)
        assert r.diversity_order == pytest.approx(antennas)
        off = [abs(r.probability(10.0 ** (snr / 10)) / op_oracle_2d(replace(cfg, snr_db=snr), 1) - 1.0)
               for snr in (60.0, 70.0)]
        assert off[1] <= 1e-2
        assert off[1] < off[0]

    @pytest.mark.parametrize("m_li", [1, 2])
    @pytest.mark.parametrize("m_sr", [1, 2])
    @pytest.mark.parametrize("tx", [1, 2, 3])
    def test_li_floor_matches_quadrature(self, tx, m_sr, m_li):
        # the floor is P(g1 <= x*g3) = E[P(k1, alpha1*x*g3)], g3 ~ Gamma(m_li)
        cfg = default_config(
            li_quality_mu=1.0, kappa_ru=0.1, tx_antennas=tx, m_sr=m_sr, m_li=m_li
        )
        dc = derive_constants(cfg)
        k1, alpha1 = m_sr * tx, m_sr / dc.power_sr
        pdf_li = stats.gamma(m_li, scale=dc.power_li / m_li).pdf
        amp = 1 + cfg.kappa_ru ** 2
        for u in (1, 2, 3):
            r = op_asymptotic(cfg, u)
            x = amp * dc.demand_peak[u - 1] * dc.snr_lin
            ref, _ = integrate.quad(
                lambda z: special.gammainc(k1, alpha1 * x * z) * pdf_li(z),
                0, np.inf, epsabs=0, epsrel=1e-13, limit=200,
            )
            assert r.regime == "li_floor"
            assert r.diversity_order == 0.0
            assert r.floor_value == pytest.approx(ref, rel=1e-12)
            if k1 == m_li == 1:  # single term: 1 - 1/(1 + x*li/power)
                expected = 1 - 1 / (1 + x * cfg.li_scale_lambda / dc.power_sr)
                assert r.floor_value == pytest.approx(expected, rel=1e-12)

    def test_li_floor_flatness_and_value(self):
        base = default_config(li_quality_mu=1.0, tx_antennas=2, rx_antennas=1)
        r = op_asymptotic(base, 2)
        e60 = op_exact(replace(base, snr_db=60.0), 2)
        e70 = op_exact(replace(base, snr_db=70.0), 2)
        assert abs(e60 - e70) / e60 < 0.01
        assert e60 == pytest.approx(r.floor_value, rel=0.01)

    def test_cee_floor_flat_and_reached(self):
        cfg = default_config(sigma_e_sr_sq=0.03, sigma_e_ru_sq=0.03, li_quality_mu=0.2)
        f6 = cee_floor(cfg, 2, snr_ref_db=60.0)
        f7 = cee_floor(cfg, 2, snr_ref_db=70.0)
        assert abs(f6 - f7) / f6 < 0.005
        r = op_asymptotic(cfg, 2)
        assert r.regime == "cee_floor"
        assert r.floor_value == pytest.approx(f6)
        e40 = op_exact(replace(cfg, snr_db=40.0), 2)
        assert e40 == pytest.approx(f6, rel=0.10)

    def test_cee_floor_requires_error_variance(self, ideal_cfg):
        with pytest.raises(ValueError):
            cee_floor(ideal_cfg, 1)

    def test_slope_matches_diversity_order(self):
        cfg = lambda s: default_config(li_quality_mu=0.5, snr_db=s)
        r = op_asymptotic(cfg(15.0), 1)
        slope = math.log10(op_exact(cfg(50.0), 1)) - math.log10(op_exact(cfg(60.0), 1))
        assert slope == pytest.approx(r.diversity_order, rel=0.05)

    def test_infeasible_report(self):
        r = op_asymptotic(default_config(thresholds=(1.2, 1.5, 2.0)), 1)
        assert r.regime == "infeasible"
        assert r.probability(1e6) == 1.0
