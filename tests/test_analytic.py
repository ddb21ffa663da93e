import itertools
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special, stats

from fdnoma import (
    NumericsError,
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
from fdnoma.analytic import _relay_cdf
from fdnoma.config import ConfigError
from fdnoma.specfun import ordered_cdf


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
        got = np.array([math.log(tail_weight_integral(*r)) for r in zip(*rows)])
        want = np.array([quad_tail_integral(*r) for r in zip(*rows)])
        assert np.abs(np.expm1(got - want)).max() <= 1e-11

    def test_narrow_bump_is_refined(self, monkeypatch):
        # phi'' = -2*sqrt(rate*inv_rate) ~ -630 at the peak: a bump ~0.04
        # wide, which the scan step 1/32 resolves only once halved
        case = (3, 1.0, 1e5, 2.0, 2)
        got = tail_weight_integral(*case)
        assert math.log(got) == pytest.approx(quad_tail_integral(*case), rel=0, abs=1e-9)
        monkeypatch.setattr(analytic, "_HALVINGS", 0)
        with pytest.raises(NumericsError, match="step-halving"):
            tail_weight_integral(*case)

    def test_bump_outside_scan_raises(self):
        with pytest.raises(NumericsError, match="scan"):
            tail_weight_integral(1, 1e-25, 0.1, 1.0, 1)  # peak near x = 1e25
        with pytest.raises(NumericsError, match="scan"):
            tail_weight_integral(0, 0.5, 0.0, 1e-12, 3)  # slow falloff below x = 1e-12

    def test_unresolved_bump_raises(self):
        # phi'' = -2*sqrt(rate*inv_rate) at the peak: a bump ~7e-4 wide,
        # below the finest step 1/256 (the scan step 1/32 halved 3 times)
        with pytest.raises(NumericsError, match="step-halving"):
            tail_weight_integral(0, 1e6, 1e6, 1.0, 1)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            tail_weight_integral(1, 0.0, 0.1, 1.0, 1)

    @pytest.mark.parametrize("arg", ["rate", "inv_rate", "shift"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, arg, value):
        args = dict(power=1, rate=0.5, inv_rate=0.1, shift=1.0, shift_power=1)
        args[arg] = value
        with pytest.raises(ValueError, match="finite"):
            tail_weight_integral(**args)


def _grid_nodes(*axes):
    """The nodes of the grid of ``axes`` (one or two), rows first."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


class TestTwoAxisRule:
    """The two-axis log-axis rule on a separable bump whose integral is
    Gamma(p+1) Gamma(q+1) / (r^(p+1) s^(q+1)) (x = e^a, y = e^b)."""

    @staticmethod
    def integral(p, r, q, s):
        def phi(a, b):
            return ((p + 1) * a - r * np.exp(a))[:, None] + (q + 1) * b - s * np.exp(b)

        return analytic._scan_rule(phi, (np.arange(-50.0, 40.0, 0.25), np.arange(-100.0, 20.0, 0.25)), 0.25, "bump")

    @pytest.mark.parametrize("p, r, q, s", [
        (0.0, 1.0, 0.0, 1.0),
        (2.0, 0.5, -0.5, 3.0),
        (5.0, 40.0, 0.3, 0.01),
        (99.0, 100.0, 1.0, 2.0),  # ~0.1 wide along a: resolved only once halved
    ])
    def test_matches_gamma_functions(self, p, r, q, s):
        want = math.exp(math.lgamma(p + 1) - (p + 1) * math.log(r) + math.lgamma(q + 1) - (q + 1) * math.log(s))
        assert self.integral(p, r, q, s) == pytest.approx(want, rel=1e-12, abs=0)

    def test_narrow_bump_must_halve(self, monkeypatch):
        # the narrow case passes its check only after all three halvings
        monkeypatch.setattr(analytic, "_HALVINGS", 2)
        with pytest.raises(NumericsError, match="bump did not converge"):
            self.integral(99.0, 100.0, 1.0, 2.0)

    def test_bump_outside_a_scan_raises(self):
        with pytest.raises(NumericsError, match="bump not contained"):
            self.integral(0.0, 1e-20, 0.0, 1.0)  # peak near a = 46


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

    def test_one_point_matches_the_array_call(self):
        # a scalar against an array broadcasts as one point per element,
        # whichever argument is the array, bit for bit at every k1: both
        # add the k1 terms in order (NumPy alone would add a one-point
        # call's run pairwise from 8 terms on)
        theta = np.array([0.0, 1e-300, 1e-6, 0.3, 7.0, 1e12])
        mean = np.array([0.0, 1e-12, 0.02, 1.5, 40.0])
        for k1, k3 in itertools.product(range(1, 13), range(1, 4)):
            for t in (0.3, 7.0):
                got = _relay_cdf(k1, k3, t, mean)
                assert got.shape == mean.shape
                assert np.array_equal(got, [_relay_cdf(k1, k3, t, m) for m in mean])
            for m in (0.02, 1.5):
                got = _relay_cdf(k1, k3, theta, m)
                assert got.shape == theta.shape
                assert np.array_equal(got, [_relay_cdf(k1, k3, t, m) for t in theta])
            grid = _relay_cdf(k1, k3, theta[:, None], mean)
            assert grid.shape == (len(theta), len(mean))
            # columns against rows: both sum their terms in order
            assert np.array_equal(grid.T, [_relay_cdf(k1, k3, theta, m) for m in mean])


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

    def test_judged_on_the_reference_family(self):
        # every user of the reference family at 0, 40 and 80 dB: exact to
        # the oracle's tolerance, and the bound below it up to rounding
        grid = itertools.product(((1, 1), (2, 2), (3, 2)), (1, 2), (0.0, 0.2, 0.5), (0.0, 40.0, 80.0))
        checked = 0
        for (tx, rx), m_sr, mu, snr in grid:
            cfg = default_config(tx_antennas=tx, rx_antennas=rx, m_sr=m_sr, li_quality_mu=mu, snr_db=snr)
            for u in (1, 2, 3):
                point = (tx, rx, m_sr, mu, snr, u)
                ex, orc = op_exact(cfg, u), op_oracle_2d(cfg, u)
                assert abs(ex - orc) <= 1e-12 * orc, (point, ex, orc)
                assert op_lower_bound(cfg, u) <= ex * (1 + 1e-9), point
                checked += 1
        assert checked == 162

    def test_exact_refines_the_scan_nodes(self, monkeypatch):
        # the rule starts on the scan's own nodes and adds only midpoints:
        # a point that halves once evaluates at most twice the scan's nodes
        cfg = default_config(tx_antennas=2, rx_antennas=2, li_quality_mu=0.2, snr_db=40.0)
        scans, nodes = [], []
        rule, kernel = analytic._scan_rule, analytic._relay_cdf
        monkeypatch.setattr(analytic, "_scan_rule",
                            lambda phi, axes, step, name: scans.append(axes) or rule(phi, axes, step, name))
        monkeypatch.setattr(analytic, "_relay_cdf",
                            lambda k1, k3, theta, mean: nodes.append(np.size(theta)) or kernel(k1, k3, theta, mean))
        op_exact(cfg, 2)
        ((scan,),) = scans
        assert nodes[0] == len(scan)
        assert len(nodes) == 2  # the scan, then one level of midpoints
        assert sum(nodes) <= 2 * len(scan)

    def test_oracle_evaluates_no_node_twice(self, monkeypatch):
        # the oracle's two rules, over b = log z and over (r, b), share one
        # b scan; each starts on its scan grid, and each halving adds only
        # nodes new to the halved grid, so the nodes on the final grid are
        # evaluated once each and no node twice
        cfg = default_config(li_quality_mu=0.2, snr_db=30.0)
        calls = []
        rule = analytic._scan_rule

        def recording(phi, axes, step, name):
            evaluated = []
            calls.append((axes, evaluated))
            return rule(lambda *x: evaluated.append(_grid_nodes(*x)) or phi(*x), axes, step, name)

        monkeypatch.setattr(analytic, "_scan_rule", recording)
        op_oracle_2d(cfg, 1)
        ((b_scan,), _), ((_, b_scan_2d), _) = calls
        assert b_scan is b_scan_2d
        for axes, evaluated in calls:
            nodes = np.concatenate(evaluated)
            n_scan = math.prod(map(len, axes))
            assert np.array_equal(nodes[:n_scan], _grid_nodes(*axes))
            assert len({tuple(p) for p in nodes.tolist()}) == len(nodes)
            fresh = nodes[n_scan:]
            assert len(fresh) > 0  # the point halves
            kept = [np.unique(fresh[:, k]) for k in range(len(axes))]
            on_grid = np.all([np.isin(nodes[:, k], x) for k, x in enumerate(kept)], axis=0)
            assert on_grid[n_scan:].all()
            assert on_grid.sum() == math.prod(map(len, kept))

    def test_oracle_reads_neither_the_kernel_nor_the_ordered_density(self, monkeypatch):
        # the oracle is an independent judge of op_exact: with the relay
        # kernel, its one-point form and the ordered density all broken,
        # it returns the same values
        cases = [(default_config(**kw), u) for kw in CROSS_CASES for u in (1, 2, 3)]
        want = [op_oracle_2d(cfg, u) for cfg, u in cases]

        def broken(*args, **kwargs):
            raise AssertionError("the oracle read a part of op_exact")

        for name in ("_relay_cdf", "_relay_ratio_cdf", "ordered_logpdf"):
            monkeypatch.setattr(analytic, name, broken)
        assert [op_oracle_2d(cfg, u) for cfg, u in cases] == want

    def test_oracle_relay_term_is_the_one_point_kernel(self, monkeypatch):
        # the oracle's 1-D term E_z[P(g1 <= K)] is the lower bound's F_W,
        # the closed-form kernel at one point, by a rule that shares no
        # code with it
        rule, relay_terms = analytic._scan_rule, []

        def recording(phi, axes, step, name):
            value = rule(phi, axes, step, name)
            if len(axes) == 1:
                relay_terms.append(value)
            return value

        monkeypatch.setattr(analytic, "_scan_rule", recording)
        grid = itertools.product(((1, 1), (2, 2), (3, 2)), (1, 2), (0.0, 0.2, 0.5), (0.0, 40.0, 80.0))
        for (tx, rx), m_sr, mu, snr in grid:
            cfg = default_config(tx_antennas=tx, rx_antennas=rx, m_sr=m_sr, li_quality_mu=mu, snr_db=snr)
            dc = derive_constants(cfg)
            for u in (1, 2, 3):
                relay_terms.clear()
                op_oracle_2d(cfg, u)
                f_w = analytic._relay_ratio_cdf(analytic._user_view(dc, u))
                (term,) = relay_terms
                assert term == pytest.approx(f_w, rel=1e-12, abs=0), (tx, rx, m_sr, mu, snr, u)

    def test_odd_window_widened_past_the_scan_raises(self):
        # a window of three intervals ending at the last scan node cannot
        # gain the fourth its halving check needs; one of four can
        phi = np.array([-99.0, -99.0, -99.0, 0.0, 0.0, -99.0])
        assert analytic._window(np.arange(7.0), np.r_[phi, -99.0], "probe") == (2, 6)
        with pytest.raises(NumericsError, match="probe not contained"):
            analytic._window(np.arange(6.0), phi, "probe")

    def test_nan_integrand_is_not_contained(self):
        # a NaN profile has no peak, so no window: a NumericsError, not an IndexError
        with pytest.raises(NumericsError, match="probe not contained"):
            analytic._window(np.arange(5.0), np.full(5, np.nan), "probe")

    @pytest.mark.parametrize("snr_db", [-30.0, -40.0])
    def test_body_below_the_double_range(self, snr_db):
        # the ordered survival underflows at every node of the body's scan:
        # the body is below the double range and the outage is its head
        for (tx, rx), mu, u in itertools.product(((1, 1), (2, 2), (3, 2)), (0.0, 0.2, 1.0), (1, 2, 3)):
            cfg = default_config(tx_antennas=tx, rx_antennas=rx, li_quality_mu=mu, snr_db=snr_db)
            assert op_lower_bound(cfg, u) <= op_exact(cfg, u) <= 1.0, (tx, rx, mu, u)

    def test_underflowed_body_needs_a_large_head(self):
        # an integrand that is -inf at every scan node integrates to 0, which
        # the outage may drop only beside a term 1/_REL_TOL times the double range
        assert analytic._scan_rule(lambda a: np.full(len(a), -np.inf), (np.arange(8.0),), 1.0, "probe") == 0.0
        assert analytic._total((1e-290, 0.0), "probe") == 1e-290
        with pytest.raises(NumericsError, match="probe underflows the double range"):
            analytic._total((1e-300, 0.0), "probe")

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
    def test_user_must_be_an_integer(self, route, ideal_cfg):
        # a float or bool user is refused, not truncated nor used as an
        # index; NumPy integers pass
        for bad in (2.5, True):
            with pytest.raises(ConfigError, match="integer"):
                route(ideal_cfg, bad)
        assert route(ideal_cfg, np.int64(2)) == route(ideal_cfg, 2)

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
        monkeypatch.setattr(analytic, "_REACH", (5.0, 1.0))
        with pytest.raises(NumericsError, match="scan"):
            op_oracle_2d(default_config(li_quality_mu=0.2, snr_db=30.0), 1)

    def test_oracle_unresolved_body_raises(self, monkeypatch):
        # one node per unit of log gain, not refined, cannot resolve the bump to 1e-12
        monkeypatch.setattr(analytic, "_ORACLE_SCAN_STEP", 1.0)
        monkeypatch.setattr(analytic, "_HALVINGS", 0)
        with pytest.raises(NumericsError, match="step-halving"):
            op_oracle_2d(default_config(li_quality_mu=0.2, snr_db=30.0), 1)

    def test_exact_unresolved_or_unscanned_body_raises(self, monkeypatch):
        cfg = default_config(li_quality_mu=0.2, snr_db=30.0)
        # the scan's own step, never refined, cannot resolve the bump to 1e-12
        monkeypatch.setattr(analytic, "_HALVINGS", 0)
        with pytest.raises(NumericsError, match="step-halving"):
            op_exact(cfg, 1)
        monkeypatch.setattr(analytic, "_HALVINGS", 3)
        monkeypatch.setattr(analytic, "_REACH", (5.0, 1.0))
        with pytest.raises(NumericsError, match="scan"):
            op_exact(cfg, 1)

    def test_one_tolerance_governs_both_rules(self, monkeypatch):
        # a negative tolerance no rule can meet: every log-axis rule must
        # read it and raise
        monkeypatch.setattr(analytic, "_REL_TOL", -1.0)
        cfg = default_config(li_quality_mu=0.5, snr_db=30.0)
        for route in (lambda: tail_weight_integral(0, 0.5, 0.2, 0.1, 1),
                      lambda: op_exact(cfg, 1), lambda: op_oracle_2d(cfg, 1)):
            with pytest.raises(NumericsError, match="step-halving"):
                route()

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
        # from a scan at step 0.4 the check fails at 0.4 and 0.2, so the
        # value comes from two halvings that reuse every node already evaluated
        cases = [(default_config(li_quality_mu=0.2, snr_db=30.0), None)]
        cases += [(deep_tail_config(snr_db), DEEP_TAIL[snr_db]) for snr_db in sorted(DEEP_TAIL)]
        default = [op_oracle_2d(cfg, 1) for cfg, _ in cases]
        monkeypatch.setattr(analytic, "_ORACLE_SCAN_STEP", 0.4)
        for (cfg, pinned), want in zip(cases, default):
            got = op_oracle_2d(cfg, 1)
            assert got == pytest.approx(want, rel=1e-13, abs=0)
            if pinned is not None:
                assert got == pytest.approx(pinned, rel=1e-9, abs=0)
        monkeypatch.setattr(analytic, "_HALVINGS", 1)
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
        # the floor is the SNR -> inf limit: the exact route settles on it
        cfg = default_config(sigma_e_sr_sq=0.03, sigma_e_ru_sq=0.03, li_quality_mu=0.2)
        r = op_asymptotic(cfg, 2)
        assert r.regime == "cee_floor"
        assert r.probability(1e3) == r.probability(1e30) == r.floor_value
        for snr_db in (150.0, 300.0):
            assert op_exact(replace(cfg, snr_db=snr_db), 2) == pytest.approx(r.floor_value, rel=1e-9)
        assert op_exact(replace(cfg, snr_db=40.0), 2) == pytest.approx(r.floor_value, rel=0.10)

    @pytest.mark.parametrize("mu, sigma_sr, sigma_ru", [
        *((mu, sr, ru) for mu in (0.0, 0.2, 0.5, 1.0) for sr, ru in ((0.0, 0.03), (0.03, 0.0), (0.03, 0.03))),
        (1.0, 0.0, 0.0),
    ])
    @pytest.mark.parametrize("antennas", [(1, 1), (3, 2)], ids=["1x1", "3x2"])
    def test_floor_is_the_limit_of_exact(self, antennas, mu, sigma_sr, sigma_ru):
        # every floor, estimation errors and saturated cancellation alike,
        # is the exact outage at SNR -> inf (300 dB stands in for it)
        cfg = default_config(tx_antennas=antennas[0], rx_antennas=antennas[1], li_quality_mu=mu,
                             sigma_e_sr_sq=sigma_sr, sigma_e_ru_sq=sigma_ru)
        for u in (1, 2, 3):
            r = op_asymptotic(cfg, u)
            assert r.regime == ("cee_floor" if sigma_sr or sigma_ru else "li_floor")
            assert r.floor_value == pytest.approx(op_exact(replace(cfg, snr_db=300.0), u), rel=1e-9, abs=0)

    @pytest.mark.parametrize("sigma_sr, sigma_ru, mu", [(0.03, 0.0, 1.0), (0.0, 0.03, 0.2)], ids=["t2=0", "t5=s3=0"])
    def test_exact_on_factorizing_limit_views(self, sigma_sr, sigma_ru, mu):
        # SNR -> inf limit views whose need does not depend on y: with no
        # user-side error (t2 = 0) the floor c is 0 and the outage is the
        # first hop's alone; with no relay-side error or loop interference
        # (t5 = s3 = 0) no need is left above c and the outage is the head
        cfg = default_config(tx_antennas=3, rx_antennas=2, li_quality_mu=mu,
                             sigma_e_sr_sq=sigma_sr, sigma_e_ru_sq=sigma_ru)
        for u in (1, 2, 3):
            view = analytic._user_view(derive_constants(cfg), u)
            limit = view._replace(t2=sigma_ru, t5=sigma_sr, s3=view.s3 if mu == 1.0 else 0.0)
            if sigma_ru == 0.0:
                want = analytic._relay_ratio_cdf(limit)
            else:
                want = ordered_cdf(limit.c, u, 3, limit.k2, limit.s2)
            assert 0.0 < want < 1.0
            assert analytic._op_exact(limit) == want
            assert op_asymptotic(cfg, u).floor_value == want

    @pytest.mark.parametrize("cfg, user", [
        (default_config(tx_antennas=8, rx_antennas=8, m_sr=4, m_ru=4, li_quality_mu=0.0, snr_db=-90.0), 1),
        (default_config(tx_antennas=4, rx_antennas=4, m_sr=3, li_quality_mu=0.0, snr_db=-250.0), 3),
    ], ids=["8x8-m4", "4x4-m3"])
    def test_ideal_asymptote_saturates_at_one(self, cfg, user):
        # where array_gain * snr <= 1 the asymptote is 1, not an overflow
        r = op_asymptotic(cfg, user)
        assert r.regime == "ideal" and r.array_gain * cfg.snr_lin <= 1.0
        assert r.probability(cfg.snr_lin) == 1.0

    @pytest.mark.parametrize("m_sr", [1, 2])
    @pytest.mark.parametrize("antennas", [(1, 1), (2, 2), (3, 2)], ids=["1x1", "2x2", "3x2"])
    def test_ideal_asymptote_is_the_limit_of_exact(self, antennas, m_sr):
        # every ideal-regime asymptote is the SNR -> inf limit of the exact
        # outage: within 1e-3 relative at 300 dB, and no farther off there
        # than at 200 dB (up to a 1e-13 rounding allowance)
        for mu, kappa, u in itertools.product((0.0, 0.2, 0.5, 0.8), (0.0, 0.14), (1, 2, 3)):
            cfg = default_config(tx_antennas=antennas[0], rx_antennas=antennas[1], m_sr=m_sr,
                                 li_quality_mu=mu, kappa_sr=kappa, kappa_ru=kappa)
            r = op_asymptotic(cfg, u)
            assert r.regime == "ideal"
            gap = {snr_db: abs(r.probability(10.0 ** (snr_db / 10)) / op_exact(replace(cfg, snr_db=snr_db), u) - 1)
                   for snr_db in (200.0, 300.0)}
            point = (mu, kappa, u, gap)
            assert gap[300.0] <= 1e-3, point
            assert gap[300.0] <= max(gap[200.0], 1e-13), point

    def test_slope_matches_diversity_order(self):
        cfg = lambda s: default_config(li_quality_mu=0.5, snr_db=s)
        r = op_asymptotic(cfg(15.0), 1)
        slope = math.log10(op_exact(cfg(50.0), 1)) - math.log10(op_exact(cfg(60.0), 1))
        assert slope == pytest.approx(r.diversity_order, rel=0.05)

    def test_infeasible_report(self):
        r = op_asymptotic(default_config(thresholds=(1.2, 1.5, 2.0)), 1)
        assert r.regime == "infeasible"
        assert r.probability(1e6) == 1.0
