import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc, gammaincc, xlogy

from fdnoma import ordered_sf
from fdnoma.specfun import ordered_cdf, ordered_logpdf


def reference_ordered_sf(x, order, n, shape, scale):
    """Textbook binomial mixing of the underlying CDF and survival."""
    F = stats.gamma.cdf(x, a=shape, scale=scale)
    S = stats.gamma.sf(x, a=shape, scale=scale)
    return sum(math.comb(n, j) * F ** j * S ** (n - j) for j in range(order))


def mp_ordered_sf(x, order, n, shape, scale):
    """50-digit binomial mixing of the parent law's CDF and survival."""
    with mp.workdps(50):
        t = mp.mpf(x) / scale
        S = mp.exp(-t) * mp.fsum(t ** k / mp.factorial(k) for k in range(shape))
        return float(mp.fsum(mp.binomial(n, j) * (1 - S) ** j * S ** (n - j) for j in range(order)))


def mp_ordered_cdf(x, order, n, shape, scale):
    """50-digit binomial mixing, the parent CDF from its own lower-tail series."""
    with mp.workdps(50):
        F = mp.gammainc(shape, 0, mp.mpf(x) / scale, regularized=True)
        return float(mp.fsum(mp.binomial(n, j) * F ** j * (1 - F) ** (n - j) for j in range(order, n + 1)))


def test_ordered_sf_relative_accuracy_in_deep_tail():
    # e.g. the smallest of 3 Exp(1) gains at x = 20 is 8.76e-27: the
    # survival must keep its relative digits, not its absolute ones
    for n in range(2, 6):
        for l in range(1, n):
            for shape in (1, 2, 4):
                for scale in (1.0, 2.5):
                    xs = np.linspace(0.0, 60.0, 61) * scale
                    got = ordered_sf(xs, l, n, shape, scale)
                    want = np.array([mp_ordered_sf(x, l, n, shape, scale) for x in xs])
                    assert np.abs(got / want - 1.0).max() <= 1e-12, (l, n, shape, scale)


def test_ordered_cdf_relative_accuracy_in_deep_lower_tail():
    # e.g. the largest of 5 Gamma(4) gains at 1e-4 of the scale is ~1e-87:
    # the CDF must keep its relative digits, which 1 - ordered_sf cannot
    for n in range(2, 6):
        for l in range(1, n + 1):
            for shape in (1, 2, 4):
                for scale in (1.0, 2.5):
                    xs = np.geomspace(1e-4, 20.0, 40) * scale
                    got = ordered_cdf(xs, l, n, shape, scale)
                    want = np.array([mp_ordered_cdf(x, l, n, shape, scale) for x in xs])
                    assert np.abs(got / want - 1.0).max() <= 1e-12, (l, n, shape, scale)


def order_weights(order, n):
    """The ordered density ``rank * F**(l-1) * S**(n-l) * f`` expanded in
    powers of ``S = 1 - F``: the pairs ``(r_j, w_j)`` with ``r_j = n - l + j``
    and ``w_j = (-1)**j * rank * C(l-1, j)``."""
    rank = math.comb(n, order) * order
    return [(n - order + j, (-1) ** j * rank * math.comb(order - 1, j)) for j in range(order)]


def exact_poly_power(base, power):
    """Exact rational coefficients of ``(sum_k base[k] * x**k) ** power``."""
    out = [Fraction(1)]
    for _ in range(power):
        new = [Fraction(0)] * (len(out) + len(base) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(base):
                new[i + j] += a * Fraction(b)
        out = new
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_order_weights_expand_the_ordered_density(n):
    # rank * F**(l-1) * S**(n-l) with F = 1 - S, coefficient by coefficient
    # in S; summed at 100 digits (it cancels to F**(l-1), ~1e-68 at the
    # smallest x), the expansion is the density that ordered_logpdf returns
    for l in range(1, n + 1):
        rank = Fraction(math.factorial(n), math.factorial(n - l) * math.factorial(l - 1))
        want = [0] * (n - l) + [rank * c for c in exact_poly_power([1, -1], l - 1)]
        got = [0] * n
        for r, w in order_weights(l, n):
            got[r] += w
        assert got == want
        for shape in (1, 2, 4):
            scale = 1.5
            xs = np.geomspace(1e-3, 30.0, 25) * scale
            with mp.workdps(100):
                dens = []
                for x in xs:
                    t = mp.mpf(x) / scale
                    S = mp.gammainc(shape, t, mp.inf, regularized=True)
                    f = t ** (shape - 1) * mp.exp(-t) / (mp.gamma(shape) * scale)
                    dens.append(float(mp.fsum(w * S ** r for r, w in order_weights(l, n)) * f))
            got_pdf = np.exp(ordered_logpdf(xs, l, n, shape, scale))
            assert np.abs(got_pdf / np.array(dens) - 1.0).max() <= 1e-12, (l, n, shape)


def test_ordered_cdf_and_sf_add_to_one():
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 100.0, 200)])
    for n in range(1, 7):
        for l in range(1, n + 1):
            for shape in (1, 2, 4, 8):
                for scale in (0.3, 1.0, 7.0):
                    args = (l, n, shape, scale)
                    total = ordered_cdf(xs * scale, *args) + ordered_sf(xs * scale, *args)
                    assert np.abs(total - 1.0).max() <= 2 * np.spacing(1.0), (l, n, shape, scale)


def test_ordered_logpdf_single_user_is_gamma(rng):
    for shape, scale in [(1, 1.0), (2, 0.5), (4, 2.0), (7, 0.3)]:
        xs = np.concatenate([rng.uniform(0.01, 8.0, 50), np.geomspace(1e-8, 60.0, 50)]) * scale
        got = ordered_logpdf(xs, 1, 1, shape, scale)
        assert np.abs(got - stats.gamma.logpdf(xs, a=shape, scale=scale)).max() <= 1e-12, shape
    # the exponential law's density at the origin: xlogy keeps 0 * log 0 at 0
    assert ordered_logpdf(0.0, 1, 1, 1, 2.0) == pytest.approx(-math.log(2.0), abs=1e-15)


def test_ordered_logpdf_skips_absent_factors_bit_for_bit():
    # the full binomial form, with F**0 at l = 1 and S**0 at l = L taken
    # through xlogy: skipping them must not move a single bit
    def full(x, l, n, shape, scale):
        u = x / scale
        return (
            math.lgamma(n + 1) - math.lgamma(n - l + 1) - math.lgamma(l)
            + xlogy(l - 1, gammainc(shape, u))
            + xlogy(n - l, gammaincc(shape, u))
            + xlogy(shape - 1, u)
            - u
            - math.lgamma(shape)
            - math.log(scale)
        )

    u = np.concatenate([[0.0, 1e-300], np.geomspace(1e-30, 1e3, 4998)])
    for n in range(1, 6):
        for l in range(1, n + 1):
            for shape in (1, 2, 3, 6, 12):
                for scale in (0.05, 1.0, 30.0):
                    x = u * scale
                    assert np.array_equal(ordered_logpdf(x, l, n, shape, scale), full(x, l, n, shape, scale)), \
                        (l, n, shape, scale)


def test_ordered_logpdf_is_the_cdf_derivative():
    # central difference with a relative step; where the CDF passes 1/2
    # the survival's difference takes over, so neither loses digits to 1
    xs = np.geomspace(0.02, 10.0, 40)
    h = 1e-5 * xs
    for n in range(2, 6):
        for l in range(1, n + 1):
            for shape in (1, 2, 4):
                args = (l, n, shape, 0.8)
                diff = np.where(
                    ordered_cdf(xs, *args) < 0.5,
                    ordered_cdf(xs + h, *args) - ordered_cdf(xs - h, *args),
                    ordered_sf(xs - h, *args) - ordered_sf(xs + h, *args),
                ) / (2 * h)
                pdf = np.exp(ordered_logpdf(xs, *args))
                assert np.abs(pdf / diff - 1.0).max() <= 1e-6, args


def test_single_user_reduces_to_gamma():
    xs = np.linspace(0.0, 10.0, 40)
    assert np.allclose(ordered_sf(xs, 1, 1, 3, 0.7), stats.gamma.sf(xs, a=3, scale=0.7), atol=1e-13)


def test_ordered_cdf_zero_at_origin():
    for l in (1, 2, 3):
        assert 1.0 - ordered_sf(0.0, l, 3, 2, 1.0) == 0.0
        assert ordered_cdf(0.0, l, 3, 2, 1.0) == 0.0


def test_ordered_against_textbook_oracle(rng):
    for order, n, shape, scale in [(2, 3, 2, 1.0), (1, 3, 1, 0.5), (3, 3, 4, 2.0), (2, 2, 3, 1.3)]:
        for x in rng.uniform(0.05, 12.0, 12):
            assert ordered_sf(x, order, n, shape, scale) == pytest.approx(
                reference_ordered_sf(x, order, n, shape, scale), rel=1e-10, abs=1e-12
            )


def test_mixture_identity():
    # averaging the order-statistic survival functions recovers the parent's
    xs = np.linspace(0.0, 12.0, 60)
    n, shape, scale = 3, 2, 0.8
    mix = sum(ordered_sf(xs, l, n, shape, scale) for l in range(1, n + 1)) / n
    assert np.allclose(mix, stats.gamma.sf(xs, a=shape, scale=scale), atol=1e-10)


def test_stochastic_ordering():
    xs = np.linspace(0.01, 15.0, 80)
    for l in (1, 2):
        a = ordered_sf(xs, l, 3, 2, 1.0)
        b = ordered_sf(xs, l + 1, 3, 2, 1.0)
        assert np.all(a <= b + 1e-12)


def test_order_bounds_rejected():
    for law in (ordered_cdf, ordered_sf, ordered_logpdf):
        with pytest.raises(ValueError):
            law(1.0, 0, 3, 2, 1.0)
        with pytest.raises(ValueError):
            law(1.0, 4, 3, 2, 1.0)


def test_extreme_arguments_stay_finite():
    # far past the exponential cutoff the tail must be exactly 0, never
    # a polynomial overflow (underflow to 0 is the intended path)
    with np.errstate(over="raise", invalid="raise"):
        assert ordered_sf(1e40, 2, 3, 6, 1.0) == 0.0
