import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from fdnoma import gamma_pdf, multinomial_coeffs, ordered_sf
from fdnoma.specfun import order_weights


def test_multinomial_trivial_cases():
    assert multinomial_coeffs(0, 5).tolist() == [1.0]
    assert multinomial_coeffs(1, 3) == pytest.approx([1.0, 1.0, 0.5])


def test_multinomial_squared_coefficient():
    # x^2 coefficient of (1 + x + x^2/2)^2
    t = multinomial_coeffs(2, 3)
    assert t[2] == pytest.approx(2.0, rel=1e-15)
    assert len(t) == 2 * 2 + 1


@pytest.mark.parametrize("power", [0, 1, 2, 3, 5, 8])
@pytest.mark.parametrize("base_terms", [1, 2, 4, 8])
def test_multinomial_against_exact_rationals(power, base_terms, exact_poly_power):
    got = multinomial_coeffs(power, base_terms)
    want = exact_poly_power([Fraction(1, math.factorial(k)) for k in range(base_terms)], power)
    assert len(got) == power * (base_terms - 1) + 1
    assert got[0] == 1.0
    for g, w in zip(got, want):
        assert g == pytest.approx(float(w), rel=1e-12)


def test_multinomial_generating_function_identity(rng):
    # sum_j coeffs[j] x^j equals (sum_{n<K} x^n/n!)^power at sample points
    for power, k in [(2, 3), (3, 4), (4, 6)]:
        coeffs = multinomial_coeffs(power, k)
        for x in rng.uniform(0.0, 3.0, 5):
            lhs = np.polynomial.polynomial.polyval(x, coeffs)
            rhs = sum(x ** n / math.factorial(n) for n in range(k)) ** power
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gamma_pdf_matches_scipy(rng):
    xs = rng.uniform(0.01, 8.0, 50)
    for k, scale in [(1, 1.0), (2, 0.5), (4, 2.0)]:
        assert np.allclose(
            gamma_pdf(xs, k, scale), stats.gamma.pdf(xs, a=k, scale=scale), rtol=1e-10
        )


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


@pytest.mark.parametrize("n", range(1, 7))
def test_order_weights_expand_the_ordered_density(n, exact_poly_power):
    # rank * F**(l-1) * S**(n-l) with F = 1 - S, coefficient by coefficient in S
    for l in range(1, n + 1):
        rank = Fraction(math.factorial(n), math.factorial(n - l) * math.factorial(l - 1))
        want = [0] * (n - l) + [rank * c for c in exact_poly_power([1, -1], l - 1)]
        got = [0] * n
        for r, w in order_weights(l, n):
            got[r] += w
        assert got == want


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


def test_single_user_reduces_to_gamma():
    xs = np.linspace(0.0, 10.0, 40)
    assert np.allclose(ordered_sf(xs, 1, 1, 3, 0.7), stats.gamma.sf(xs, a=3, scale=0.7), atol=1e-13)


def test_ordered_cdf_zero_at_origin():
    for l in (1, 2, 3):
        assert 1.0 - ordered_sf(0.0, l, 3, 2, 1.0) == 0.0


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
    with pytest.raises(ValueError):
        ordered_sf(1.0, 0, 3, 2, 1.0)
    with pytest.raises(ValueError):
        ordered_sf(1.0, 4, 3, 2, 1.0)


def test_extreme_arguments_stay_finite():
    # far past the exponential cutoff the tail must be exactly 0, never
    # a polynomial overflow (underflow to 0 is the intended path)
    with np.errstate(over="raise", invalid="raise"):
        assert ordered_sf(1e40, 2, 3, 6, 1.0) == 0.0
