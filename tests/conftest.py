import mpmath as mp
import numpy as np
import pytest

from fdnoma import default_config


@pytest.fixture
def ideal_cfg():
    """Reference setup, no impairments, moderate loop-interference decay."""
    return default_config(li_quality_mu=0.2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _mp_relay_cdf(k1, k3, theta, mean, dps=60):
    """The z average of P(k1, mean + theta*x), x ~ Gamma(k3, 1), by
    arbitrary-precision quadrature, with breakpoints where the integrand
    turns: at the knot x = (k1 - mean)/theta where the first-hop argument
    reaches k1, at a quarter of it, at the Gamma bulk k3 and far right."""
    with mp.workdps(dps):
        f = lambda x: (mp.gammainc(k1, 0, mean + theta * x, regularized=True)
                       * x ** (k3 - 1) * mp.exp(-x) / mp.gamma(k3))
        knot = mp.mpf(k1 - mean) / theta
        points = sorted({mp.mpf(0), knot / 4, knot, mp.mpf(k3), 4 * (knot + k3)})
        return mp.quad(f, points + [mp.inf])


# (k1, k3, theta, mean): first-hop and loop-interference shapes, then the
# relay kernel's two arguments; the (12, 2, ...) case sits near 1e-24
RELAY_CASES = [(1, 1, 0.5, 0.3), (3, 2, 0.02, 0.7), (6, 1, 2.0, 1e-3),
               (2, 3, 1e-4, 1e-5), (12, 2, 1e-3, 0.05), (4, 2, 5.0, 0.0)]


@pytest.fixture(scope="session")
def relay_cdf_references():
    """The relay kernel's cases and their 60-digit references, computed once."""
    return [(case, float(_mp_relay_cdf(*case))) for case in RELAY_CASES]
