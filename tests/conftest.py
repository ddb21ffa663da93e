from fractions import Fraction

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


def _exact_poly_power(base, power):
    """Exact rational coefficients of ``(sum_k base[k] * x**k) ** power``."""
    base = [Fraction(b) for b in base]
    out = [Fraction(1)]
    for _ in range(power):
        new = [Fraction(0)] * (len(out) + len(base) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(base):
                new[i + j] += a * b
        out = new
    return out


@pytest.fixture
def exact_poly_power():
    """Independent oracle for polynomial powers, in exact rationals."""
    return _exact_poly_power
