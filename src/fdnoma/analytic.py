"""Closed-form and semi-closed-form outage probability.

Four routes to the same quantity, used to cross-validate each other:

* :func:`op_exact` - the closed-form expansion: the first-hop Gamma CDF
  and the loop-interference integral are reduced analytically, the
  ordered user-gain density is expanded in powers of its parent
  survival function (:func:`~fdnoma.specfun.order_weights`), each power
  through power-series coefficients, and what remains is a finite
  alternating sum of one-dimensional tail integrals
  (:func:`tail_weight_integral`), all evaluated at once by one
  vectorized trapezoid rule on a log axis whose step-halving check
  raises instead of returning an unchecked value.
* :func:`op_oracle_2d` - direct 2-D integration of the outage
  probability over (user gain above its floor, loop-interference gain)
  on log axes, by one vectorized tensor-product trapezoid rule with a
  step-halving check.  It shares nothing with the closed form's
  expansion and is nearly assumption-free; the reference oracle.
* :func:`op_lower_bound` - fully closed form obtained by bounding the
  two-hop SIDNR by the smaller of the per-hop ratios.
* :func:`op_asymptotic` - high-SNR behavior: diversity order and array
  gain when the outage decays, explicit floor values when residual loop
  interference (full cancellation quality lost) or channel estimation
  errors dominate.

The alternating sums are accumulated with exact compensated summation
(``math.fsum``) after scaling by the largest term, and the evaluation
reports catastrophic cancellation instead of returning digits it cannot
back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import gammainc, gammaincc, xlogy

from .config import (
    DerivedConstants,
    SystemConfig,
    derive_constants,
    uniform_ru,
)
from .specfun import multinomial_coeffs, order_weights, ordered_sf

__all__ = [
    "NumericsError",
    "AsymptoteReport",
    "op_exact",
    "op_oracle_2d",
    "op_lower_bound",
    "op_asymptotic",
    "cee_floor",
    "tail_weight_integral",
]

_TIE_TOL = 1e-9
# Relative tolerance of each tail integral of the closed form; the
# cancellation guard of op_exact scales its error estimate by it.
_TAIL_REL_TOL = 1e-12


class NumericsError(RuntimeError):
    """Quadrature non-convergence or catastrophic cancellation."""


def _check_user(dc: DerivedConstants, user: int):
    if not 1 <= user <= dc.cfg.num_users:
        raise ValueError(f"user must lie in 1..{dc.cfg.num_users}")


# -- tail integral ----------------------------------------------------------

def _tail_exponent(w, p, rate, inv_rate, shift, shift_power):
    """phi(w) = log of x**(p+1) exp(-rate*x - inv_rate/x) (x+shift)**-shift_power at x = e^w."""
    x = np.exp(w)
    return (p + 1) * w - rate * x - shift_power * np.log(x + shift) - inv_rate / x


def _log_tail_weights(p, rate, inv_rate, shift, shift_power):
    """log of integral_0^inf x**p exp(-rate*x - inv_rate/x) (x+shift)**-shift_power dx, per row.

    The arguments broadcast against each other, one row per element.  On
    the log axis (x = e^w) the integrand is a smooth bump exp(phi(w)):
    the essential zero at the origin and the exponential decay at
    infinity become double-exponential falloffs.  phi is concave (a
    linear term minus convex ones), so the nodes of a fixed scan grid
    with phi >= max - 40, widened by one scan step on each side, hold all
    but ~e^-40 of the mass.  On that window the trapezoid rule converges
    exponentially in the number of nodes (Trefethen & Weideman, SIAM Rev.
    2014); one node count, set by the widest window, serves every row,
    and each row is summed scaled by its largest node.  Every row is
    checked against the same rule on every other node: a disagreement
    above ``_TAIL_REL_TOL``, or a window that reaches an end of the scan,
    raises :class:`NumericsError`.
    """
    ws = np.linspace(-60.0, 45.0, 841)  # scan grid, step 0.125
    block = 16  # rows at a time: bounds the temporaries to ~0.5 MB
    rows = np.broadcast_arrays(
        *(np.reshape(np.asarray(a, dtype=float), (-1, 1)) for a in (p, rate, inv_rate, shift, shift_power))
    )
    blocks = [slice(i, i + block) for i in range(0, len(rows[0]), block)]
    first, stop = np.empty((2, len(rows[0])), dtype=np.int64)
    for b in blocks:
        phi = _tail_exponent(ws, *(a[b] for a in rows))
        inside = phi >= phi.max(axis=1, keepdims=True) - 40.0
        first[b] = np.argmax(inside, axis=1) - 1
        stop[b] = len(ws) - np.argmax(inside[:, ::-1], axis=1)
    if first.min() < 0 or stop.max() >= len(ws):
        bad = int(np.flatnonzero((first < 0) | (stop >= len(ws)))[0])
        raise NumericsError(
            "tail integrand not contained in the log-axis scan "
            f"[{ws[0]:g}, {ws[-1]:g}] ({_row_text(rows, bad)})"
        )
    lo, width = ws[first], ws[stop] - ws[first]
    n = max(128, math.ceil(width.max() / 0.1))  # step <= 0.1, even count
    n += n % 2
    h = width / n
    nodes = np.arange(n + 1)
    log_t, rel_err = np.empty((2, len(rows[0])))
    for b in blocks:
        phi = _tail_exponent(lo[b, None] + h[b, None] * nodes, *(a[b] for a in rows))
        top = phi.max(axis=1)
        f = np.exp(phi - top[:, None])
        f[:, [0, n]] *= 0.5  # trapezoid end weights, shared by the halved rule
        fine = h[b] * f.sum(axis=1)
        coarse = 2.0 * h[b] * f[:, ::2].sum(axis=1)
        rel_err[b] = np.abs(fine - coarse) / fine
        log_t[b] = top + np.log(fine)
    worst = int(np.argmax(rel_err))
    if not rel_err[worst] <= _TAIL_REL_TOL:
        raise NumericsError(
            f"tail integral did not converge ({_row_text(rows, worst)}, "
            f"step-halving relative error {rel_err[worst]:.2e})"
        )
    return log_t


def _row_text(rows, i):
    names = ("p", "rate", "inv_rate", "shift", "shift_power")
    return ", ".join(f"{k}={a[i, 0]:g}" for k, a in zip(names, rows))


def tail_weight_integral(
    power: int,
    rate: float,
    inv_rate: float,
    shift: float,
    shift_power: int,
) -> float:
    """integral_0^inf x**power exp(-rate*x - inv_rate/x) (x+shift)**-shift_power dx.

    ``power`` may be negative; ``inv_rate > 0`` then keeps the origin
    integrable.  With ``inv_rate == 0`` the caller must ensure
    integrability at 0 (``power >= 0`` or ``power > shift_power - 1``
    when ``shift == 0``).  One row of the closed form's kernel: a
    log-axis trapezoid rule with a step-halving check at relative
    tolerance 1e-12; raises :class:`NumericsError` when the check fails
    or the integrand leaves the scanned range (x in [e^-60, e^45]).
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if inv_rate < 0 or shift < 0:
        raise ValueError("inv_rate and shift must be non-negative")
    return math.exp(_log_tail_weights(power, rate, inv_rate, shift, shift_power)[0])


# -- exact outage -----------------------------------------------------------

@lru_cache(maxsize=128)
def _term_table(k1: int, k2: int, num_users: int, order: int, m_li: int):
    """Index arrays and index-only log weights of the outage expansion.

    Rows enumerate (n, m, r, n1, n2, n3): first-hop CDF term n,
    loop-interference binomial m, the survival power r of the ordered
    user-gain density (:func:`~fdnoma.specfun.order_weights`), the
    power-series order n1 and the two shift binomials (n2, n3).
    Everything that does not depend on the channel constants is folded
    into ``base`` (a log magnitude) and ``sign``.
    """
    powers, weights = (np.array(v) for v in zip(*order_weights(order, num_users)))
    n, m, j, n1, n2, n3 = np.array([
        (n, m, j, n1, n2, n3)
        for n in range(k1)
        for m in range(n + 1)
        for j, r in enumerate(powers)
        for n1 in range(r * (k2 - 1) + 1)
        for n2 in range(n1 + k2)
        for n3 in range(n + 1)
    ]).T
    r = powers[j]
    log_fact = np.array([math.lgamma(i + 1) for i in range(num_users * k2 + k1 + m_li)])
    log_comb = lambda a, b: log_fact[a] - log_fact[b] - log_fact[a - b]
    log_theta = np.full((len(powers), (num_users - 1) * (k2 - 1) + 1), -np.inf)
    for i, p in enumerate(powers):
        log_theta[i, : p * (k2 - 1) + 1] = np.log(multinomial_coeffs(p, k2))
    base = (
        np.log(np.abs(weights))[j]
        + log_comb(n, m)
        + log_comb(n1 + k2 - 1, n2)
        + log_comb(n, n3)
        + log_fact[m + m_li - 1]
        - log_fact[n]
        - math.lgamma(m_li)
        - math.lgamma(k2)
        + log_theta[j, n1]
    )
    p_exp = n2 + n3 + m + m_li - n
    m_exp = m + m_li
    uniq, inverse = np.unique(np.stack([p_exp, r, m_exp], axis=1), axis=0, return_inverse=True)
    return {
        "base": base,
        "sign": np.sign(weights)[j].astype(float),
        "n": n,
        "m": m,
        "r": r,
        "pow_beta": n1 + k2,
        "pow_c": n1 + k2 - 1 - n2,
        "pow_u": n - n3,
        "M": m_exp,
        "uniq": uniq,
        "inverse": inverse,
    }


def _log_comb(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _success_probability(dc: DerivedConstants, user: int):
    """Complement of the outage: the alternating finite sum, returned as
    (value, largest term magnitude)."""
    cfg = dc.cfg
    l, L = user, cfg.num_users
    m_ru, power_ru_est = uniform_ru(dc)
    k1 = cfg.m_sr * cfg.tx_antennas
    k2 = m_ru * cfg.rx_antennas
    g = dc.snr_lin
    t2 = float(dc.noise_ru[l - 1])
    t3, t4, t5 = dc.rhi_amp, dc.sr_derate, dc.noise_sr
    dmax = float(dc.demand_peak[l - 1])

    beta = m_ru / power_ru_est
    alpha1 = cfg.m_sr / dc.power_sr_est
    rho = cfg.m_li / dc.power_li
    c = t2 * t3 * dmax                   # ordered-gain floor of the outage region
    e_big = t3 * t5 * dmax * alpha1      # first-hop exponential weight
    u = c + t2 / g
    q = e_big * u                        # exp(-q/x) weight inside the tail integral
    g_d = g * t3 * t4 * dmax * alpha1    # loop-interference coupling
    shift = g_d * u / (g_d + rho)

    tab = _term_table(k1, k2, L, l, cfg.m_li)
    log_c, log_u = math.log(c), math.log(u)
    log_beta = math.log(beta)
    log_g45 = math.log(g * t4 / t5)
    log_e = math.log(e_big)
    log_gd_rho = math.log(g_d + rho)
    scalar = cfg.m_li * math.log(rho) - e_big

    p, r, mm = tab["uniq"].T
    log_t = _log_tail_weights(p, beta * (r + 1), q, shift, mm)

    lg = (
        tab["base"]
        + scalar
        + tab["pow_beta"] * log_beta
        + tab["pow_c"] * log_c
        - (c * beta) * (tab["r"] + 1)
        + tab["m"] * log_g45
        + tab["n"] * log_e
        + tab["pow_u"] * log_u
        - tab["M"] * log_gd_rho
        + log_t[tab["inverse"]]
    )
    lg_max = float(np.max(lg))
    if lg_max == -math.inf:
        return 0.0, 0.0
    terms = tab["sign"] * np.exp(lg - lg_max)
    scaled = math.fsum(terms)
    peak = math.exp(lg_max)
    return peak * scaled, peak


def _op_exact(dc: DerivedConstants, user: int) -> float:
    """Exact outage probability from precomputed constants."""
    _check_user(dc, user)
    if not dc.feasible[user - 1]:
        return 1.0
    success, peak = _success_probability(dc, user)
    op = 1.0 - success
    if success > 1.001:
        raise NumericsError(f"success probability evaluated to {success!r}")
    # The sum itself is exactly rounded; what limits the result is the
    # per-term evaluation error (dominated by the tail-integral
    # tolerance) amplified by cancellation against the leading 1.
    err_est = peak * _TAIL_REL_TOL
    if err_est > 0.05 * max(abs(op), 1e-300):
        raise NumericsError(
            f"catastrophic cancellation: outage {op:.3e} below the "
            f"resolution {err_est:.3e} of the alternating sum"
        )
    return min(max(op, 0.0), 1.0)


def op_exact(cfg: SystemConfig, user: int) -> float:
    """Exact per-user outage probability (closed form plus tail quadrature).

    Returns 1 outright when any decode stage of ``user`` is infeasible.
    """
    return _op_exact(derive_constants(cfg), user)


# -- 2-D log-axis oracle ----------------------------------------------------

# Trapezoid step on both log axes of the oracle, the step of the scan that
# picks its window, and how far the scan reaches beyond the data anchors
# (below the leftmost anchor, above the rightmost one).
_ORACLE_STEP = 0.05
_ORACLE_SCAN_STEP = 0.25
_ORACLE_REACH = (50.0, 8.0)
# Relative step-halving tolerance of the oracle's body.
_ORACLE_REL_TOL = 1e-12


def _os_cdf_direct(x, order, num_users, shape, scale):
    """Order-statistic CDF straight from the binomial mixing of the
    underlying Gamma CDF (independent of the power-series route)."""
    F = gammainc(shape, max(x, 0.0) / scale)
    return math.fsum(
        math.comb(num_users, j) * F ** j * (1.0 - F) ** (num_users - j)
        for j in range(order, num_users + 1)
    )


def _os_logpdf_direct(x, order, num_users, shape, scale):
    """log density of the order-th smallest of num_users Gamma gains at x > 0.

    The binomial form rank * F**(l-1) * S**(L-l) * f, with F and S each
    taken straight from the regularized incomplete gamma functions, so
    each keeps relative accuracy in its own tail; ``xlogy`` makes the
    absent factor of l = 1 or l = L exactly 0 in log space.
    """
    u = x / scale
    l, n = order, num_users
    log_rank = math.lgamma(n + 1) - math.lgamma(n - l + 1) - math.lgamma(l)
    return (
        log_rank
        + xlogy(l - 1, gammainc(shape, u))
        + xlogy(n - l, gammaincc(shape, u))
        + (shape - 1) * np.log(u)
        - u
        - math.lgamma(shape)
        - math.log(scale)
    )


def _scan_window(axis, inside):
    """[first, last] of ``axis`` where ``inside`` holds, widened by one node."""
    idx = np.flatnonzero(inside)
    first, last = idx[0] - 1, idx[-1] + 1
    if first < 0 or last >= len(axis):
        return None
    return float(axis[first]), float(axis[last])


def op_oracle_2d(cfg: SystemConfig, user: int) -> float:
    """Reference outage value by direct 2-D integration on log axes.

    The outage region is the union of {ordered user gain y below its
    floor c} and, above the floor, {first-hop gain below the level
    ``need(y, z)`` forced by y and the loop-interference gain z}.  The
    head P(y <= c) is the binomial order-statistic CDF; the body
    E[P(g1 < need); y > c] is integrated over a = log(y - c) and
    b = log z, where its mass just above the floor and its slow
    power-law flanks become one smooth bump, by a tensor-product
    trapezoid rule of step 0.05.  The window holds every node of a
    coarse scan, anchored at the gain scales and at the first-hop
    transition near the floor, within e^-40 of the peak, plus one scan
    step per side; on it the rule converges exponentially.  The body is
    checked against the same rule on every other node: a disagreement
    above 1e-12 relative, or a window that reaches an end of the scan,
    raises :class:`NumericsError`.  No part of the closed form's
    expansion is shared.
    """
    dc = derive_constants(cfg)
    _check_user(dc, user)
    if not dc.feasible[user - 1]:
        return 1.0
    cfgc = dc.cfg
    l, L = user, cfgc.num_users
    m_ru, power_ru_est = uniform_ru(dc)
    k1 = cfgc.m_sr * cfgc.tx_antennas
    k2 = m_ru * cfgc.rx_antennas
    m_li = cfgc.m_li
    scale1 = dc.power_sr_est / cfgc.m_sr
    scale2 = power_ru_est / m_ru
    scale3 = dc.power_li / m_li
    g = dc.snr_lin
    t2 = float(dc.noise_ru[l - 1])
    t3, t4, t5 = dc.rhi_amp, dc.sr_derate, dc.noise_sr
    dmax = float(dc.demand_peak[l - 1])
    c = t2 * t3 * dmax

    head = _os_cdf_direct(c, l, L, k2, scale2)

    # The integrand factors into a row part in a = log(y - c), a column
    # part in b = log z and P(g1 < need); need / scale1 is the product of
    # a row and a column factor.  Each part is (log weight, log need factor).
    log_need0 = math.log(t3 * dmax / (g * scale1))

    def rows(a):
        y = c + np.exp(a)
        return a + _os_logpdf_direct(y, l, L, k2, scale2), np.log(y * g + t2) + log_need0 - a

    def cols(b):
        z = np.exp(b)
        return m_li * (b - math.log(scale3)) - z / scale3 - math.lgamma(m_li), np.log(z * g * t4 + t5)

    def phi(row, col):
        """log of the body's integrand in (a, b), rows by columns."""
        (w_row, n_row), (w_col, n_col) = row, col
        return w_row[:, None] + w_col + np.log(gammainc(k1, np.exp(n_row[:, None] + n_col)))

    # Anchors: the user-gain and loop-interference scales and, far left
    # of the former at high SNR, the distance above the floor at which
    # need(y, 0) falls to scale1 and the first-hop CDF leaves 1.
    left, right = _ORACLE_REACH
    log_scale2 = math.log(scale2)
    a_turn = math.log((c * g + t2) * t5) + log_need0
    a_scan = np.arange(min(a_turn, log_scale2) - left, log_scale2 + right, _ORACLE_SCAN_STEP)
    b_scan = np.arange(math.log(scale3) - left, math.log(scale3) + right, _ORACLE_SCAN_STEP)
    with np.errstate(divide="ignore"):
        scan = phi(rows(a_scan), cols(b_scan))
    top = scan.max()
    inside = scan >= top - 40.0
    win_a = _scan_window(a_scan, inside.any(axis=1))
    win_b = _scan_window(b_scan, inside.any(axis=0))
    if win_a is None or win_b is None:
        raise NumericsError(
            "oracle integrand not contained in the log-axis scan "
            f"(a = log(y - c) in [{a_scan[0]:g}, {a_scan[-1]:g}], "
            f"b = log z in [{b_scan[0]:g}, {b_scan[-1]:g}])"
        )

    def trapezoid(lo, hi):
        n = math.ceil((hi - lo) / _ORACLE_STEP)
        n += n % 2  # even count: the halved rule keeps both ends
        nodes = np.linspace(lo, hi, n + 1)
        weights = np.ones(n + 1)
        weights[[0, n]] = 0.5
        return nodes, weights, (hi - lo) / n

    a, wa, ha = trapezoid(*win_a)
    b, wb, hb = trapezoid(*win_b)
    row, col = rows(a), cols(b)
    fine = coarse = 0.0
    block = 64  # rows at a time, even: bounds the temporaries to a few MB
    with np.errstate(divide="ignore"):
        for i in range(0, len(a), block):
            s = slice(i, i + block)
            f = np.exp(phi(tuple(v[s] for v in row), col) - top)
            fine += float(wa[s] @ f @ wb)
            coarse += float(wa[s][::2] @ f[::2, ::2] @ wb[::2])
    fine *= ha * hb
    coarse *= 4.0 * ha * hb
    rel_err = abs(fine - coarse) / fine
    if not rel_err <= _ORACLE_REL_TOL:
        raise NumericsError(
            f"oracle body did not converge (step-halving relative error {rel_err:.2e})"
        )
    return min(head + math.exp(top) * fine, 1.0)


# -- closed-form lower bound ------------------------------------------------

def _relay_ratio_sf(x, dc: DerivedConstants):
    """Survival of W = snr*g1 / (snr*g3 + noise_sr/sr_derate), closed form.

    All terms are positive, so plain summation is stable.
    """
    cfg = dc.cfg
    k1 = cfg.m_sr * cfg.tx_antennas
    alpha1 = cfg.m_sr / dc.power_sr_est
    rho = cfg.m_li / dc.power_li
    v = dc.noise_sr / (dc.snr_lin * dc.sr_derate)
    if x <= 0.0:
        return 1.0
    lead = math.exp(-x * v * alpha1) if x * v * alpha1 < 745 else 0.0
    if lead == 0.0:
        return 0.0
    terms = []
    for n in range(k1):
        for n2 in range(n + 1):
            terms.append(
                math.comb(n, n2)
                * rho ** cfg.m_li
                * alpha1 ** n
                * math.exp(math.lgamma(n2 + cfg.m_li) - math.lgamma(n + 1) - math.lgamma(cfg.m_li))
                * v ** (n - n2)
                * x ** n
                * (x * alpha1 + rho) ** (-(n2 + cfg.m_li))
            )
    return lead * math.fsum(terms)


def op_lower_bound(cfg: SystemConfig, user: int) -> float:
    """Closed-form lower bound on the exact outage.

    The two-hop SIDNR is upper-bounded by the minimum of the per-hop
    ratios (the harmonic-mean property), whose survival factorizes into
    the relay-ratio survival and the ordered-gain survival.
    """
    dc = derive_constants(cfg)
    _check_user(dc, user)
    if not dc.feasible[user - 1]:
        return 1.0
    l, L = user, cfg.num_users
    m_ru, power_ru_est = uniform_ru(dc)
    k2 = m_ru * cfg.rx_antennas
    scale2 = power_ru_est / m_ru
    dmax = float(dc.demand_peak[l - 1])
    t2 = float(dc.noise_ru[l - 1])
    x_w = dc.snr_lin * dc.rhi_amp * dc.sr_derate * dmax
    s_w = _relay_ratio_sf(x_w, dc)
    s_2 = ordered_sf(t2 * dc.rhi_amp * dmax, l, L, k2, scale2)
    return min(max(1.0 - s_w * s_2, 0.0), 1.0)


# -- asymptotics ------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoteReport:
    """High-SNR characterization of a user's outage curve.

    ``regime`` is one of ``ideal`` (outage decays as
    ``(array_gain * snr) ** -diversity_order``), ``li_floor`` (loop
    interference scales with transmit power, outage saturates) or
    ``cee_floor`` (channel estimation errors dominate, outage
    saturates); ``infeasible`` marks a configuration whose outage is 1.
    In the ideal regime ``array_gain`` is the per-hop gain coefficient of
    the hop with the smaller diversity order; when the orders tie at d,
    the hops' asymptotes add, ``(chi1 * snr) ** -d + (chi2 * snr) ** -d``,
    so the gain is ``(chi1 ** -d + chi2 ** -d) ** (-1 / d)``.
    """

    user: int
    regime: str
    diversity_order: float
    array_gain: float | None
    floor_value: float | None

    def probability(self, snr_lin: float) -> float:
        """Asymptotic outage at the given linear average SNR."""
        if self.regime == "ideal":
            return min((self.array_gain * snr_lin) ** (-self.diversity_order), 1.0)
        return self.floor_value


def cee_floor(cfg: SystemConfig, user: int, *, snr_ref_db: float = 60.0) -> float:
    """Outage floor under channel estimation errors.

    At high SNR the effective noise terms grow linearly with power, so
    the exact expression stops depending on the SNR; it is evaluated at a
    large reference SNR with the noise terms replaced by their
    power-proportional parts (a hop with zero error variance keeps its
    exact noise term).
    """
    if cfg.sigma_e_sr_sq == 0.0 and cfg.sigma_e_ru_sq == 0.0:
        raise ValueError("cee_floor requires a non-zero estimation error variance")
    ref = replace(cfg, snr_db=snr_ref_db)
    dc = derive_constants(ref)
    g = dc.snr_lin
    noise_ru = dc.noise_ru
    noise_sr = dc.noise_sr
    if cfg.sigma_e_ru_sq > 0.0:
        noise_ru = np.full(cfg.num_users, g * cfg.sigma_e_ru_sq)
    if cfg.sigma_e_sr_sq > 0.0:
        noise_sr = g * cfg.sigma_e_sr_sq
    dc = replace(dc, noise_ru=noise_ru, noise_sr=noise_sr)
    return _op_exact(dc, user)


def op_asymptotic(cfg: SystemConfig, user: int) -> AsymptoteReport:
    """Diversity order, array gain and floor levels for ``user``.

    Independent of ``cfg.snr_db``: use :meth:`AsymptoteReport.probability`
    to evaluate the asymptotic curve at any SNR.
    """
    dc = derive_constants(cfg)
    _check_user(dc, user)
    l = user
    if not dc.feasible[l - 1]:
        return AsymptoteReport(
            user=l, regime="infeasible", diversity_order=0.0, array_gain=None,
            floor_value=1.0,
        )
    if cfg.sigma_e_sr_sq > 0.0 or cfg.sigma_e_ru_sq > 0.0:
        return AsymptoteReport(
            user=l, regime="cee_floor", diversity_order=0.0, array_gain=None,
            floor_value=cee_floor(cfg, l),
        )

    lam = float(dc.demand_peak[l - 1]) * dc.snr_lin  # SNR-free demand level
    hop2_amp = 1.0 + cfg.kappa_sr ** 2
    hop1_amp = 1.0 + cfg.kappa_ru ** 2
    m_ru, _ = uniform_ru(dc)
    k1 = cfg.m_sr * cfg.tx_antennas
    k2 = m_ru * cfg.rx_antennas

    if cfg.li_quality_mu == 1.0:
        # Loop interference grows with transmit power: the first hop
        # saturates and sets a floor shared by the whole curve.  The
        # residual interference power is SNR-free here (scale * snr**0).
        # g1/g3 is the relay ratio without its noise term; no estimation
        # error reaches this branch, so the estimated S-R power is the true one.
        x = hop1_amp * lam
        floor = 1.0 - _relay_ratio_sf(x, replace(dc, noise_sr=0.0))
        return AsymptoteReport(
            user=l, regime="li_floor", diversity_order=0.0, array_gain=None,
            floor_value=floor,
        )

    do1 = (1.0 - cfg.li_quality_mu) * k1
    do2 = k2 * l
    log_d1 = (
        math.lgamma(k1 + cfg.m_li)
        - math.lgamma(k1 + 1)
        - math.lgamma(cfg.m_li)
        + k1 * math.log(hop1_amp * lam * cfg.m_sr * cfg.li_scale_lambda / (dc.power_sr * cfg.m_li))
    )
    chi1 = math.exp(-log_d1 / do1)
    log_d2 = _log_comb(cfg.num_users, l) - l * math.lgamma(k2 + 1)
    chi2 = math.exp(-log_d2 / do2) * float(dc.power_ru[l - 1]) / (hop2_amp * lam * m_ru)
    if abs(do1 - do2) <= _TIE_TOL:
        # both hops decay at the same order: their asymptotes add
        do, ag = do1, (chi1 ** -do1 + chi2 ** -do1) ** (-1.0 / do1)
    elif do1 < do2:
        do, ag = do1, chi1
    else:
        do, ag = do2, chi2
    return AsymptoteReport(
        user=l, regime="ideal", diversity_order=do, array_gain=ag,
        floor_value=None,
    )

