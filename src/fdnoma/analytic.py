"""Closed-form and semi-closed-form outage probability.

Four routes to the same quantity, used to cross-validate each other:

* :func:`op_exact` - the closed-form expansion: the first-hop Gamma CDF
  and the loop-interference integral are reduced analytically, the
  ordered user-gain density is expanded in powers of its parent
  survival function (:func:`~fdnoma.specfun.order_weights`), each power
  through power-series coefficients, and what remains is a finite
  alternating sum of one-dimensional tail integrals
  (:func:`tail_weight_integral`), all evaluated at once by one
  vectorized trapezoid rule on a log axis.
* :func:`op_oracle_2d` - direct 2-D integration of the outage
  probability over (user gain above its floor, loop-interference gain)
  on log axes, by the same rule as a tensor product, started at step
  0.1 and halved, reusing every node, while its check fails (floor
  0.025).  Its head and densities come from the binomial order-statistic
  law in :mod:`~fdnoma.specfun`; it shares none of the closed form's
  expansion and is nearly assumption-free; the reference oracle.
* :func:`op_lower_bound` - fully closed form obtained by bounding the
  two-hop SIDNR by the smaller of the per-hop ratios.
* :func:`op_asymptotic` - high-SNR behavior: diversity order and array
  gain when the outage decays, explicit floor values when residual loop
  interference (full cancellation quality lost) or channel estimation
  errors dominate.

All four read one private view of user l's problem (:class:`_User`, from
:func:`_user_view`): the three Gamma links of
:func:`~fdnoma.config.gamma_laws` (MRT first hop, one ordered MRC user
gain, loop interference), the user's SIDNR constants and the outage
floor ``c`` of the ordered gain.  An infeasible user has no view (its
outage is 1); the closed forms need i.i.d. user gains, so unequal user
statistics raise :class:`~fdnoma.config.ConfigError`.

Both quadratures use one halving-checked log-axis trapezoid rule, written
once (:func:`_window`, :func:`_trapezoid`, :func:`_check_halving`).

The alternating sums are accumulated with exact compensated summation
(``math.fsum``) after scaling by the largest term, and the evaluation
reports catastrophic cancellation instead of returning digits it cannot
back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gammainc

from .config import ConfigError, DerivedConstants, SystemConfig, derive_constants, gamma_laws
from .specfun import multinomial_coeffs, order_weights, ordered_cdf, ordered_logpdf, ordered_sf

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


class NumericsError(RuntimeError):
    """Quadrature non-convergence or catastrophic cancellation."""


class _User(NamedTuple):
    """User ``l`` of ``L``: link shapes ``k*`` and scales ``s*`` (first hop,
    user gain, loop interference), the linear SNR ``g``, the SIDNR
    constants ``t2`` (user noise), ``t3`` (distortion amplification),
    ``t4`` (loop-interference de-rating), ``t5`` (relay noise) and the
    peak demand ``dmax``."""

    l: int
    L: int
    k1: int
    k2: int
    k3: int
    s1: float
    s2: float
    s3: float
    g: float
    t2: float
    t3: float
    t4: float
    t5: float
    dmax: float

    @property
    def c(self) -> float:
        return self.t2 * self.t3 * self.dmax


def _user_view(dc: DerivedConstants, user: int) -> _User | None:
    """The view of ``user``, or None when a decode stage of it is infeasible."""
    L = dc.cfg.num_users
    if not 1 <= user <= L:
        raise ValueError(f"user must lie in 1..{L}")
    if not dc.feasible[user - 1]:
        return None
    (k1, k2, k3), (s1, s2, s3) = gamma_laws(dc)
    if len(set(k2)) > 1 or len(set(s2)) > 1:
        raise ConfigError("analytic outage requires identical fading shape and distance for all users")
    return _User(
        user, L, k1, k2[0], k3, s1, s2[0], s3, dc.snr_lin, float(dc.noise_ru[user - 1]),
        dc.rhi_amp, dc.sr_derate, dc.noise_sr, float(dc.demand_peak[user - 1]),
    )


# -- the log-axis trapezoid rule --------------------------------------------

# Relative step-halving tolerance of every log-axis rule; op_exact's
# cancellation guard scales its error estimate by it.
_REL_TOL = 1e-12


def _window(scan, phi, name):
    """Per row of ``phi`` (a log integrand on the nodes ``scan``), the window
    [lo, hi] of every node within e^-40 of the row's peak, widened by one
    node per side: all but ~e^-40 of the mass of a concave phi.  A window
    at an end of the scan raises :class:`NumericsError`, naming row i by
    ``name(i)``."""
    inside = phi >= phi.max(axis=1, keepdims=True) - 40.0
    first = np.argmax(inside, axis=1) - 1
    last = len(scan) - np.argmax(inside[:, ::-1], axis=1)
    bad = np.flatnonzero((first < 0) | (last >= len(scan)))
    if len(bad):
        raise NumericsError(f"{name(bad[0])} not contained in the log-axis scan [{scan[0]:g}, {scan[-1]:g}]")
    return scan[first], scan[last]


def _trapezoid(lo, hi, step, min_intervals):
    """One trapezoid rule per window [lo, hi]: the steps and the end-halved
    weights.  The interval count is even, so the rule on every other node
    (the halving check) keeps both ends; it is shared by every window and
    set by the widest one, with steps of at most ``step``."""
    n = max(min_intervals, math.ceil((hi - lo).max() / step))
    n += n % 2
    weights = np.ones(n + 1)
    weights[0] = weights[n] = 0.5
    return (hi - lo) / n, weights


def _check_halving(fine, coarse, name):
    """Raise :class:`NumericsError` where a rule (``fine``) and the same rule
    on every other node (``coarse``) differ by more than ``_REL_TOL``
    relative; ``name(i)`` names element i."""
    rel_err = np.abs(fine - coarse) / fine
    worst = int(np.argmax(rel_err))
    if not rel_err[worst] <= _REL_TOL:
        raise NumericsError(f"{name(worst)} did not converge (step-halving relative error {rel_err[worst]:.2e})")


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
    linear term minus convex ones), so :func:`_window` on a fixed scan
    grid of step 0.125 finds where its mass lies.  On that window the
    trapezoid rule converges exponentially in the number of nodes
    (Trefethen & Weideman, SIAM Rev. 2014); one node count, at least 128
    and set by the widest window, serves every row, each row is summed
    scaled by its largest node and checked by :func:`_check_halving`.
    """
    ws = np.linspace(-60.0, 45.0, 841)  # scan grid, step 0.125
    block = 16  # rows at a time: bounds the temporaries to ~0.5 MB
    rows = np.broadcast_arrays(
        *(np.reshape(np.asarray(a, dtype=float), (-1, 1)) for a in (p, rate, inv_rate, shift, shift_power))
    )
    names = ("p", "rate", "inv_rate", "shift", "shift_power")
    name = lambda i: "tail integral (" + ", ".join(f"{k}={a[i, 0]:g}" for k, a in zip(names, rows)) + ")"
    blocks = [slice(i, i + block) for i in range(0, len(rows[0]), block)]
    lo, hi, top, fine, coarse = np.empty((5, len(rows[0])))
    for b in blocks:
        phi = _tail_exponent(ws, *(a[b] for a in rows))
        lo[b], hi[b] = _window(ws, phi, lambda i: name(b.start + i))
    h, weights = _trapezoid(lo, hi, 0.1, 128)
    nodes = np.arange(len(weights))
    for b in blocks:
        phi = _tail_exponent(lo[b, None] + h[b, None] * nodes, *(a[b] for a in rows))
        top[b] = phi.max(axis=1)
        f = np.exp(phi - top[b, None])
        f[:, [0, -1]] *= 0.5  # trapezoid end weights, shared by the halved rule
        fine[b] = h[b] * f.sum(axis=1)
        coarse[b] = 2.0 * h[b] * f[:, ::2].sum(axis=1)
    _check_halving(fine, coarse, name)
    return top + np.log(fine)


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
    when ``shift == 0``).  One row of the closed form's kernel, the
    log-axis rule :func:`op_oracle_2d` shares: raises :class:`NumericsError`
    when its step-halving check fails (relative tolerance 1e-12) or the
    integrand leaves the scanned range (x in [e^-60, e^45]).
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


def _success_probability(view: _User):
    """Complement of the outage: the alternating finite sum, returned as
    (value, largest term magnitude)."""
    l, L, k1, k2, k3, s1, s2, s3, g, t2, t3, t4, t5, dmax = view
    beta, alpha1, rho = 1.0 / s2, 1.0 / s1, 1.0 / s3
    c = view.c                           # ordered-gain floor of the outage region
    e_big = t3 * t5 * dmax * alpha1      # first-hop exponential weight
    u = c + t2 / g
    q = e_big * u                        # exp(-q/x) weight inside the tail integral
    g_d = g * t3 * t4 * dmax * alpha1    # loop-interference coupling
    shift = g_d * u / (g_d + rho)

    tab = _term_table(k1, k2, L, l, k3)
    log_c, log_u = math.log(c), math.log(u)
    log_beta = math.log(beta)
    log_g45 = math.log(g * t4 / t5)
    log_e = math.log(e_big)
    log_gd_rho = math.log(g_d + rho)
    scalar = k3 * math.log(rho) - e_big

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


def _op_exact(view: _User | None) -> float:
    """Exact outage probability of one user view (1 for None)."""
    if view is None:
        return 1.0
    success, peak = _success_probability(view)
    op = 1.0 - success
    if success > 1.001:
        raise NumericsError(f"success probability evaluated to {success!r}")
    # The sum itself is exactly rounded; what limits the result is the
    # per-term evaluation error (dominated by the tail-integral
    # tolerance) amplified by cancellation against the leading 1.
    err_est = peak * _REL_TOL
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
    return _op_exact(_user_view(derive_constants(cfg), user))


# -- 2-D log-axis oracle ----------------------------------------------------

# Start step on both log axes of the oracle and how often a failed
# halving check may halve it (floor 0.1 / 4 = 0.025), the step of the
# scan that picks its window, and how far the scan reaches beyond the data
# anchors (below the leftmost anchor, above the rightmost one).
_ORACLE_STEP = 0.1
_ORACLE_HALVINGS = 2
_ORACLE_SCAN_STEP = 0.25
_ORACLE_REACH = (50.0, 8.0)


def op_oracle_2d(cfg: SystemConfig, user: int) -> float:
    """Reference outage value by direct 2-D integration on log axes.

    The outage region is the union of {ordered user gain y below its
    floor c} and, above the floor, {first-hop gain below the level
    ``need(y, z)`` forced by y and the loop-interference gain z}.  The
    head P(y <= c) is :func:`~fdnoma.specfun.ordered_cdf`, and the
    densities of y and z are :func:`~fdnoma.specfun.ordered_logpdf` (z
    as the single "order statistic" of one gain); the body
    E[P(g1 < need); y > c] is integrated over a = log(y - c) and
    b = log z, where its mass just above the floor and its slow
    power-law flanks become one smooth bump.  The rule is the closed
    form's tail-integral rule in two dimensions: a tensor-product
    trapezoid over the window of the bump's peak profile along each
    axis, from a coarse scan anchored at the gain scales and at the
    first-hop transition near the floor, with the same step-halving
    check at 1e-12 relative.  It starts at step 0.1 on both axes; while
    the check fails it halves both steps, down to a floor of 0.025, and
    evaluates only the new nodes (the rule is nested, so every old node
    is reused).  A check that still fails at the floor, or a window that
    reaches an end of the scan, raises :class:`NumericsError`.  None of
    the closed form's expansion is shared.
    """
    view = _user_view(derive_constants(cfg), user)
    if view is None:
        return 1.0
    l, L, k1, k2, k3, scale1, scale2, scale3, g, t2, t3, t4, t5, dmax = view
    c = view.c

    head = ordered_cdf(c, l, L, k2, scale2)

    # The integrand factors into a row part in a = log(y - c), a column
    # part in b = log z and P(g1 < need); need / scale1 is the product of
    # a row and a column factor.  Each part is (log weight, log need factor).
    log_need0 = math.log(t3 * dmax / (g * scale1))

    def rows(a):
        y = c + np.exp(a)
        return a + ordered_logpdf(y, l, L, k2, scale2), np.log(y * g + t2) + log_need0 - a

    def cols(b):
        z = np.exp(b)
        return b + ordered_logpdf(z, 1, 1, k3, scale3), np.log(z * g * t4 + t5)

    def phi(row, col):
        """log of the body's integrand in (a, b), rows by columns."""
        (w_row, n_row), (w_col, n_col) = row, col
        return w_row[:, None] + w_col + np.log(gammainc(k1, np.exp(n_row[:, None] + n_col)))

    def grid_sum(a, wa, b, wb):
        """sum of wa_i wb_j exp(phi(a_i, b_j) - top) over the grid a by b."""
        row, col = rows(a), cols(b)
        total = 0.0
        block = 64  # rows at a time: bounds the temporaries to a few MB
        with np.errstate(divide="ignore"):
            for i in range(0, len(a), block):
                s = slice(i, i + block)
                total += float(wa[s] @ np.exp(phi(tuple(v[s] for v in row), col) - top) @ wb)
        return total

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
    lo_a, hi_a = _window(a_scan, scan.max(axis=1)[None], lambda i: "oracle integrand in a = log(y - c)")
    ha, wa = _trapezoid(lo_a, hi_a, _ORACLE_STEP, 2)
    lo_b, hi_b = _window(b_scan, scan.max(axis=0)[None], lambda i: "oracle integrand in b = log z")
    hb, wb = _trapezoid(lo_b, hi_b, _ORACLE_STEP, 2)
    a, b = lo_a + ha * np.arange(len(wa)), lo_b + hb * np.arange(len(wb))
    # The rule on every other node, then per level its new nodes: the odd
    # rows, and the even rows at the odd columns.  The even nodes of a
    # halved grid are the old nodes, bit for bit (halving is exact).
    coarse_sum = grid_sum(a[::2], wa[::2], b[::2], wb[::2])
    for level in range(_ORACLE_HALVINGS + 1):
        fine_sum = (coarse_sum + grid_sum(a[1::2], wa[1::2], b, wb)
                    + grid_sum(a[::2], wa[::2], b[1::2], wb[1::2]))
        try:
            _check_halving(ha * hb * fine_sum, 4.0 * ha * hb * coarse_sum, lambda i: "oracle body")
            break
        except NumericsError:
            if level == _ORACLE_HALVINGS:
                raise
        coarse_sum, ha, hb = fine_sum, ha / 2, hb / 2
        wa, wb = (np.r_[0.5, np.ones(2 * len(w) - 3), 0.5] for w in (wa, wb))
        a, b = lo_a + ha * np.arange(len(wa)), lo_b + hb * np.arange(len(wb))
    return float(min(head + math.exp(top) * ha[0] * hb[0] * fine_sum, 1.0))


# -- closed-form lower bound ------------------------------------------------

def _relay_ratio_sf(x, view: _User, v: float):
    """Survival of W = g1 / (g3 + v) at ``x``, closed form, for the first-hop
    and loop-interference laws of ``view`` and the relay noise share ``v``.

    All terms are positive, so plain summation is stable.
    """
    k1, k3, alpha1, rho = view.k1, view.k3, 1.0 / view.s1, 1.0 / view.s3
    if x <= 0.0:
        return 1.0
    lead = math.exp(-x * v * alpha1) if x * v * alpha1 < 745 else 0.0
    if lead == 0.0:
        return 0.0
    return lead * math.fsum(
        math.comb(n, n2) * rho ** k3 * alpha1 ** n
        * math.exp(math.lgamma(n2 + k3) - math.lgamma(n + 1) - math.lgamma(k3))
        * v ** (n - n2) * x ** n * (x * alpha1 + rho) ** (-(n2 + k3))
        for n in range(k1) for n2 in range(n + 1)
    )


def op_lower_bound(cfg: SystemConfig, user: int) -> float:
    """Closed-form lower bound on the exact outage.

    The two-hop SIDNR is upper-bounded by the minimum of the per-hop
    ratios (the harmonic-mean property), whose survival factorizes into
    the relay-ratio survival and the ordered-gain survival.
    """
    view = _user_view(derive_constants(cfg), user)
    if view is None:
        return 1.0
    x_w = view.g * view.t3 * view.t4 * view.dmax
    s_w = _relay_ratio_sf(x_w, view, view.t5 / (view.g * view.t4))
    s_2 = ordered_sf(view.c, view.l, view.L, view.k2, view.s2)
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
    view = _user_view(derive_constants(replace(cfg, snr_db=snr_ref_db)), user)
    if view is not None and cfg.sigma_e_ru_sq > 0.0:
        view = view._replace(t2=view.g * cfg.sigma_e_ru_sq)
    if view is not None and cfg.sigma_e_sr_sq > 0.0:
        view = view._replace(t5=view.g * cfg.sigma_e_sr_sq)
    return _op_exact(view)


def op_asymptotic(cfg: SystemConfig, user: int) -> AsymptoteReport:
    """Diversity order, array gain and floor levels for ``user``.

    Independent of ``cfg.snr_db``: use :meth:`AsymptoteReport.probability`
    to evaluate the asymptotic curve at any SNR.
    """
    view = _user_view(derive_constants(cfg), user)
    if view is None:
        return AsymptoteReport(
            user=user, regime="infeasible", diversity_order=0.0, array_gain=None,
            floor_value=1.0,
        )
    l, k1, k2, k3 = view.l, view.k1, view.k2, view.k3
    if cfg.sigma_e_sr_sq > 0.0 or cfg.sigma_e_ru_sq > 0.0:
        return AsymptoteReport(
            user=l, regime="cee_floor", diversity_order=0.0, array_gain=None,
            floor_value=cee_floor(cfg, l),
        )

    lam = view.dmax * view.g  # SNR-free demand level
    hop2_amp = 1.0 + cfg.kappa_sr ** 2
    hop1_amp = 1.0 + cfg.kappa_ru ** 2

    if cfg.li_quality_mu == 1.0:
        # Loop interference grows with transmit power: the first hop
        # saturates and sets a floor shared by the whole curve.  The
        # residual interference power is SNR-free here (scale * snr**0),
        # so the relay noise share of W vanishes; no estimation error
        # reaches this branch, so the estimated S-R power is the true one.
        floor = 1.0 - _relay_ratio_sf(hop1_amp * lam, view, 0.0)
        return AsymptoteReport(
            user=l, regime="li_floor", diversity_order=0.0, array_gain=None,
            floor_value=floor,
        )

    do1 = (1.0 - cfg.li_quality_mu) * k1
    do2 = k2 * l
    # E[X**k1] of the SNR-free loop interference X ~ Gamma(k3, lambda / k3);
    # at mu = 0, X meets the relay noise at one order: E[(X + 1)**k1].
    lam_li = cfg.li_scale_lambda
    log_d1 = (
        math.lgamma(k1 + k3) - math.lgamma(k1 + 1) - math.lgamma(k3)
        + k1 * math.log(hop1_amp * lam * lam_li / (view.s1 * k3))
    )
    if cfg.li_quality_mu == 0.0:
        log_d1 += math.log(math.fsum(
            math.comb(k1, i) * (k3 / lam_li) ** (k1 - i)
            * math.exp(math.lgamma(k3 + i) - math.lgamma(k3 + k1))
            for i in range(k1 + 1)
        ))
    chi1 = math.exp(-log_d1 / do1)
    log_d2 = _log_comb(view.L, l) - l * math.lgamma(k2 + 1)
    chi2 = math.exp(-log_d2 / do2) * view.s2 / (hop2_amp * lam)
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
