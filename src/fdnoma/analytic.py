"""Closed-form and semi-closed-form outage probability.

Four routes to the same quantity, used to cross-validate each other:

* :func:`op_exact` - head plus a one-dimensional body.  The head is
  P(y <= c), the ordered user gain y below its outage floor c
  (:func:`~fdnoma.specfun.ordered_cdf`).  Above the floor the outage
  needs the first-hop gain below a level ``A(y) * (B*z + t5)`` set by y
  and the loop-interference gain z; averaged over z in closed form this
  is :func:`_relay_cdf`, a finite sum of positive terms (a Poisson count
  whose mean is Gamma-distributed is negative binomial; Greenwood & Yule,
  J. R. Stat. Soc. 83, 1920).  The body is one integral over
  a = log(y - c) of the ordered density times that kernel, by the
  halving-checked log-axis trapezoid rule.
* :func:`op_oracle_2d` - the same head and the same a-axis, with z
  integrated numerically instead: a tensor-product trapezoid over a and
  b = log z, started at step 0.1 and halved, reusing every node, while
  its check fails (floor 0.025); the reference oracle.
* :func:`op_lower_bound` - the two-hop SIDNR bounded by the smaller of
  the per-hop ratios: the same kernel at one point, and the head.
* :func:`op_asymptotic` - high-SNR behavior: diversity order and array
  gain when the outage decays, explicit floor values when residual loop
  interference (full cancellation quality lost; the kernel without relay
  noise) or channel estimation errors dominate.

:func:`op_exact` and :func:`op_oracle_2d` share the head,
:func:`~fdnoma.specfun.ordered_logpdf`, the a-axis (:func:`_a_axis`) and
the rule; they differ in the z average, closed form against numeric.
So the shared parts are judged by references that share no code with
them (mpmath for the kernel and the order-statistic law, pinned
deep-tail values), and Monte Carlo is the only fully independent route.

All four read one private view of user l's problem (:class:`_User`, from
:func:`_user_view`): the three Gamma links of
:func:`~fdnoma.config.gamma_laws` (MRT first hop, one ordered MRC user
gain, loop interference), the user's SIDNR constants and the outage
floor ``c`` of the ordered gain.  An infeasible user has no view (its
outage is 1); the closed forms need i.i.d. user gains, so unequal user
statistics raise :class:`~fdnoma.config.ConfigError`.

Every quadrature uses one halving-checked log-axis trapezoid rule, written
once (:func:`_window`, :func:`_trapezoid`, :func:`_check_halving`), and
raises :class:`NumericsError` rather than return a value it cannot back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.special import betainc, gammainc, gammaln, xlogy

from .config import ConfigError, DerivedConstants, SystemConfig, derive_constants, gamma_laws
from .specfun import ordered_cdf, ordered_logpdf

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
    """A quadrature whose window or step-halving check fails."""


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

# Relative step-halving tolerance of every log-axis rule.
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
    when ``shift == 0``).  One row of the log-axis rule: raises
    :class:`NumericsError` when its step-halving check fails (relative
    tolerance 1e-12) or the integrand leaves the scanned range
    (x in [e^-60, e^45]).

    No code in ``src/`` calls it.  It is kept because the benchmark's
    layer run (``bench/workloads.py``) and its CI smoke step time it, and
    it goes with ROADMAP item 1, which redefines those metrics.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if inv_rate < 0 or shift < 0:
        raise ValueError("inv_rate and shift must be non-negative")
    return math.exp(_log_tail_weights(power, rate, inv_rate, shift, shift_power)[0])


# -- the relay kernel and the exact outage -----------------------------------

def _relay_cdf(k1: int, k3: int, theta, mean):
    """P(g1 < A*(B*z + t5)) averaged over z, for g1 ~ Gamma(k1, s1) and
    z ~ Gamma(k3, s3), with ``theta = A*B*s3/s1`` and ``mean = A*t5/s1``
    (arrays broadcast against each other).

    Given z, g1 < x is a Poisson(x/s1) count reaching k1; averaged over z
    the count is N1 + N2, N1 ~ Poisson(mean) and N2 ~ NegBin(k3, u) with
    u = theta / (1 + theta).  So the kernel is P(N1 + N2 >= k1) =
    sum_{j<k1} P(N2 = j) P(k1 - j, mean) + I_u(k1, k3), a finite sum of
    positive terms.  The negative-binomial pmf is taken in log space
    through log1p(theta), so 1 - u is never formed.
    """
    theta, mean = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(mean, dtype=float))
    j = np.arange(k1).reshape((-1,) + (1,) * theta.ndim)
    log_nb = (gammaln(j + k3) - gammaln(k3) - gammaln(j + 1)
              + xlogy(j, theta) - (j + k3) * np.log1p(theta))
    return (np.exp(log_nb) * gammainc(k1 - j, mean)).sum(axis=0) + betainc(k1, k3, theta / (1.0 + theta))


# Step of the exact outage's trapezoid rule on the a-axis, the step of the
# scan that picks the window of both body rules, and how far the scan
# reaches beyond the data anchors (below the leftmost anchor, above the
# rightmost one).
_EXACT_STEP = 0.05
_ORACLE_SCAN_STEP = 0.25
_ORACLE_REACH = (50.0, 8.0)


def _a_axis(view: _User):
    """The axis a = log(y - c) of the outage body above the floor c, shared
    by :func:`op_exact` and :func:`op_oracle_2d`: the scan nodes that pick
    its window and ``rows(a)``, which gives (log weight, log need factor)
    per node.  The log weight is a + log f(y) for the ordered density f,
    and g1 < need(y, z) reads g1 / s1 < exp(log need factor) * (g*t4*z + t5).

    The scan is anchored at the user-gain scale and, far left of it at
    high SNR, at the distance above the floor where need(y, 0) falls to s1
    and the first-hop CDF leaves 1.
    """
    l, L, k1, k2, k3, s1, s2, s3, g, t2, t3, t4, t5, dmax = view
    c = view.c
    log_need0 = math.log(t3 * dmax / (g * s1))

    def rows(a):
        y = c + np.exp(a)
        return a + ordered_logpdf(y, l, L, k2, s2), np.log(y * g + t2) + log_need0 - a

    left, right = _ORACLE_REACH
    log_s2 = math.log(s2)
    a_turn = math.log((c * g + t2) * t5) + log_need0
    return np.arange(min(a_turn, log_s2) - left, log_s2 + right, _ORACLE_SCAN_STEP), rows


def _op_exact(view: _User | None) -> float:
    """Exact outage probability of one user view (1 for None): the head
    P(y <= c) plus the body, the integral over a = log(y - c) of the
    ordered density times :func:`_relay_cdf`, by the trapezoid rule at
    step ``_EXACT_STEP`` on the window of :func:`_a_axis`'s scan and
    checked against the rule on every other node."""
    if view is None:
        return 1.0
    head = ordered_cdf(view.c, view.l, view.L, view.k2, view.s2)
    a_scan, rows = _a_axis(view)

    def phi(a):
        log_w, log_need = rows(a)
        r = np.exp(log_need)
        with np.errstate(divide="ignore"):
            return log_w + np.log(_relay_cdf(view.k1, view.k3, r * view.g * view.t4 * view.s3, r * view.t5))

    name = lambda i: "exact body in a = log(y - c)"
    lo, hi = _window(a_scan, phi(a_scan)[None], name)
    h, weights = _trapezoid(lo, hi, _EXACT_STEP, 2)
    body = phi(lo + h * np.arange(len(weights)))
    top = body.max()
    f = weights * np.exp(body - top)
    fine, coarse = h * f.sum(), 2.0 * h * f[::2].sum()
    _check_halving(fine, coarse, name)
    return float(min(head + math.exp(top) * fine[0], 1.0))


def op_exact(cfg: SystemConfig, user: int) -> float:
    """Exact per-user outage probability (head plus a 1-D body over the
    closed-form relay kernel).

    Returns 1 outright when any decode stage of ``user`` is infeasible.
    """
    return _op_exact(_user_view(derive_constants(cfg), user))


# -- 2-D log-axis oracle ----------------------------------------------------

# Start step on both log axes of the oracle and how often a failed
# halving check may halve it (floor 0.1 / 4 = 0.025).
_ORACLE_STEP = 0.1
_ORACLE_HALVINGS = 2


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
    power-law flanks become one smooth bump.  The rule is the log-axis
    trapezoid of :func:`op_exact` in two dimensions: a tensor-product
    trapezoid over the window of the bump's peak profile along each
    axis, from a coarse scan anchored at the gain scales and at the
    first-hop transition near the floor (the a scan is
    :func:`_a_axis`), with the same step-halving check at 1e-12
    relative.  It starts at step 0.1 on both axes; while the check fails
    it halves both steps, down to a floor of 0.025, and evaluates only
    the new nodes (the rule is nested, so every old node is reused).  A
    check that still fails at the floor, or a window that reaches an end
    of the scan, raises :class:`NumericsError`.  The z average, which
    :func:`op_exact` takes in closed form, is numeric here.
    """
    view = _user_view(derive_constants(cfg), user)
    if view is None:
        return 1.0
    k1, k3, scale3, g, t4, t5 = view.k1, view.k3, view.s3, view.g, view.t4, view.t5
    head = ordered_cdf(view.c, view.l, view.L, view.k2, view.s2)

    # The integrand factors into a row part in a = log(y - c), a column
    # part in b = log z and P(g1 < need); need / s1 is the product of
    # a row and a column factor.  Each part is (log weight, log need factor).
    a_scan, rows = _a_axis(view)

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

    # The b scan is anchored at the loop-interference scale.
    left, right = _ORACLE_REACH
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

def op_lower_bound(cfg: SystemConfig, user: int) -> float:
    """Closed-form lower bound on the exact outage.

    The two-hop SIDNR is upper-bounded by the minimum of the per-hop
    ratios (the harmonic-mean property), whose survival factorizes into
    the relay-ratio survival and the ordered-gain survival.  The bound is
    written from the two CDFs, F_W + F_2 - F_W*F_2, so that it keeps
    relative accuracy when both are small: F_W = P(g1 < x_w*(g3 + v)) is
    :func:`_relay_cdf`, and F_2 is the head of :func:`op_exact`.
    """
    view = _user_view(derive_constants(cfg), user)
    if view is None:
        return 1.0
    x_w = view.g * view.t3 * view.t4 * view.dmax
    v = view.t5 / (view.g * view.t4)
    f_w = float(_relay_cdf(view.k1, view.k3, x_w * view.s3 / view.s1, x_w * v / view.s1))
    f_2 = ordered_cdf(view.c, view.l, view.L, view.k2, view.s2)
    return min(f_w + f_2 - f_w * f_2, 1.0)


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
        floor = float(_relay_cdf(k1, k3, hop1_amp * lam * view.s3 / view.s1, 0.0))
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
    log_d2 = (math.lgamma(view.L + 1) - math.lgamma(l + 1) - math.lgamma(view.L - l + 1)
              - l * math.lgamma(k2 + 1))
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
