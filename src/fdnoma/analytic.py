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
  log-axis rule on a scan at step 0.25 (floor 0.03125).
* :func:`op_oracle_2d` - the same outage with the order swapped: given
  z and the first-hop gain g1, the user is in outage when g1 is below a
  level K set by z, else when y is below a level y* set by both, so the
  outage is P(g1 <= K) averaged over b = log z plus the ordered CDF at y*
  averaged over b and r = log((g1 - K)/K), each by the log-axis rule on
  a scan at step 0.2 (floor 0.025); the reference oracle.
* :func:`op_lower_bound` - the two-hop SIDNR bounded by the smaller of
  the per-hop ratios: the same kernel at one point, and the head.
* :func:`op_asymptotic` - high-SNR behavior: diversity order and array
  gain when the outage decays; when residual loop interference (full
  cancellation quality lost) or channel estimation errors floor it, the
  floor is the user view at SNR -> inf, evaluated as an outage.

:func:`op_exact` and :func:`op_oracle_2d` share only the view, the
ordered CDF and the rule: the oracle reads neither the relay kernel nor
the ordered density, and no axis of one is an axis of the other.  Its
term over z alone is the lower bound's first-hop CDF, so it also judges
the kernel at one point.  The shared parts are judged by references that
share no code with them (mpmath for the kernel and the order-statistic
law, pinned deep-tail values), and Monte Carlo is the only fully
independent route.

All four read one private view of user l's problem (:class:`_User`, from
:func:`_user_view`): the three Gamma links of
:func:`~fdnoma.config.gamma_laws` (MRT first hop, one ordered MRC user
gain, loop interference), the user's SIDNR constants, written free of
the SNR except for the noise terms and the loop-interference scale, and
the outage floor ``c`` of the ordered gain, and the four settings the
asymptote reads.  A view is the whole problem: each public route derives
once and calls its private route on the view (``_op_exact``,
``_op_lower_bound``, ``_op_asymptotic``), as the CLI does on the views of
one derivation per grid point.  An infeasible user has no view (its
outage is 1); the closed forms need i.i.d. user gains, so unequal user
statistics raise :class:`~fdnoma.config.ConfigError`.

Every quadrature, the exact body, :func:`tail_weight_integral` and the
oracle's two terms, is one nested log-axis trapezoid rule,
:func:`_scan_rule`: it starts on the scan nodes inside a window
(:func:`_window`) and halves the step, evaluating only the new nodes,
while it differs from the rule on every other node by more than 1e-12
relative, at most three times.  It raises :class:`NumericsError` rather
than return a value it cannot back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc, gammainc, gammaln, xlogy

from .config import ConfigError, DerivedConstants, SystemConfig, _check_int, derive_constants, gamma_laws
from .specfun import ordered_cdf, ordered_logpdf

__all__ = [
    "NumericsError",
    "AsymptoteReport",
    "op_exact",
    "op_oracle_2d",
    "op_lower_bound",
    "op_asymptotic",
    "tail_weight_integral",
]

_TIE_TOL = 1e-9


class NumericsError(RuntimeError):
    """A quadrature whose window or step-halving check fails."""


class _User(NamedTuple):
    """User ``l`` of ``L``, in SNR-free constants: link shapes ``k*`` and
    scales ``s*`` (first hop, user gain, loop interference), the SIDNR
    constants ``t2`` (user noise over the SNR), ``t3`` (distortion
    amplification), ``t4`` (loop-interference de-rating), ``t5`` (relay
    noise over the SNR) and ``D``, the SNR times the peak demand (its
    threshold over its margin).  Given y and z the outage needs
    g1 / s1 < (y + t2) * t3 * D * (t4*z + t5) / (s1 * (y - c)) above the
    floor c; the SNR enters only through ``t2``, ``t5`` and ``s3``.  The
    asymptote also reads the config's ``li_quality_mu``, ``li_scale_lambda``
    and ``sigma_e_*_sq`` as ``mu``, ``lam_li``, ``e_sr`` and ``e_ru``."""

    l: int
    L: int
    k1: int
    k2: int
    k3: int
    s1: float
    s2: float
    s3: float
    t2: float
    t3: float
    t4: float
    t5: float
    D: float
    mu: float
    lam_li: float
    e_sr: float
    e_ru: float

    @property
    def c(self) -> float:
        return self.t2 * self.t3 * self.D


def _user_view(dc: DerivedConstants, user: int) -> _User | None:
    """The view of ``user``, or None when a decode stage of it is infeasible."""
    L, user = dc.cfg.num_users, _check_int("user", user, 1, dc.cfg.num_users)
    if not dc.feasible[user - 1]:
        return None
    (k1, k2, k3), (s1, s2, s3) = gamma_laws(dc)
    if len(set(k2)) > 1 or len(set(s2)) > 1:
        raise ConfigError("analytic outage requires identical fading shape and distance for all users")
    g = dc.snr_lin
    return _User(
        user, L, k1, k2[0], k3, s1, s2[0], s3, float(dc.noise_ru[user - 1]) / g,
        dc.rhi_amp, dc.sr_derate, dc.noise_sr / g, float(dc.demand_peak[user - 1]) * g,
        dc.cfg.li_quality_mu, dc.cfg.li_scale_lambda, dc.cfg.sigma_e_sr_sq, dc.cfg.sigma_e_ru_sq,
    )


# -- the log-axis trapezoid rule --------------------------------------------

# Relative step-halving tolerance of every log-axis rule, how often a rule
# may halve its scan step while its check fails (floor: the scan step / 8),
# and how many nodes of a log integrand it evaluates at a time (which
# bounds the temporaries of a two-axis rule to a few MB).
_REL_TOL = 1e-12
_HALVINGS = 3
_BLOCK_NODES = 1 << 15


def _window(scan, phi, name):
    """The indices (first, last) of the window of ``phi``, a log integrand
    (or its max-profile) on the nodes ``scan``: every node within e^-40 of
    the peak, widened by one node per side, which holds all but ~e^-40 of
    the mass of a concave phi, and by one more node when the interval
    count is odd, so that the rule on every other node keeps both ends.  A
    window at or past an end of the scan (or an all-NaN phi) raises
    :class:`NumericsError`, naming the integrand ``name``."""
    inside = phi >= phi.max() - 40.0
    first = np.argmax(inside) - 1
    last = len(scan) - np.argmax(inside[::-1])
    last += (last - first) % 2
    if first < 0 or last >= len(scan):
        raise NumericsError(f"{name} not contained in the log-axis scan [{scan[0]:g}, {scan[-1]:g}]")
    return first, last


_EVEN, _ODD, _ALL = slice(None, None, 2), slice(1, None, 2), slice(None)


def _sum(f, cut):
    """The trapezoid sum of the values ``f`` on the nodes ``cut`` of a grid,
    axis by axis from the last: a plain sum along an axis cut to its odd
    nodes (which hold no end), else the sum with both end nodes halved."""
    for c in reversed(cut):
        f = f.sum(axis=-1) if c is _ODD else 0.5 * (f[..., 0] + f[..., -1]) + f[..., 1:-1].sum(axis=-1)
    return f


def _blocks(phi, nodes):
    """``phi`` on the open grid of the node arrays ``nodes``, in blocks along
    axis 0 of at most ``_BLOCK_NODES`` nodes (one row at least)."""
    rows = max(1, _BLOCK_NODES // math.prod(map(len, nodes[1:])))
    return (phi(nodes[0][i:i + rows], *nodes[1:]) for i in range(0, len(nodes[0]), rows))


def _grid_sum(phi, nodes, cut, top):
    """:func:`_sum` of exp(phi - top) on the nodes ``cut`` of the grid
    ``nodes``, by blocks along axis 0, each reduced along its other axes."""
    rows = [_sum(np.exp(v - top), cut[1:]) for v in _blocks(phi, [x[c] for x, c in zip(nodes, cut)])]
    return _sum(np.concatenate(rows), cut[:1])


def _halved(x, h):
    """The nodes ``x`` with the midpoints x[0] + (2i+1)*h between them: the
    even nodes of a halved axis are its old nodes, bit for bit."""
    out = np.empty(2 * len(x) - 1)
    out[::2] = x
    out[1::2] = x[0] + h * np.arange(1, 2 * len(x) - 1, 2)
    return out


def _scan_rule(phi, scans, step, name):
    """The integral of exp(phi(w_0, ...)) over one or two log axes by a
    nested trapezoid rule started on the nodes ``scans`` (one scan per
    axis, each spaced ``step``), for a vectorized log integrand ``phi``
    with one concave bump that returns its values on the open grid of its
    node arrays.

    Its first level is the scan nodes inside the window of each axis
    (:func:`_window` on the max-profile along the other axes), so no node
    is evaluated twice.  While the rule and the same rule on every other
    node differ by more than ``_REL_TOL`` relative, the step is halved on
    every axis and only the new nodes are evaluated, at most
    ``_HALVINGS`` times; a check that still fails then raises
    :class:`NumericsError`, naming the integral ``name``, as does a window
    at an end of a scan."""
    d = len(scans)
    # per axis k, the nodes a halving adds that are odd on axis k: even on
    # the axes before it, any on the axes after it (on one axis, the midpoints)
    cuts = [(_EVEN,) * k + (_ODD,) + (_ALL,) * (d - k - 1) for k in range(d)]
    with np.errstate(divide="ignore"):
        values = np.concatenate(list(_blocks(phi, scans)))
        windows = [_window(scan, values.max(axis=tuple(j for j in range(d) if j != k)), name)
                   for k, scan in enumerate(scans)]
        body = values[tuple(slice(first, last + 1) for first, last in windows)]
        nodes = [scan[first:last + 1] for scan, (first, last) in zip(scans, windows)]
        top = body.max()
        f = np.exp(body - top)
        coarse_sum, h = _sum(f[(_EVEN,) * d], (_EVEN,) * d), step
        fresh = sum(_sum(f[cut], cut) for cut in cuts)
        for level in range(_HALVINGS + 1):
            fine_sum = coarse_sum + fresh
            fine = h ** d * fine_sum
            rel_err = abs(fine - 2.0 ** d * h ** d * coarse_sum) / fine
            if rel_err <= _REL_TOL:
                break
            if level == _HALVINGS:
                raise NumericsError(f"{name} did not converge (step-halving relative error {rel_err:.2e})")
            coarse_sum, h = fine_sum, h / 2
            nodes = [_halved(x, h) for x in nodes]
            fresh = sum(_grid_sum(phi, nodes, cut, top) for cut in cuts)
    return math.exp(top) * h ** d * fine_sum


# -- tail integral ----------------------------------------------------------

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
    when ``shift == 0``).  ``rate`` must be positive and finite,
    ``inv_rate`` and ``shift`` non-negative and finite (else ValueError).

    On the log axis (x = e^w) the integrand is a smooth bump exp(phi(w)):
    the essential zero at the origin and the exponential decay at
    infinity become double-exponential falloffs, and phi is concave (a
    linear term minus convex ones).  The integral is :func:`_scan_rule`
    on a scan of x in [e^-60, e^45] at step 1/32, where the trapezoid
    rule converges exponentially in the number of nodes (Trefethen &
    Weideman, SIAM Rev. 2014).  Raises :class:`NumericsError` when its
    step-halving check still fails at step 1/256 (relative tolerance
    1e-12) or the integrand leaves the scanned range.

    No code in ``src/`` calls it.  It is kept because the benchmark's
    layer run (``bench/workloads.py``) and its CI smoke step time it, and
    it goes with ROADMAP item 1, which redefines those metrics.
    """
    if not 0.0 < rate < math.inf:
        raise ValueError("rate must be positive and finite")
    if not (0.0 <= inv_rate < math.inf and 0.0 <= shift < math.inf):
        raise ValueError("inv_rate and shift must be non-negative and finite")

    def phi(w):
        x = np.exp(w)
        return (power + 1) * w - rate * x - shift_power * np.log(x + shift) - inv_rate / x

    name = (f"tail integral (p={power:g}, rate={rate:g}, inv_rate={inv_rate:g}, "
            f"shift={shift:g}, shift_power={shift_power:g})")
    return float(_scan_rule(phi, (np.linspace(-60.0, 45.0, 3361),), 0.03125, name))


# -- the relay kernel and the exact outage -----------------------------------

@functools.cache
def _nb_log_coeffs(k1: int, k3: int):
    """j = 0..k1-1 and the log negative-binomial coefficients
    log C(j + k3 - 1, j) of :func:`_relay_cdf`, both read-only."""
    j = np.arange(k1)
    log_coeffs = gammaln(j + k3) - gammaln(k3) - gammaln(j + 1)
    j.setflags(write=False)
    log_coeffs.setflags(write=False)
    return j, log_coeffs


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
    theta, mean = np.asarray(theta, dtype=float), np.asarray(mean, dtype=float)
    j, log_coeffs = _nb_log_coeffs(k1, k3)
    shape = (-1,) + (1,) * max(theta.ndim, mean.ndim)
    j, log_coeffs = j.reshape(shape), log_coeffs.reshape(shape)
    log_nb = log_coeffs + xlogy(j, theta) - (j + k3) * np.log1p(theta)
    terms = np.exp(log_nb) * gammainc(k1 - j, mean)
    # in order along axis 0, as NumPy adds an array call's terms; it would
    # add a one-point call's 1-D run pairwise from 8 terms on
    total = terms.sum(axis=0) if terms.ndim > 1 else np.cumsum(terms)[-1]
    return total + betainc(k1, k3, theta / (1.0 + theta))


# Scan steps of the exact body and of the oracle's two rules,
# and how far each scan reaches beyond its data anchors (below the
# leftmost anchor, above the rightmost one).
_SCAN_STEP = 0.25
_ORACLE_SCAN_STEP = 0.2
_REACH = (50.0, 8.0)


def _scan(lo, hi, step):
    """The nodes lo + i*step below hi, spaced ``step`` as the rule weighs
    them.  np.arange spaces its nodes fl(lo + step) - lo instead, up to
    1.4e-14 relative off the step at 0.2 and lo near -50, which biases the
    rule by as much; at a power-of-two step the two agree bit for bit."""
    return lo + step * np.arange(math.ceil((hi - lo) / step))


def _op_exact(view: _User | None) -> float:
    """Exact outage probability of one user view (1 for None): the head
    P(y <= c) plus the body, the integral over a = log(y - c) of the
    ordered density times :func:`_relay_cdf`, by :func:`_scan_rule` (step
    0.25, floor 0.25 / 8 = 0.03125).  At a node the first hop must stay
    below need(y, z) = s1 * r * (t4*z + t5), r = (y + t2)*t3*D/(s1*(y - c)).

    The scan is anchored at the user-gain scale and, far left of it at
    high SNR, at the distance above the floor where need(y, z) at the
    loop-interference scale z = s3 falls to s1 and the first-hop CDF
    leaves 1."""
    if view is None:
        return 1.0
    head = ordered_cdf(view.c, view.l, view.L, view.k2, view.s2)
    c, t2, s2 = view.c, view.t2, view.s2
    log_need0 = math.log(view.t3 * view.D / view.s1)
    k1, k3, theta_r, mean_r = view.k1, view.k3, view.t4 * view.s3, view.t5

    def phi(a):
        y = c + np.exp(a)
        r = np.exp(np.log(y + t2) + log_need0 - a)
        log_w = a + ordered_logpdf(y, view.l, view.L, view.k2, s2)
        return log_w + np.log(_relay_cdf(k1, k3, r * theta_r, r * mean_r))

    left, right = _REACH
    log_s2 = math.log(s2)
    a_turn = math.log((c + t2) * (view.t5 + view.t4 * view.s3)) + log_need0
    a_scan = _scan(min(a_turn, log_s2) - left, log_s2 + right, _SCAN_STEP)
    body = _scan_rule(phi, (a_scan,), _SCAN_STEP, "exact body in a = log(y - c)")
    return float(min(head + body, 1.0))


def op_exact(cfg: SystemConfig, user: int) -> float:
    """Exact per-user outage probability (head plus a 1-D body over the
    closed-form relay kernel).

    Returns 1 outright when any decode stage of ``user`` is infeasible.
    """
    return _op_exact(_user_view(derive_constants(cfg), user))


# -- 2-D log-axis oracle ----------------------------------------------------

def op_oracle_2d(cfg: SystemConfig, user: int) -> float:
    """Reference outage value by direct integration on log axes, with the
    order of :func:`op_exact` swapped: the user gain y is averaged last.

    Given the loop-interference gain z, let K = t3*D*(t4*z + t5).  A
    first-hop gain g1 <= K is in outage whatever y; above K the outage is
    y < y* = c + (c + t2)*K / (g1 - K).  So P_out = E_z[P(g1 <= K)] +
    E[F_y(y*); g1 > K], with F_y :func:`~fdnoma.specfun.ordered_cdf`.  The
    first term is one rule over b = log z; the second is one rule over
    (r, b) with r = log((g1 - K)/K), where y* = c + (c + t2)*e^-r depends
    on r alone.  Both read only the ordered CDF, the first-hop Gamma CDF
    and Gamma log densities, so neither the closed-form kernel nor the
    ordered density is shared with :func:`op_exact`.  Both rules are
    :func:`_scan_rule` on scans at step 0.2 (floor 0.025): b anchored at
    the loop-interference scale, r at the user-gain scale
    log((c + t2)/s2) and the first-hop scale log(s1/(t3*D*t5)).
    """
    view = _user_view(derive_constants(cfg), user)
    if view is None:
        return 1.0
    k1, k3, s3, c, t2 = view.k1, view.k3, view.s3, view.c, view.t2
    q_z, q_0 = view.t3 * view.D * view.t4 / view.s1, view.t3 * view.D * view.t5 / view.s1  # K/s1 = q_z*z + q_0

    def col(b):
        """(log of z times its Gamma density, K/s1) at b = log z."""
        return k3 * (b - math.log(s3)) - np.exp(b) / s3 - math.lgamma(k3), q_z * np.exp(b) + q_0

    def phi_relay(b):
        log_w, q = col(b)
        return log_w + np.log(gammainc(k1, q))

    def phi_user(r, b):
        """log of the integrand of E[F_y(y*); g1 > K] on the grid r by b:
        F_y(y*) times the Gamma density of g1 = K*(1 + e^r) times
        dg1/dr = K*e^r, as a row part, a column part and -(K/s1)*e^r."""
        log_w, q = col(b)
        e_r = np.exp(r)
        f_y = ordered_cdf(c + (c + t2) / e_r, view.l, view.L, view.k2, view.s2)
        row = r + (k1 - 1) * np.logaddexp(0.0, r) + np.log(f_y)
        return row[:, None] + (log_w + k1 * np.log(q) - q - math.lgamma(k1)) - e_r[:, None] * q

    step, (left, right) = _ORACLE_SCAN_STEP, _REACH
    b_scan = _scan(math.log(s3) - left, math.log(s3) + right, step)
    r_user, r_relay = math.log((c + t2) / view.s2), -math.log(q_0)
    r_scan = _scan(min(r_user, r_relay) - left, max(r_user, r_relay) + right, step)
    relay = _scan_rule(phi_relay, (b_scan,), step, "oracle relay term in b = log z")
    rest = _scan_rule(phi_user, (r_scan, b_scan), step, "oracle user term in (r, b) = (log((g1 - K)/K), log z)")
    return float(min(relay + rest, 1.0))


# -- closed-form lower bound ------------------------------------------------

def _relay_ratio_cdf(view: _User) -> float:
    """F_W = P(g1 < x_w*(z + v)) with x_w = t3*t4*D and v = t5/t4: the
    outage need of the first hop alone (the user gain taken as unbounded),
    :func:`_relay_cdf` at one point."""
    x_w = view.t3 * view.t4 * view.D
    v = view.t5 / view.t4
    return float(_relay_cdf(view.k1, view.k3, x_w * view.s3 / view.s1, x_w * v / view.s1))


def _op_lower_bound(view: _User | None) -> float:
    """The lower bound of :func:`op_lower_bound` on one user view (1 for None)."""
    if view is None:
        return 1.0
    f_w = _relay_ratio_cdf(view)
    f_2 = ordered_cdf(view.c, view.l, view.L, view.k2, view.s2)
    return min(f_w + f_2 - f_w * f_2, 1.0)


def op_lower_bound(cfg: SystemConfig, user: int) -> float:
    """Closed-form lower bound on the exact outage.

    The two-hop SIDNR is upper-bounded by the minimum of the per-hop
    ratios (the harmonic-mean property), whose survival factorizes into
    the relay-ratio survival and the ordered-gain survival.  The bound is
    written from the two CDFs, F_W + F_2 - F_W*F_2, so that it keeps
    relative accuracy when both are small: F_W is :func:`_relay_ratio_cdf`
    and F_2 is the head of :func:`op_exact`.
    """
    return _op_lower_bound(_user_view(derive_constants(cfg), user))


# -- asymptotics ------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoteReport:
    """High-SNR characterization of a user's outage curve.

    ``regime`` is one of ``ideal`` (outage decays as
    ``(array_gain * snr) ** -diversity_order``), ``li_floor`` (loop
    interference scales with transmit power, outage saturates) or
    ``cee_floor`` (channel estimation errors dominate, outage
    saturates); ``infeasible`` marks a configuration whose outage is 1.
    In the two floor regimes ``floor_value`` is the exact outage in the
    limit SNR -> inf, which the finite-SNR outage approaches from above.
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


def _op_floor(view: _User) -> float:
    """Outage of a high-SNR limit view, whose ``t2``, ``t5`` and ``s3`` are
    their SNR -> inf limits.  With no user-side error (t2 = 0) the floor c
    is 0 and need does not depend on y, so the outage is the first hop's
    :func:`_relay_ratio_cdf`; with neither relay-side error nor loop
    interference the need above c is 0 and the outage is the head;
    otherwise it is the exact route on the limit view."""
    if view.t2 == 0.0:
        return _relay_ratio_cdf(view)
    if view.t5 == 0.0 and view.s3 == 0.0:
        return ordered_cdf(view.c, view.l, view.L, view.k2, view.s2)
    return _op_exact(view)


def _op_asymptotic(view: _User | None, user: int) -> AsymptoteReport:
    """:func:`op_asymptotic` on the view of ``user`` (None when infeasible)."""
    if view is None:
        return AsymptoteReport(user=user, regime="infeasible", diversity_order=0.0,
                               array_gain=None, floor_value=1.0)
    l, k1, k2, k3 = view.l, view.k1, view.k2, view.k3
    cee = view.e_sr > 0.0 or view.e_ru > 0.0
    if cee or view.mu == 1.0:
        # The view at SNR -> inf: the noise terms keep only their
        # estimation-error parts, and the loop interference keeps its
        # scale at mu = 1 and vanishes below it.
        limit = view._replace(t2=view.e_ru, t5=view.e_sr, s3=view.s3 if view.mu == 1.0 else 0.0)
        return AsymptoteReport(
            user=l, regime="cee_floor" if cee else "li_floor", diversity_order=0.0,
            array_gain=None, floor_value=_op_floor(limit),
        )

    lam = view.D  # SNR-free demand level
    hop2_amp = 1.0 / view.t4  # 1 + kappa_sr**2
    hop1_amp = view.t3 * view.t4  # 1 + kappa_ru**2

    do1 = (1.0 - view.mu) * k1
    do2 = k2 * l
    # E[X**k1] of the SNR-free loop interference X ~ Gamma(k3, lambda / k3);
    # at mu = 0, X meets the relay noise at one order: E[(X + 1)**k1].
    log_d1 = (
        math.lgamma(k1 + k3) - math.lgamma(k1 + 1) - math.lgamma(k3)
        + k1 * math.log(hop1_amp * lam * view.lam_li / (view.s1 * k3))
    )
    if view.mu == 0.0:
        log_d1 += math.log(math.fsum(
            math.comb(k1, i) * (k3 / view.lam_li) ** (k1 - i)
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
    return AsymptoteReport(user=l, regime="ideal", diversity_order=do, array_gain=ag, floor_value=None)


def op_asymptotic(cfg: SystemConfig, user: int) -> AsymptoteReport:
    """Diversity order, array gain and floor levels for ``user``.

    Independent of ``cfg.snr_db``: use :meth:`AsymptoteReport.probability`
    to evaluate the asymptotic curve at any SNR.
    """
    return _op_asymptotic(_user_view(derive_constants(cfg), user), user)
