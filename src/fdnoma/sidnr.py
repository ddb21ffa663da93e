"""The batched outage mask: the decode SIDNR tests as one comparison.

User ``l`` successively decodes the signals intended for users
``j = 1..l`` (strongest power first).  The signal-to-interference-
distortion-plus-noise ratio of stage ``j`` at user ``l`` is

    num = g1 * g2 * snr**2 * a_j
    den = g1 * g2 * snr**2 * (iui_j + ipsic_j + rhi_mix)
          + g1 * snr * noise_ru_l * rhi_amp
          + (g2 * snr + noise_ru_l) * (g3 * snr * sr_derate + noise_sr) * rhi_amp

with ``g1`` the first-hop gain, ``g2`` the user's ordered second-hop
gain and ``g3`` the loop-interference gain.  The user is in outage when
any stage fails its threshold; ties count as outage (success requires a
strictly larger ratio).

With ``x = g1 * g2 * snr**2`` and ``A + B`` the last two terms of ``den``,
stage ``j`` fails when ``x * margin_j <= thr_j * (A + B)`` (``margin_j``
of :class:`~fdnoma.config.DerivedConstants`): always if ``margin_j <= 0``
(an infeasible user), else when ``x <= snr * demand_j * (A + B)``.  The
union over ``j <= l`` is one comparison at the peak ``dmax = max(demand_j)``:

    g1 * (g2 - c) * snr / (rhi_amp * dmax)
        <= (g2 * snr + noise_ru_l) * (g3 * snr * sr_derate + noise_sr)

with ``c = noise_ru_l * rhi_amp * dmax`` the floor of the ordered gain,
as in the analytic routes.  :func:`outage_mask` is the only encoding of
this event: the baselines reach it through transformed configurations.
"""

from __future__ import annotations

import numpy as np

from .config import DerivedConstants, _check_int

__all__ = ["outage_mask"]


def outage_mask(gain_sr: np.ndarray, gains_ru_sorted: np.ndarray, gain_li,
                dc: DerivedConstants, user: int) -> np.ndarray:
    """Outage indicator of ``user`` over a batch of realizations (all of
    them for an infeasible user).  ``gain_li`` may be the scalar 0.0."""
    user = _check_int("user", user, 1, dc.cfg.num_users)
    if not dc.feasible[user - 1]:
        return np.ones(gain_sr.shape, dtype=bool)
    g, t2, dmax = dc.snr_lin, dc.noise_ru[user - 1], dc.demand_peak[user - 1]
    g2 = gains_ru_sorted[:, user - 1]
    lhs = g2 - t2 * dc.rhi_amp * dmax
    lhs *= gain_sr
    lhs *= g / (dc.rhi_amp * dmax)
    rhs = g2 * g
    rhs += t2
    rhs *= gain_li * (g * dc.sr_derate) + dc.noise_sr
    return lhs <= rhs
