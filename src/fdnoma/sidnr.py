"""Instantaneous decode SIDNR and the batched outage mask.

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
strictly larger ratio).  :func:`outage_mask` is the only encoding of
this event: the baselines reach it through transformed configurations.
"""

from __future__ import annotations

import numpy as np

from .config import DerivedConstants

__all__ = ["outage_mask"]


def _stage_ratios(g1, g2, g3, dc: DerivedConstants, user: int):
    """``(num, den)`` of stages 1..user as ``x * a_j`` and ``(x * D_j + A) + B``:
    the stage-invariant parts are formed once, and every value rounds as
    the formula above does (same operations, same order)."""
    g = dc.snr_lin
    t2 = dc.noise_ru[user - 1]
    x = g1 * g2 * g * g
    a = g1 * g * t2 * dc.rhi_amp
    b = (g2 * g + t2) * (g3 * g * dc.sr_derate + dc.noise_sr) * dc.rhi_amp
    for j in range(user):
        yield x * dc.cfg.power_coeffs[j], x * (dc.iui[j] + dc.ipsic[j] + dc.rhi_mix) + a + b


def outage_mask(
    gain_sr: np.ndarray,
    gains_ru_sorted: np.ndarray,
    gain_li,
    dc: DerivedConstants,
    user: int,
) -> np.ndarray:
    """Outage indicator of ``user`` over a batch of realizations.

    Evaluated as ``num <= threshold * den`` per stage, which is exact for
    infeasible configurations too: when the power margin of a stage is
    non-positive its ratio can never exceed the threshold, so every
    realization is an outage.  ``gain_li`` may be the scalar 0.0
    (half-duplex draws carry no loop interference).
    """
    if not 1 <= user <= dc.cfg.num_users:
        raise ValueError(f"user must lie in 1..{dc.cfg.num_users}")
    g2 = gains_ru_sorted[:, user - 1]
    out = np.zeros(gain_sr.shape, dtype=bool)
    for thr, (num, den) in zip(dc.cfg.thresholds, _stage_ratios(gain_sr, g2, gain_li, dc, user)):
        out |= num <= thr * den
    return out
