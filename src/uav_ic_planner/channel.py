"""Channel gains and achievable-rate expressions.

Stateless pure functions. Rates are computed through log1p so that tiny
SINRs near the feasibility boundary keep full relative accuracy.
"""

from __future__ import annotations

import numpy as np

from .scenario import LN2, ChannelParams, GbsSite


def log2_1p(x):
    """log2(1 + x), accurate for x << 1. Works elementwise on arrays."""
    return np.log1p(x) / LN2


def a2g_gain(u, site: GbsSite, ch: ChannelParams, altitude: float):
    """Air-to-ground channel gain from UAV at horizontal position u to a GBS;
    u may also be an (M, 2) array of positions, giving (M,) gains."""
    du = np.asarray(u, dtype=float) - np.asarray(site.pos)
    d2 = altitude * altitude + np.einsum("...i,...i->...", du, du)
    return ch.beta0 * d2 ** (-ch.alpha / 2.0)


def a2g_gain_points(points: np.ndarray, site_pos: np.ndarray,
                    ch: ChannelParams, altitude: float) -> np.ndarray:
    """Gains for M UAV positions x K sites. points: (M, 2), site_pos: (K, 2).

    Returns (M, K).
    """
    diff = points[:, None, :] - site_pos[None, :, :]
    d2 = altitude * altitude + np.einsum("mki,mki->mk", diff, diff)
    return ch.beta0 * d2 ** (-ch.alpha / 2.0)


# Rates also work elementwise: arrays p, q_k and (M, 2) positions u give (M,).

def uav_rate(p, u, q_k, site: GbsSite, ch: ChannelParams, altitude: float):
    """UAV -> GBS rate with GU interference, bps/Hz."""
    h = a2g_gain(u, site, ch, altitude)
    return log2_1p(h * p / (site.sigma2 + q_k * site.g))


def gu_rate_ic(q_k, site: GbsSite):
    """GU rate when the GBS cancels the UAV's interference, bps/Hz."""
    return log2_1p(site.g * q_k / site.sigma2)


def gu_rate_tin(p, u, q_k, site: GbsSite, ch: ChannelParams, altitude: float):
    """GU rate when the UAV's interference is treated as noise, bps/Hz."""
    h = a2g_gain(u, site, ch, altitude)
    return log2_1p(site.g * q_k / (site.sigma2 + h * p))
