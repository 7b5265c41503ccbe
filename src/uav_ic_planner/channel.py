"""The channel model for M UAV positions and all K sites at once.

Stateless pure functions, site-major: per-site arrays are (K, M), with the
positions on the contiguous last axis. The rates take gains, UAV powers and
GU powers that broadcast to (K, M), e.g. p as an (M,) row and q as (K, M);
per-site constants enter as (K, 1) columns. Rates are computed through log1p
so that tiny SINRs near the feasibility boundary keep full relative accuracy.
"""

from __future__ import annotations

import numpy as np

from .scenario import LN2, Scenario


def log2_1p(x):
    """log2(1 + x), accurate for x << 1. Works elementwise on arrays."""
    return np.log1p(x) / LN2


def geometry(points, scenario: Scenario):
    """Offsets (2, K, M), x plane first, squared horizontal distances s
    (K, M), squared 3D distances d2 = H^2 + s and A2G gains h = beta0
    d2^(-alpha/2) from the sites to UAV positions `points` (M, 2), or to
    the transpose of x and y planes (2, M)."""
    diff = points.T[:, None, :] - scenario.site_pos.T[:, :, None]
    s = diff[0] * diff[0] + diff[1] * diff[1]
    d2 = scenario.uav.altitude ** 2 + s
    ch = scenario.channel
    return diff, s, d2, ch.beta0 * d2 ** (-ch.alpha / 2.0)


def a2g_gain(points, scenario: Scenario) -> np.ndarray:
    """A2G gains (K, M) from UAV positions `points` (M, 2) to the sites."""
    return geometry(points, scenario)[3]


def square_gains(points, half_width: float, scenario: Scenario):
    """Site gains (K, M) at the nearest and farthest points of the squares,
    the offsets moved out by 4 ulps of the coordinates' size (rounding here,
    in a computed offset and in a computed corner takes up to 2.5)."""
    pts, sites = points.T[:, None, :], scenario.site_pos.T[:, :, None]
    off = np.abs(pts - sites)
    pad = half_width + 4.0 * np.spacing(abs(pts) + abs(sites) + half_width)
    ch, h2 = scenario.channel, scenario.uav.altitude ** 2
    return [ch.beta0 * (h2 + (d * d).sum(axis=0)) ** (-ch.alpha / 2.0)
            for d in (np.maximum(off - pad, 0.0), off + pad)]


def uav_rate(h, p, q, scenario: Scenario):
    """UAV -> GBS rate with GU interference, bps/Hz."""
    return log2_1p(h * p / (scenario.sigma2_vec[:, None]
                            + q * scenario.g_vec[:, None]))


def gu_rate_ic(q, scenario: Scenario):
    """GU rate when the GBS cancels the UAV's interference, bps/Hz."""
    return log2_1p(scenario.g_vec[:, None] * q / scenario.sigma2_vec[:, None])


def gu_rate_tin(h, p, q, scenario: Scenario):
    """GU rate when the UAV's interference is treated as noise, bps/Hz."""
    return log2_1p(scenario.g_vec[:, None] * q
                   / (scenario.sigma2_vec[:, None] + h * p))
