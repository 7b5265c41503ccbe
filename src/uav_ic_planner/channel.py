"""The channel model for M UAV positions and all K sites at once.

Stateless pure functions. Gains are (M, K); the rates take gains, UAV
powers and GU powers that broadcast to (M, K), e.g. p as an (M, 1) column
and q as (M, K) or (K,). Rates are computed through log1p so that tiny
SINRs near the feasibility boundary keep full relative accuracy.
"""

from __future__ import annotations

import numpy as np

from .scenario import LN2, Scenario


def log2_1p(x):
    """log2(1 + x), accurate for x << 1. Works elementwise on arrays."""
    return np.log1p(x) / LN2


def geometry(points, scenario: Scenario):
    """Site offsets (M, K, 2), squared horizontal distances s (M, K),
    squared 3D distances d2 = H^2 + s and A2G gains h = beta0 d2^(-alpha/2)
    between UAV positions `points` (M, 2) and the sites."""
    diff = points[:, None, :] - scenario.site_pos[None, :, :]
    s = np.einsum("mki,mki->mk", diff, diff)
    d2 = scenario.uav.altitude ** 2 + s
    ch = scenario.channel
    return diff, s, d2, ch.beta0 * d2 ** (-ch.alpha / 2.0)


def a2g_gain(points, scenario: Scenario) -> np.ndarray:
    """A2G gains (M, K) from UAV positions `points` (M, 2) to the sites."""
    return geometry(points, scenario)[3]


def uav_rate(h, p, q, scenario: Scenario):
    """UAV -> GBS rate with GU interference, bps/Hz."""
    return log2_1p(h * p / (scenario.sigma2_vec + q * scenario.g_vec))


def gu_rate_ic(q, scenario: Scenario):
    """GU rate when the GBS cancels the UAV's interference, bps/Hz."""
    return log2_1p(scenario.g_vec * q / scenario.sigma2_vec)


def gu_rate_tin(h, p, q, scenario: Scenario):
    """GU rate when the UAV's interference is treated as noise, bps/Hz."""
    return log2_1p(scenario.g_vec * q / (scenario.sigma2_vec + h * p))
