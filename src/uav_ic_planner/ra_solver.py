"""Per-slot resource allocation: decoding modes, powers, and UAV rate.

For a fixed UAV position and decoding mode (IC sites decode the UAV, TIN
sites treat it as noise) the optimum is closed-form: IC-site GUs meet their
guarantee exactly, TIN-site GUs send at full power, and the UAV at the
largest power every TIN guarantee allows. With a_k = h_k / (sigma2_k +
q^IC_k g_k), switching a TIN site with a_k above the weakest IC site's to IC
lowers neither the weakest a nor the power cap, so some optimal mode decodes
the top m sites by a_k: K candidates whose caps are suffix minima of the
per-site TIN caps c_k. The scan is vectorized over (M, 2) positions, any K.

Ties within TIE_TOL prefer the fewest IC bits, then the lexicographically
smallest bit vector (site 0 first), as a full enumeration does. A mode within
TIE_TOL of the best rate r* with weakest decoder j contains T_j = {j} + {k :
log2(1 + a_j c_k) < r* - TIE_TOL}, which is itself within TIE_TOL of r*; so
the preferred mode is the smallest, then lexicographically smallest, such
T_j. Egoistic and altruistic pass their own candidates (each single site;
all sites) through the same choice. The chosen modes are then solved in
closed form by `solve_mode`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .channel import a2g_gain, log2_1p, uav_rate
from .scenario import LN2, Scenario

# Modes whose rates differ by less than this are considered tied.
TIE_TOL = 1e-12
# Relative slack when checking the closed-form GU power against its cap.
Q_CAP_REL_TOL = 1e-9
# Positions per vectorized block are chosen so that the (rows, K, K)
# candidate arrays hold about this many elements (2 MB per float array).
BLOCK_ELEMS = 1 << 18

ModeConstraint = Literal["any", "egoistic", "altruistic"]


class RaError(Exception):
    pass


class InfeasibleSite(RaError):
    """A GU rate guarantee cannot be met even at maximum power."""

    def __init__(self, site_index: int, q_needed: float, q_max: float):
        self.site_index = site_index
        self.q_needed = q_needed
        self.q_max = q_max
        super().__init__(
            f"site {site_index}: IC mode needs GU power {q_needed:.6g} W "
            f"> limit {q_max:.6g} W")


class InternalConsistencyError(RaError):
    """A quantity that global feasibility guarantees non-negative came out
    negative; indicates a scenario or solver bug rather than infeasibility."""


@dataclass(frozen=True, eq=False)
class Allocation:
    """Allocations for N slots (or N candidate positions), one row each;
    row n-1 belongs to slot n."""

    tau: np.ndarray  # (N, K) bool: True = decode the UAV (IC), False = TIN
    q: np.ndarray    # (N, K) GU transmit powers, W
    p: np.ndarray    # (N,) UAV transmit power, W
    r: np.ndarray    # (N,) UAV rate, bps/Hz

    def __len__(self) -> int:
        return self.p.shape[0]


def gu_power_ic(site, site_index: int = -1) -> float:
    """Minimum GU power meeting the rate guarantee under IC."""
    try:
        q = (2.0 ** site.gamma - 1.0) * site.sigma2 / site.g
    except OverflowError:  # 2^gamma is past the float range
        q = math.inf
    if q > site.q_max * (1.0 + Q_CAP_REL_TOL):
        raise InfeasibleSite(site_index, q, site.q_max)
    return min(q, site.q_max)


def _site_terms(points: np.ndarray, scenario: Scenario, q_ic: np.ndarray,
                tin) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, c_ic, cap): gains (M, K), IC-mode noise plus GU interference (K,),
    and per-site TIN caps on the UAV power (M, K), +inf without a guarantee.

    cap[m, k] is the largest UAV power keeping site k's GU (at q = Q_k) at
    its guarantee while site k treats the UAV as noise. A negative cap is
    raised where `tin` (bool, broadcastable to (M, K)) allows TIN.
    """
    h = a2g_gain(points, scenario)
    c_ic = scenario.sigma2_vec + q_ic * scenario.g_vec
    numer = np.array([
        site.g * site.q_max / (2.0 ** site.gamma - 1.0) - site.sigma2
        if 2.0 ** site.gamma > 1.0 else math.inf for site in scenario.sites])
    cap = numer / h
    negative = (cap < -1e-12 * scenario.uav.p_max) & tin
    if negative.any():
        k = int(negative.any(axis=0).argmax())
        raise InternalConsistencyError(
            f"site {k}: negative UAV power cap {cap[:, k].min():.6g} W "
            f"despite a feasible scenario")
    return h, c_ic, np.maximum(cap, 0.0)


def _scan_rates(h: np.ndarray, c_ic: np.ndarray, cap: np.ndarray,
                p_max: float) -> np.ndarray:
    """Best UAV rate per position over the K threshold modes (the top m
    sites by a_k decode, m = 1..K); (M,) bps/Hz."""
    order = np.argsort(-(h / c_ic), axis=1, kind="stable")
    h_rank = np.take_along_axis(h, order, axis=1).T
    c_rank = c_ic[order].T
    cap_rank = np.take_along_axis(cap, order, axis=1).T
    # Walk m = K..1: the top-m mode's weakest decoder has rank m-1, and its
    # UAV power is p_max capped by the TIN caps of ranks m..K-1.
    p = np.full(h.shape[0], p_max)
    best = np.zeros(h.shape[0])
    for rank in range(h.shape[1] - 1, -1, -1):
        best = np.maximum(best, h_rank[rank] * p / c_rank[rank])
        p = np.minimum(p, cap_rank[rank])
    return log2_1p(best)


def _ic_powers(scenario: Scenario) -> np.ndarray:
    return np.array([gu_power_ic(site, k)
                     for k, site in enumerate(scenario.sites)])


def _blocks(n_points: int, n_sites: int):
    rows = max(1, BLOCK_ELEMS // (n_sites * n_sites))
    return (slice(lo, lo + rows) for lo in range(0, n_points, rows))


def slot_rates_on_points(points, scenario: Scenario) -> np.ndarray:
    """Best slot rate at each of M candidate UAV positions, (M, 2) -> (M,).

    Uses only the rate part of the threshold scan, with O(M K) temporaries.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    q_ic = _ic_powers(scenario)
    rates = np.empty(points.shape[0])
    for blk in _blocks(points.shape[0], scenario.n_sites):
        h, c_ic, cap = _site_terms(points[blk], scenario, q_ic,
                                   scenario.n_sites > 1)
        rates[blk] = _scan_rates(h, c_ic, cap, scenario.uav.p_max)
    return rates


def _choose_block(h: np.ndarray, c_ic: np.ndarray, cap: np.ndarray,
                  p_max: float, mode_constraint: ModeConstraint) -> np.ndarray:
    """Preferred mode (M, K) for one block of positions."""
    m, k = h.shape
    if mode_constraint == "altruistic":
        return np.ones((m, k), dtype=bool)
    if mode_constraint == "egoistic":
        cand = np.broadcast_to(np.eye(k, dtype=bool), (m, k, k))
    else:
        best = _scan_rates(h, c_ic, cap, p_max)
        # cand[m, j] = T_j, the smallest mode with weakest decoder j that
        # can reach the best rate (see the module docstring), testing
        # log2(1 + a_j c_k) < r* - TIE_TOL as a_j c_k < 2^(r* - TIE_TOL) - 1.
        floor = np.expm1((best - TIE_TOL) * LN2)
        cand = (h / c_ic)[:, :, None] * cap[:, None, :] < floor[:, None, None]
        cand |= np.eye(k, dtype=bool)
    # UAV power and rate of every candidate mode, (M, J).
    p = np.minimum(np.where(cand, np.inf, cap[:, None, :]).min(axis=2), p_max)
    x = np.where(cand, h[:, None, :] * p[:, :, None] / c_ic, np.inf)
    r = log2_1p(x.min(axis=2))
    if mode_constraint == "egoistic":
        best = r.max(axis=1)
    size = np.where(r >= best[:, None] - TIE_TOL, cand.sum(axis=2), k + 1)
    keep = size == size.min(axis=1, keepdims=True)
    # Lexicographic tie-break on the bit vectors packed 8 sites to a byte,
    # site 0 in the top bit: keep the smallest byte, one byte at a time.
    packed = np.packbits(cand, axis=2)
    for col in range(packed.shape[2]):
        byte = packed[:, :, col]
        low = np.where(keep, byte, 255).min(axis=1, keepdims=True)
        keep &= byte == low
    return cand[np.arange(m), keep.argmax(axis=1)]


def solve_mode(tau, points, scenario: Scenario) -> Allocation:
    """Closed-form optimum for one decoding mode per position, tau (M, K)
    bool and points (M, 2): IC-site GUs meet their guarantee exactly,
    TIN-site GUs send at full power, and the UAV sends at the largest power
    every TIN guarantee allows, at the rate of its weakest IC site."""
    tau = np.asarray(tau, dtype=bool).reshape(-1, scenario.n_sites)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if not tau.any(axis=1).all():
        raise ValueError("at least one site must decode the UAV")
    q_ic = _ic_powers(scenario)
    h, _, cap = _site_terms(points, scenario, q_ic, ~tau)
    p = np.minimum(np.where(tau, np.inf, cap).min(axis=1), scenario.uav.p_max)
    q = np.where(tau, q_ic, scenario.q_max_vec)
    rate = uav_rate(h, p[:, None], q, scenario)
    return Allocation(tau=tau, q=q, p=p,
                      r=np.where(tau, rate, np.inf).min(axis=1))


def solve_slot(points, scenario: Scenario,
               mode_constraint: ModeConstraint = "any") -> Allocation:
    """Globally optimal slot allocation at each of M UAV positions, (M, 2)."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n, k = points.shape[0], scenario.n_sites
    q_ic = _ic_powers(scenario)
    tin_possible = k > 1 and mode_constraint != "altruistic"
    tau = np.empty((n, k), dtype=bool)
    for blk in _blocks(n, k):
        h, c_ic, cap = _site_terms(points[blk], scenario, q_ic, tin_possible)
        tau[blk] = _choose_block(h, c_ic, cap, scenario.uav.p_max,
                                 mode_constraint)
    return solve_mode(tau, points, scenario)


def solve_resource_allocation(
    trajectory, scenario: Scenario,
    mode_constraint: ModeConstraint = "any",
) -> tuple[Allocation, float]:
    """Per-slot optimal allocation along a trajectory; returns the slot
    allocations and the mission-average throughput in bps/Hz.

    Slot n is evaluated at waypoint u[n], n = 1..N.
    """
    alloc = solve_slot(trajectory.waypoints[1:], scenario, mode_constraint)
    return alloc, math.fsum(alloc.r) / len(alloc)
