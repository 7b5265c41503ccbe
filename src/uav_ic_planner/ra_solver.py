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
from typing import Literal, get_args

import numpy as np

from .channel import a2g_gain, log2_1p, square_gains, uav_rate
from .scenario import LN2, Scenario

# Modes whose rates differ by less than this are considered tied.
TIE_TOL = 1e-12
# Positions per vectorized block are chosen so that the (rows, K, K)
# candidate arrays hold about this many elements (2 MB per float array).
BLOCK_ELEMS = 1 << 18

ModeConstraint = Literal["any", "egoistic", "altruistic"]


def check_mode_constraint(mode_constraint) -> None:
    """Raise ValueError unless `mode_constraint` is a ModeConstraint."""
    allowed = get_args(ModeConstraint)
    if mode_constraint not in allowed:
        raise ValueError(f"unknown mode constraint {mode_constraint!r}; "
                         f"expected one of {', '.join(allowed)}")


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


def _site_terms(points: np.ndarray, scenario: Scenario
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, c_ic, cap): gains (M, K) (a view of the kernel's transpose),
    IC-mode noise plus GU interference (K,), and per-site TIN caps (M, K):
    cap[m, k] >= 0 is the largest UAV power keeping site k's GU (at q = Q_k)
    at its guarantee while it treats the UAV as noise, +inf without a
    guarantee. Raises InfeasibleSite if a guarantee is out of IC's reach."""
    c_ic = scenario.sigma2_vec + scenario.q_ic_vec * scenario.g_vec
    h = a2g_gain(points, scenario).T
    return h, c_ic, scenario.tin_cap_numer / h


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


def _blocks(n_points: int, n_sites: int):
    rows = max(1, BLOCK_ELEMS // (n_sites * n_sites))
    return (slice(lo, lo + rows) for lo in range(0, n_points, rows))


def slot_rates_on_points(points, scenario: Scenario,
                         half_width: float = 0.0) -> np.ndarray:
    """Best slot rate at each of M candidate UAV positions, (M, 2) -> (M,), or
    a bound on it over the square of `half_width` > 0 centred at each point
    (`benchmarks.upper_bound`). The scan's rate part, O(M K) temporaries.

    From the offsets on (`square_gains` orders them exactly), a bound and a
    point's rate run the same operations, which rounding keeps in order but
    for the gains' power, the scan's order at ties and log1p, a few ulps
    each; rounding the bound up by 32 epsilons (16-32 ulps) covers them."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    rates = np.empty(points.shape[0])
    for blk in _blocks(points.shape[0], scenario.n_sites):
        h, c_ic, cap = _site_terms(points[blk], scenario)
        if half_width:
            h_hi, h_lo = square_gains(points[blk], half_width, scenario)
            h, cap = h_hi.T, scenario.tin_cap_numer / h_lo.T
        rates[blk] = _scan_rates(h, c_ic, cap, scenario.uav.p_max)
    return rates * (1.0 + 32 * np.finfo(float).eps) if half_width else rates


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
    h, _, cap = _site_terms(points, scenario)
    p = np.minimum(np.where(tau, np.inf, cap).min(axis=1), scenario.uav.p_max)
    q = np.where(tau, scenario.q_ic_vec, scenario.q_max_vec)
    rate = uav_rate(h.T, p, q.T, scenario)
    return Allocation(tau=tau, q=q, p=p,
                      r=np.where(tau.T, rate, np.inf).min(axis=0))


def solve_slot(points, scenario: Scenario,
               mode_constraint: ModeConstraint = "any") -> Allocation:
    """Globally optimal slot allocation at each of M UAV positions, (M, 2)."""
    check_mode_constraint(mode_constraint)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n, k = points.shape[0], scenario.n_sites
    tau = np.empty((n, k), dtype=bool)
    for blk in _blocks(n, k):
        h, c_ic, cap = _site_terms(points[blk], scenario)
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
