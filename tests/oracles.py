"""Independent brute-force oracles used to validate the closed-form solvers.

`enumerate_slot` is the reference for the threshold scan: it enumerates every
admissible decoding mode at one UAV position with scalar closed forms and
applies the tie rule literally. `brute_force_slot_rate` avoids the closed
forms altogether: GU powers are searched on a grid and the UAV power is
swept over a grid, keeping only combinations that satisfy the constraints
evaluated through the channel module. Guarantee checks carry the same 1e-9
bps/Hz slack as the scenario feasibility test, so grid points landing
exactly on a constraint boundary are not rejected by float rounding.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

import numpy as np

from uav_ic_planner.channel import a2g_gain, log2_1p, uav_rate
from uav_ic_planner.ra_solver import (TIE_TOL, InternalConsistencyError,
                                      gu_power_ic)
from uav_ic_planner.scenario import LN2, Scenario


class ModeAllocation(NamedTuple):
    tau: tuple[int, ...]  # 1 = decode the UAV (IC), 0 = treat as noise (TIN)
    q: tuple[float, ...]
    p: float
    r: float


def enumerate_modes(n_sites: int,
                    constraint: str = "any") -> Iterator[tuple[int, ...]]:
    """Every admissible mode bit vector, in lexicographic order."""
    if constraint == "altruistic":
        yield (1,) * n_sites
    elif constraint == "egoistic":
        for k in range(n_sites):
            yield tuple(int(j == k) for j in range(n_sites))
    else:
        for tau in itertools.product((0, 1), repeat=n_sites):
            if any(tau):
                yield tau


def solve_mode(tau, u, scenario: Scenario) -> ModeAllocation:
    """Closed-form optimum for one decoding mode at one UAV position, by
    scalar per-site evaluation."""
    uav = scenario.uav
    q = [site.q_max for site in scenario.sites]
    cap = math.inf
    for k, site in enumerate(scenario.sites):
        if tau[k]:
            q[k] = gu_power_ic(site, k)
        elif site.gamma > 0.0:
            h = a2g_gain(u, site, scenario.channel, uav.altitude)
            bracket = (site.g * site.q_max / (2.0 ** site.gamma - 1.0)
                       - site.sigma2) / h
            if bracket < -1e-12 * uav.p_max:
                raise InternalConsistencyError(f"site {k}: negative cap")
            cap = min(cap, max(bracket, 0.0))
    p = min(uav.p_max, cap)
    r = min(uav_rate(p, u, q[k], site, scenario.channel, uav.altitude)
            for k, site in enumerate(scenario.sites) if tau[k])
    return ModeAllocation(tuple(tau), tuple(q), p, r)


def enumerate_slot(u, scenario: Scenario,
                   mode_constraint: str = "any") -> ModeAllocation:
    """Best mode at one UAV position by full enumeration. Ties within
    TIE_TOL prefer fewer IC bits, then the lexicographically smallest bit
    vector."""
    best = None
    for tau in enumerate_modes(scenario.n_sites, mode_constraint):
        alloc = solve_mode(tau, u, scenario)
        if best is None or alloc.r > best.r + TIE_TOL:
            best = alloc
        elif abs(alloc.r - best.r) <= TIE_TOL:
            if (sum(alloc.tau), alloc.tau) < (sum(best.tau), best.tau):
                best = alloc
    return best


def brute_force_slot_rate(u, scenario: Scenario, step: float = 1e-3,
                          mode_constraint: str = "any") -> float:
    """Best achievable slot rate found by gridding p and the GU powers.

    For each decoding mode: IC-site GU powers take the smallest grid value
    meeting the guarantee (the rate falls with q, so no larger value can
    win); TIN-site GU powers sit at their cap (raising q only relaxes the
    TIN guarantee and does not enter the rate). The UAV power is swept over
    the full grid, keeping the feasible points.
    """
    best = -math.inf
    uav = scenario.uav
    p_grid = np.arange(0.0, uav.p_max + step / 2.0, step)
    h = np.array([a2g_gain(u, s, scenario.channel, uav.altitude)
                  for s in scenario.sites])
    for tau in enumerate_modes(scenario.n_sites, mode_constraint):
        ic_sites = [k for k, t in enumerate(tau) if t]
        q = np.empty(scenario.n_sites)
        ok = True
        for k in ic_sites:
            site = scenario.sites[k]
            q_grid = np.arange(0.0, site.q_max + step / 2.0, step)
            meets = (np.log1p(site.g * q_grid / site.sigma2) / LN2
                     >= site.gamma - 1e-9)
            if not meets.any():
                ok = False
                break
            q[k] = q_grid[int(np.argmax(meets))]
        if not ok:
            continue
        feasible = np.ones(p_grid.size, dtype=bool)
        for k in (k for k, t in enumerate(tau) if not t):
            site = scenario.sites[k]
            q[k] = site.q_max
            if site.gamma == 0.0:
                continue
            tin = log2_1p(site.g * site.q_max
                          / (site.sigma2 + h[k] * p_grid))
            feasible &= tin >= site.gamma - 1e-9
        if not feasible.any():
            continue
        r = np.full(p_grid.size, math.inf)
        for k in ic_sites:
            site = scenario.sites[k]
            r = np.minimum(
                r, log2_1p(h[k] * p_grid / (site.sigma2 + site.g * q[k])))
        best = max(best, float(r[feasible].max()))
    return max(best, 0.0)


def grid_resolution_bound(u, scenario: Scenario, step: float = 1e-3) -> float:
    """Upper bound on how far the grid oracle can fall below the true slot
    optimum, from the rate's sensitivity to p and to each IC-site q at the
    per-mode closed-form solution."""
    uav = scenario.uav
    worst = 0.0
    for tau in enumerate_modes(scenario.n_sites):
        alloc = solve_mode(tau, u, scenario)
        err = 0.0
        for k in (k for k, t in enumerate(tau) if t):
            site = scenario.sites[k]
            h = a2g_gain(u, site, scenario.channel, uav.altitude)
            c = site.sigma2 + site.g * alloc.q[k]
            # d/dq of log2(1 + h p / (sigma2 + g q))
            slope_q = (h * alloc.p * site.g) / (LN2 * c * (c + h * alloc.p))
            # d/dp of the same rate
            slope_p = h / (LN2 * (c + h * alloc.p))
            err = max(err, (slope_q + slope_p) * step)
        worst = max(worst, err)
    return worst


def fd_derivative_in_sqdist(fn, s: float, rel_step: float = 1e-6) -> float:
    """Central finite difference of fn(s) with an s-proportional step."""
    ds = max(abs(s), 1.0) * rel_step
    return (fn(s + ds) - fn(s - ds)) / (2.0 * ds)
