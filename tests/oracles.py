"""Independent brute-force oracles used to validate the closed-form solvers.

The channel model is written out here once more, for one UAV position and
one site with scalar math, from the paper's expressions: the A2G gain
beta0 (H^2 + ||u - w_k||^2)^(-alpha/2), the UAV rate log2(1 + h p / (sigma2
+ g q)) and the GU rates log2(1 + g q / sigma2) under IC and log2(1 + g q /
(sigma2 + h p)) under TIN. The slot oracles use only these, not
`uav_ic_planner.channel`, so they do not check the kernel against itself.

`enumerate_slot` is the reference for the threshold scan: it enumerates every
admissible decoding mode at one UAV position with scalar closed forms and
applies the tie rule literally. `brute_force_slot_rate` avoids the closed
forms altogether: GU powers are searched on a grid and the UAV power is
swept over a grid, keeping only combinations that satisfy the constraints
evaluated through these scalar formulas. Guarantee checks carry a 1e-9
bps/Hz slack, so grid points landing exactly on a constraint boundary are
not rejected by float rounding.

`reference_hover_fly_waypoints` is the reference for the waypoints of
`benchmarks.successive_hover_fly`: its event list walked slot by slot.

`reference_site_tour` is the reference for `benchmarks.shortest_site_tour`:
every permutation's path rebuilt from the points and every leg's length
computed afresh, with the same leg order and tie rule, so the two must give
the same order and length bit for bit.

`reference_sweep` is the reference for the sweeps of
`sca_trajectory.solve_surrogate`: the red-black waypoint sweeps written
plainly, evaluating the surrogate at the current waypoints and at the
candidates in every colour pass, on fancy-indexed slot rows. It keeps
the slot-major layout: its own (M, K, 2) geometry, evaluation and
line-search objective, reading the site-major surrogate through
transposed (N, K) views. Only the elementwise slope `_log_slope` is
shared, and the arithmetic of every element is the same, since it must
match `solve_surrogate` bit for bit.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

import numpy as np

from uav_ic_planner.benchmarks import shortest_site_tour
from uav_ic_planner.ra_solver import TIE_TOL, solve_slot
from uav_ic_planner.sca_trajectory import (ACTIVE_SLACK, ASCENT_STEPS,
                                           AUX_WEIGHT, SURROGATE_FEAS_TOL,
                                           Surrogate, _log_slope)
from uav_ic_planner.scenario import LN2, Scenario, gu_power_ic


# ---------------------------------------------------------------------------
# The channel model at one UAV position u (horizontal, 2-vector) and one site

def _log2_1p(x: float) -> float:
    return math.log1p(x) / math.log(2.0)


def a2g_gain(u, site, ch, altitude: float) -> float:
    dx = float(u[0]) - site.pos[0]
    dy = float(u[1]) - site.pos[1]
    return ch.beta0 * (altitude ** 2 + (dx * dx + dy * dy)) ** (-ch.alpha / 2.0)


def uav_rate(p, u, q, site, ch, altitude: float) -> float:
    h = a2g_gain(u, site, ch, altitude)
    return _log2_1p(h * p / (site.sigma2 + site.g * q))


def gu_rate_ic(q, site) -> float:
    return _log2_1p(site.g * q / site.sigma2)


def gu_rate_tin(p, u, q, site, ch, altitude: float) -> float:
    h = a2g_gain(u, site, ch, altitude)
    return _log2_1p(site.g * q / (site.sigma2 + h * p))


# ---------------------------------------------------------------------------
# Slot allocation

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
            tin = np.log1p(site.g * site.q_max
                           / (site.sigma2 + h[k] * p_grid)) / LN2
            feasible &= tin >= site.gamma - 1e-9
        if not feasible.any():
            continue
        r = np.full(p_grid.size, math.inf)
        for k in ic_sites:
            site = scenario.sites[k]
            r = np.minimum(
                r, np.log1p(h[k] * p_grid / (site.sigma2 + site.g * q[k]))
                / LN2)
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


# ---------------------------------------------------------------------------
# Red-black surrogate sweeps, two kernel evaluations per colour pass

class _SlotEval(NamedTuple):
    diff: np.ndarray  # (M, K, 2) offsets from the sites
    d2: np.ndarray    # (M, K) squared 3D distances
    h: np.ndarray     # (M, K) channel gains
    rate: np.ndarray  # (M, K) UAV-rate bounds, inf off the IC sites
    lhs: np.ndarray   # (M, K) TIN guarantee left-hand sides, inf off TIN sites


def _surrogate_at(surrogate: Surrogate, points: np.ndarray,
                  slots: np.ndarray) -> _SlotEval:
    """The surrogate of `slots` with their waypoints at `points`."""
    sc = surrogate.scenario
    diff = points[:, None, :] - sc.site_pos[None, :, :]
    s = np.einsum("mki,mki->mk", diff, diff)
    d2 = sc.uav.altitude ** 2 + s
    h = sc.channel.beta0 * d2 ** (-sc.channel.alpha / 2.0)
    coeff = surrogate.coeff.T[slots]
    rate = np.where(surrogate.ic_mask.T[slots],
                    surrogate.intercept_a.T[slots] - coeff * s, np.inf)
    lhs = np.where(surrogate.tin_mask.T[slots],
                   surrogate.intercept_b.T[slots] - coeff * s
                   - np.log2(sc.sigma2_vec[None, :]
                             + h * surrogate.p[slots, None]),
                   np.inf)
    return _SlotEval(diff, d2, h, rate, lhs)


def _line_search_objective(ev: _SlotEval) -> np.ndarray:
    rhat = np.min(ev.rate, axis=1)
    return np.where(rhat >= 0.0, rhat, AUX_WEIGHT * rhat)


def _clip_to_disc(pts, centers, radius):
    delta = pts - centers
    dist = np.linalg.norm(delta, axis=1)
    over = dist > radius
    if np.any(over):
        pts = pts.copy()
        pts[over] = centers[over] + delta[over] * (radius / dist[over])[:, None]
    return pts


def _ascent_direction(surrogate: Surrogate, ev: _SlotEval,
                      slots: np.ndarray) -> np.ndarray:
    sc = surrogate.scenario
    rows = np.arange(slots.size)
    coeff = surrogate.coeff.T
    kstar = np.argmin(ev.rate, axis=1)
    a_star = coeff[slots, kstar]
    g = -2.0 * a_star[:, None] * ev.diff[rows, kstar, :]

    active = ev.lhs - sc.gamma_vec[None, :] < ACTIVE_SLACK
    if np.any(active):
        slope_e = _log_slope(ev.d2, ev.h, surrogate.p[slots, None],
                             sc.sigma2_vec[None, :], sc.channel)
        for k in range(sc.n_sites):
            rows_k = np.nonzero(active[:, k])[0]
            if rows_k.size == 0:
                continue
            grad_lhs = 2.0 * (slope_e[rows_k, k]
                              - coeff[slots[rows_k], k])[:, None] \
                * ev.diff[rows_k, k, :]
            nrm2 = np.einsum("mi,mi->m", grad_lhs, grad_lhs)
            dot = np.einsum("mi,mi->m", g[rows_k], grad_lhs)
            adj = np.nonzero((dot < 0.0) & (nrm2 > 1e-30))[0]
            if adj.size:
                g[rows_k[adj]] -= (dot[adj] / nrm2[adj])[:, None] * grad_lhs[adj]
    return g


def reference_sweep(surrogate: Surrogate, u: np.ndarray) -> bool:
    """Red-black sweeps over the interior waypoints of `u`, in place; True
    if any move was accepted."""
    uav = surrogate.scenario.uav
    v_step = uav.v_max * uav.delta_t
    tin_floor = surrogate.scenario.gamma_vec[None, :] - SURROGATE_FEAS_TOL
    n_wp = u.shape[0]
    interior = np.arange(1, n_wp - 1)
    groups = [interior[interior % 2 == 1], interior[interior % 2 == 0]]
    step = np.full(n_wp, 0.25 * v_step)
    objs = [_line_search_objective(_surrogate_at(surrogate, u[grp], grp - 1))
            for grp in groups]

    accepted_any = False
    for _ in range(ASCENT_STEPS):
        moved = False
        for grp, old_obj in zip(groups, objs):
            if grp.size == 0:
                continue
            slots = grp - 1
            cur = u[grp]
            g = _ascent_direction(surrogate,
                                  _surrogate_at(surrogate, cur, slots), slots)
            gnorm = np.linalg.norm(g, axis=1)
            movable = gnorm > 1e-18
            if not np.any(movable):
                continue
            direction = np.zeros_like(g)
            direction[movable] = g[movable] / gnorm[movable, None]
            cand = cur + step[grp][:, None] * direction
            cand = _clip_to_disc(cand, u[grp - 1], v_step * (1.0 - 1e-12))
            cand = _clip_to_disc(cand, u[grp + 1], v_step * (1.0 - 1e-12))
            in_left = np.linalg.norm(cand - u[grp - 1], axis=1) <= v_step
            ev = _surrogate_at(surrogate, cand, slots)
            cand_obj = _line_search_objective(ev)
            accept = (movable & in_left
                      & np.all(ev.lhs >= tin_floor, axis=1)
                      & (cand_obj > old_obj + 1e-14))
            if np.any(accept):
                idx = grp[accept]
                u[idx] = cand[accept]
                old_obj[accept] = cand_obj[accept]
                step[idx] = np.minimum(step[idx] * 1.5, v_step)
                moved = True
                accepted_any = True
            reject = movable & ~accept
            step[grp[reject]] *= 0.5
        if not moved and float(step[interior].max()) < 1e-9 * v_step:
            break
    return accepted_any


def reference_site_tour(scenario: Scenario) -> tuple[tuple[int, ...], float]:
    """Shortest open path u_init -> (all sites) -> u_final, by exhaustive
    permutation. Returns (visit order, path length in m)."""
    k = scenario.n_sites
    u_i = np.asarray(scenario.uav.u_init)
    u_f = np.asarray(scenario.uav.u_final)
    pos = scenario.site_pos
    best_order: tuple[int, ...] | None = None
    best_len = math.inf
    for perm in itertools.permutations(range(k)):
        pts = [u_i] + [pos[j] for j in perm] + [u_f]
        length = sum(float(np.linalg.norm(b - a))
                     for a, b in zip(pts, pts[1:]))
        if length < best_len - 1e-12:
            best_len = length
            best_order = perm
    return best_order, best_len


def reference_hover_fly_waypoints(scenario: Scenario) -> np.ndarray:
    """Successive hover-fly waypoints: fly the shortest tour at top speed,
    hover all residual time at the tour site of the best hover rate, and
    sample the timeline of (start, end, duration) events at every slot."""
    order, tour_len = shortest_site_tour(scenario)
    uav = scenario.uav
    hover_rates = solve_slot(scenario.site_pos[list(order)], scenario).r
    hover = np.zeros_like(hover_rates)
    hover[int(np.argmax(hover_rates))] = max(
        uav.mission_t - tour_len / uav.v_max, 0.0)
    anchors = ([np.asarray(uav.u_init, dtype=float)]
               + [scenario.site_pos[j] for j in order]
               + [np.asarray(uav.u_final, dtype=float)])
    events: list[tuple[np.ndarray, np.ndarray, float]] = []
    for i, (a, b) in enumerate(zip(anchors, anchors[1:])):
        events.append((a, b, float(np.linalg.norm(b - a)) / uav.v_max))
        if i < len(order):
            events.append((b, b, float(hover[i])))

    times = np.cumsum([e[2] for e in events])
    waypoints = np.empty((uav.n_slots + 1, 2))
    for n in range(uav.n_slots + 1):
        t = n * uav.delta_t
        idx = int(np.searchsorted(times, t, side="left"))
        if idx >= len(events):
            waypoints[n] = anchors[-1]
            continue
        start, end, dur = events[idx]
        t0 = times[idx] - dur
        frac = 0.0 if dur <= 0.0 else (t - t0) / dur
        waypoints[n] = start + frac * (end - start)
    waypoints[0] = uav.u_init
    waypoints[-1] = uav.u_final
    return waypoints
