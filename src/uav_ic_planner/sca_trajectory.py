"""Trajectory optimization under fixed resource allocation.

The non-convex rate expressions are replaced, around a local trajectory, by
first-order surrogates in the squared horizontal distance to each site. The
surrogates are tight at the local point and global under-estimators, so any
step that improves the surrogate objective while keeping the surrogate
constraints satisfied also improves the true objective and keeps the true
constraints satisfied (safe step). The surrogate subproblem is solved by
projected gradient ascent with backtracking from the always-feasible local
point; feasibility of every accepted iterate is verified exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import a2g_gain_points, log2_1p
from .ra_solver import Allocation
from .scenario import (LN2, REACH_REL_TOL, ChannelParams, GbsSite, Scenario,
                       UavParams)

SPEED_ABS_TOL = 1e-9      # m, slack on per-segment length checks
SAFE_STEP_TOL = 1e-8      # bps/Hz, slack on re-verified original constraints
SURROGATE_FEAS_TOL = 1e-9  # bps/Hz, slack on surrogate constraint checks


class ScaError(Exception):
    pass


class SafeStepViolation(ScaError):
    """An accepted iterate broke an original constraint; solver bug."""


@dataclass(frozen=True)
class Trajectory:
    """N+1 horizontal waypoints at fixed altitude; u[0] and u[N] are the
    mission endpoints."""

    waypoints: np.ndarray  # (N+1, 2), m

    def __post_init__(self):
        wp = np.asarray(self.waypoints, dtype=float)
        if wp.ndim != 2 or wp.shape[1] != 2 or wp.shape[0] < 2:
            raise ValueError(f"waypoints must be (N+1, 2), got {wp.shape}")
        object.__setattr__(self, "waypoints", wp)

    @property
    def n_slots(self) -> int:
        return self.waypoints.shape[0] - 1

    def segment_lengths(self) -> np.ndarray:
        return np.linalg.norm(np.diff(self.waypoints, axis=0), axis=1)

    def validate(self, uav: UavParams, tol: float = SPEED_ABS_TOL) -> None:
        if self.n_slots != uav.n_slots:
            raise ValueError(
                f"trajectory has {self.n_slots} slots, scenario {uav.n_slots}")
        if (np.linalg.norm(self.waypoints[0] - np.asarray(uav.u_init)) > tol
                or np.linalg.norm(self.waypoints[-1] - np.asarray(uav.u_final)) > tol):
            raise ValueError("trajectory endpoints do not match the mission")
        # The relative margin matches the feasibility check, which accepts
        # missions whose straight line is within that fraction of the
        # distance budget; such trajectories must validate too.
        v_step = uav.v_max * uav.delta_t * (1.0 + REACH_REL_TOL)
        worst = float(self.segment_lengths().max())
        if worst > v_step + tol:
            raise ValueError(
                f"segment length {worst:.6g} m exceeds speed limit "
                f"{v_step:.6g} m per slot")


def straight_line_trajectory(uav: UavParams) -> Trajectory:
    """Uniform-speed straight line from the initial to the final location."""
    frac = np.linspace(0.0, 1.0, uav.n_slots + 1)[:, None]
    u_i = np.asarray(uav.u_init, dtype=float)
    u_f = np.asarray(uav.u_final, dtype=float)
    return Trajectory((1.0 - frac) * u_i + frac * u_f)


@dataclass(frozen=True)
class ScaConfig:
    max_iters: int = 50        # surrogate rebuild (outer SCA) iterations
    rel_tol: float = 1e-4      # relative objective change stopping rule
    ascent_steps: int = 120    # waypoint sweeps per surrogate subproblem
    trust_ratio: float = 1.0   # per-sweep waypoint move cap, x v_max*delta_t
    aux_weight: float = 1e-6   # pull on slots whose surrogate rate is < 0
    active_slack: float = 1e-6  # bps/Hz, treat constraints this close as active


@dataclass
class ScaResult:
    trajectory: Trajectory
    rates: np.ndarray          # (N,) true per-slot UAV rates, bps/Hz
    objective: float           # bps/Hz
    inner_trace: list[float]   # true objective per SCA iteration (incl. init)
    converged: bool
    iterations: int
    stalls: int = 0


# ---------------------------------------------------------------------------
# Surrogate coefficients (exact derivatives of the rate expressions with
# respect to the squared horizontal distance, at the local point)

def surrogate_coeff_a(p: float, local_u, q_k: float, site: GbsSite,
                      ch: ChannelParams, altitude: float) -> float:
    """Negative slope, in squared-distance space, of the UAV rate at the
    local point. Zero when the UAV does not transmit."""
    if p == 0.0:
        return 0.0
    du = np.asarray(local_u, dtype=float) - np.asarray(site.pos)
    d2 = altitude * altitude + float(du @ du)
    c = site.sigma2 + site.g * q_k
    return (ch.alpha * ch.beta0 * p) / (
        2.0 * LN2 * d2 * (ch.beta0 * p + c * d2 ** (ch.alpha / 2.0)))


def surrogate_coeff_b(p: float, local_u, q_k: float, site: GbsSite,
                      ch: ChannelParams, altitude: float) -> float:
    """Negative slope, in squared-distance space, of the combined received
    power log-term at the local point."""
    if p == 0.0:
        return 0.0
    du = np.asarray(local_u, dtype=float) - np.asarray(site.pos)
    d2 = altitude * altitude + float(du @ du)
    c = site.sigma2 + site.g * q_k
    return (ch.alpha * ch.beta0 * p) / (
        2.0 * LN2 * d2 ** (ch.alpha / 2.0 + 1.0)
        * (c + ch.beta0 * p * d2 ** (-ch.alpha / 2.0)))


def _sqdist(points: np.ndarray, site_pos: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - site_pos[None, :, :]
    return np.einsum("mki,mki->mk", diff, diff)


@dataclass
class Surrogate:
    """Per-slot, per-site linearization around a local trajectory.

    The UAV-rate bound is affine in s = ||u - site||^2:
        rhat[n,k](u) = intercept_a[n,k] - coeff_a[n,k] * s
    The TIN guarantee bound keeps its exact second log-term:
        lhs[n,k](u) = intercept_b[n,k] - coeff_b[n,k] * s
                      - log2(sigma2_k + h_k(u) * p[n])
    """

    scenario: Scenario
    local: np.ndarray        # (N+1, 2)
    p: np.ndarray            # (N,)
    ic_mask: np.ndarray      # (N, K) bool
    tin_mask: np.ndarray     # (N, K) bool, only sites with a rate guarantee
    coeff_a: np.ndarray      # (N, K)
    intercept_a: np.ndarray  # (N, K)
    coeff_b: np.ndarray      # (N, K)
    intercept_b: np.ndarray  # (N, K)

    def rate_bounds_all(self, points: np.ndarray) -> np.ndarray:
        """Surrogate UAV-rate bound for every slot/site pair. points: (N, 2)."""
        s = _sqdist(points, self.scenario.site_pos)
        return self.intercept_a - self.coeff_a * s

    def rate_bounds(self, points: np.ndarray) -> np.ndarray:
        """Per-slot min over IC sites of the surrogate UAV rate (unclamped)."""
        rhat = np.where(self.ic_mask, self.rate_bounds_all(points), np.inf)
        return rhat.min(axis=1)

    def tin_log_bounds_all(self, points: np.ndarray) -> np.ndarray:
        """Surrogate lower bound of log2(sigma2 + h*p + g*q), all slots/sites."""
        s = _sqdist(points, self.scenario.site_pos)
        return self.intercept_b - self.coeff_b * s

    def objective(self, points: np.ndarray) -> tuple[float, float]:
        """(true surrogate objective, line-search objective).

        The line-search objective adds a small pull on slots whose surrogate
        rate bound is negative, so they are not permanently stuck at zero.
        """
        rb = self.rate_bounds(points)
        primary = float(np.maximum(rb, 0.0).mean())
        aux = float(np.minimum(rb, 0.0).mean())
        return primary, primary + 1e-6 * aux


def build_surrogate(local_traj: Trajectory, allocs: Allocation,
                    scenario: Scenario) -> Surrogate:
    sc = scenario
    local = local_traj.waypoints
    n_slots = local.shape[0] - 1
    if len(allocs) != n_slots:
        raise ValueError(f"{len(allocs)} allocations for {n_slots} slots")
    pts = local[1:]
    p, q, tau = allocs.p, allocs.q, allocs.tau
    alpha, beta0 = sc.channel.alpha, sc.channel.beta0

    s_loc = _sqdist(pts, sc.site_pos)
    d2 = sc.uav.altitude ** 2 + s_loc
    h_loc = beta0 * d2 ** (-alpha / 2.0)
    c = sc.sigma2_vec[None, :] + sc.g_vec[None, :] * q
    pcol = p[:, None]

    with np.errstate(divide="ignore"):
        coeff_a = np.where(
            pcol > 0.0,
            (alpha * beta0 * pcol)
            / (2.0 * LN2 * d2 * (beta0 * pcol + c * d2 ** (alpha / 2.0))),
            0.0)
        coeff_b = np.where(
            pcol > 0.0,
            (alpha * beta0 * pcol)
            / (2.0 * LN2 * d2 ** (alpha / 2.0 + 1.0) * (c + h_loc * pcol)),
            0.0)
    intercept_a = log2_1p(h_loc * pcol / c) + coeff_a * s_loc
    intercept_b = np.log2(c + h_loc * pcol) + coeff_b * s_loc

    return Surrogate(
        scenario=sc,
        local=local.copy(),
        p=p,
        ic_mask=tau,
        tin_mask=(~tau) & (sc.gamma_vec[None, :] > 0.0),
        coeff_a=coeff_a,
        intercept_a=intercept_a,
        coeff_b=coeff_b,
        intercept_b=intercept_b,
    )


# ---------------------------------------------------------------------------
# Surrogate subproblem

def _clip_to_disc(pts: np.ndarray, centers: np.ndarray, radius: float) -> np.ndarray:
    """Pull points back onto discs of `radius` around `centers` (rowwise)."""
    delta = pts - centers
    dist = np.linalg.norm(delta, axis=1)
    over = dist > radius
    if np.any(over):
        pts = pts.copy()
        pts[over] = centers[over] + delta[over] * (radius / dist[over])[:, None]
    return pts


def solve_surrogate(surrogate: Surrogate, local_traj: Trajectory,
                    allocs: Allocation, scenario: Scenario,
                    cfg: ScaConfig = ScaConfig(),
                    ) -> tuple[Trajectory, np.ndarray, bool]:
    """Improve the surrogate objective from the local trajectory.

    The slot objectives are separable per waypoint and only the speed
    constraints couple neighbors, so the subproblem is swept Gauss-Seidel
    style: all odd interior waypoints move together against their fixed even
    neighbors, then vice versa. Candidate moves follow the slot gradient,
    are clipped into the two speed discs, and are accepted only if they
    improve the slot objective and keep the surrogate TIN guarantees
    satisfied, so every accepted iterate is exactly feasible. Returns
    (trajectory, per-slot surrogate rate bounds clamped at zero, stalled);
    if no waypoint can improve, the local trajectory is returned unchanged.
    """
    sc = scenario
    uav = sc.uav
    v_step = uav.v_max * uav.delta_t
    site_pos = sc.site_pos
    gamma = sc.gamma_vec
    alpha, beta0 = sc.channel.alpha, sc.channel.beta0
    alt2 = uav.altitude ** 2

    u = local_traj.waypoints.copy()
    n_wp = u.shape[0]
    if n_wp <= 2:
        rates = np.maximum(surrogate.rate_bounds(u[1:]), 0.0)
        return local_traj, rates, True

    def slot_objective(pts: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Per-slot line-search objective at candidate positions."""
        s = _sqdist(pts, site_pos)
        rhat = np.where(surrogate.ic_mask[slots],
                        surrogate.intercept_a[slots] - surrogate.coeff_a[slots] * s,
                        np.inf).min(axis=1)
        return np.maximum(rhat, 0.0) + cfg.aux_weight * np.minimum(rhat, 0.0)

    def tin_ok(pts: np.ndarray, slots: np.ndarray) -> np.ndarray:
        s = _sqdist(pts, site_pos)
        h = beta0 * (alt2 + s) ** (-alpha / 2.0)
        lhs = (surrogate.intercept_b[slots] - surrogate.coeff_b[slots] * s
               - np.log2(sc.sigma2_vec[None, :] + h * surrogate.p[slots, None]))
        lhs = np.where(surrogate.tin_mask[slots], lhs, np.inf)
        return np.all(lhs >= gamma[None, :] - SURROGATE_FEAS_TOL, axis=1)

    def slot_gradient(pts: np.ndarray, slots: np.ndarray) -> np.ndarray:
        m = pts.shape[0]
        diff = pts[:, None, :] - site_pos[None, :, :]
        s = np.einsum("mki,mki->mk", diff, diff)
        rhat = np.where(surrogate.ic_mask[slots],
                        surrogate.intercept_a[slots] - surrogate.coeff_a[slots] * s,
                        np.inf)
        kstar = np.argmin(rhat, axis=1)
        rows = np.arange(m)
        a_star = surrogate.coeff_a[slots, kstar]
        g = -2.0 * a_star[:, None] * diff[rows, kstar, :]

        # Slide along active surrogate TIN guarantees instead of crossing them.
        d2 = alt2 + s
        h = beta0 * d2 ** (-alpha / 2.0)
        pcol = surrogate.p[slots, None]
        lhs = (surrogate.intercept_b[slots] - surrogate.coeff_b[slots] * s
               - np.log2(sc.sigma2_vec[None, :] + h * pcol))
        active = surrogate.tin_mask[slots] & (lhs - gamma[None, :] < cfg.active_slack)
        if np.any(active):
            slope_e = (alpha * beta0 * pcol) / (
                2.0 * LN2 * d2 ** (alpha / 2.0 + 1.0)
                * (sc.sigma2_vec[None, :] + h * pcol))
            for k in range(site_pos.shape[0]):
                rows_k = np.nonzero(active[:, k])[0]
                if rows_k.size == 0:
                    continue
                grad_lhs = 2.0 * (slope_e[rows_k, k]
                                  - surrogate.coeff_b[slots[rows_k], k])[:, None] \
                    * diff[rows_k, k, :]
                nrm2 = np.einsum("mi,mi->m", grad_lhs, grad_lhs)
                dot = np.einsum("mi,mi->m", g[rows_k], grad_lhs)
                adj = np.nonzero((dot < 0.0) & (nrm2 > 1e-30))[0]
                if adj.size:
                    g[rows_k[adj]] -= (dot[adj] / nrm2[adj])[:, None] * grad_lhs[adj]
        return g

    # Red-black schedule over interior waypoints; waypoint n owns slot n,
    # i.e. row n-1 of the per-slot arrays.
    interior = np.arange(1, n_wp - 1)
    groups = [interior[interior % 2 == 1], interior[interior % 2 == 0]]
    step = np.full(n_wp, 0.25 * v_step)
    obj = {}
    for grp in groups:
        obj[grp.tobytes()] = slot_objective(u[grp], grp - 1)

    accepted_any = False
    for _ in range(cfg.ascent_steps):
        moved = False
        for grp in groups:
            if grp.size == 0:
                continue
            slots = grp - 1
            cur = u[grp]
            g = slot_gradient(cur, slots)
            gnorm = np.linalg.norm(g, axis=1)
            movable = gnorm > 1e-18
            if not np.any(movable):
                continue
            direction = np.zeros_like(g)
            direction[movable] = g[movable] / gnorm[movable, None]
            cand = cur + np.minimum(step[grp], cfg.trust_ratio * v_step)[:, None] \
                * direction
            cand = _clip_to_disc(cand, u[grp - 1], v_step * (1.0 - 1e-12))
            cand = _clip_to_disc(cand, u[grp + 1], v_step * (1.0 - 1e-12))
            in_left = np.linalg.norm(cand - u[grp - 1], axis=1) <= v_step
            cand_obj = slot_objective(cand, slots)
            old_obj = obj[grp.tobytes()]
            accept = (movable & in_left & tin_ok(cand, slots)
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
            # Neighbor moves invalidate the cached objective of the other
            # color only through feasibility, which is re-checked anyway.
        if not moved and float(step[interior].max()) < 1e-9 * v_step:
            break

    if not accepted_any:
        rates = np.maximum(surrogate.rate_bounds(local_traj.waypoints[1:]), 0.0)
        return local_traj, rates, True
    rates = np.maximum(surrogate.rate_bounds(u[1:]), 0.0)
    return Trajectory(u), rates, False


# ---------------------------------------------------------------------------
# True-objective evaluation and the SCA loop

def slot_rates(traj: Trajectory, allocs: Allocation,
               scenario: Scenario) -> np.ndarray:
    """True per-slot UAV rates for a fixed allocation: min over IC sites,
    clamped at zero."""
    sc = scenario
    pts = traj.waypoints[1:]
    p, q, tau = allocs.p, allocs.q, allocs.tau
    h = a2g_gain_points(pts, sc.site_pos, sc.channel, sc.uav.altitude)
    rate = log2_1p(h * p[:, None] / (sc.sigma2_vec[None, :] + sc.g_vec[None, :] * q))
    rate = np.where(tau, rate, np.inf).min(axis=1)
    return np.maximum(rate, 0.0)


def trajectory_objective(traj: Trajectory, allocs: Allocation,
                         scenario: Scenario) -> float:
    return float(slot_rates(traj, allocs, scenario).mean())


def verify_safe_step(traj: Trajectory, allocs: Allocation,
                     scenario: Scenario) -> None:
    """Re-check the original constraints with the exact rate expressions."""
    sc = scenario
    traj.validate(sc.uav, tol=SPEED_ABS_TOL)
    pts = traj.waypoints[1:]
    p, q, tau = allocs.p, allocs.q, allocs.tau
    h = a2g_gain_points(pts, sc.site_pos, sc.channel, sc.uav.altitude)
    tin_rate = log2_1p(sc.g_vec[None, :] * q / (sc.sigma2_vec[None, :] + h * p[:, None]))
    tin_mask = (~tau) & (sc.gamma_vec[None, :] > 0.0)
    slack = np.where(tin_mask, tin_rate - sc.gamma_vec[None, :], np.inf)
    worst = float(slack.min())
    if not (worst >= -SAFE_STEP_TOL):  # NaN fails too
        n, k = np.unravel_index(np.argmin(slack), slack.shape)
        raise SafeStepViolation(
            f"GU rate guarantee broken at slot {n + 1}, site {k}: "
            f"slack {worst:.3e} bps/Hz")


def optimize_trajectory(init: Trajectory, allocs: Allocation,
                        scenario: Scenario,
                        cfg: ScaConfig = ScaConfig()) -> ScaResult:
    """Iterate surrogate construction and improvement from `init`.

    The reported trace holds the true fixed-allocation objective, which is
    non-decreasing because each surrogate is tight at its local point and a
    global under-estimator.
    """
    init.validate(scenario.uav)
    trace = [trajectory_objective(init, allocs, scenario)]
    traj = init
    converged = False
    stalls = 0
    iterations = 0
    for _ in range(cfg.max_iters):
        iterations += 1
        surro = build_surrogate(traj, allocs, scenario)
        new_traj, _, stalled = solve_surrogate(surro, traj, allocs, scenario, cfg)
        verify_safe_step(new_traj, allocs, scenario)
        new_obj = trajectory_objective(new_traj, allocs, scenario)
        if not (new_obj >= trace[-1] - 1e-9):
            raise ScaError(
                f"inner objective decreased or is NaN: {trace[-1]:.12g} -> "
                f"{new_obj:.12g}")
        trace.append(new_obj)
        traj = new_traj
        if stalled:
            stalls += 1
            converged = True
            break
        rel = (trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-12)
        if rel < cfg.rel_tol:
            converged = True
            break
    return ScaResult(
        trajectory=traj,
        rates=slot_rates(traj, allocs, scenario),
        objective=trace[-1],
        inner_trace=trace,
        converged=converged,
        iterations=iterations,
        stalls=stalls,
    )
