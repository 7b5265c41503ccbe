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

from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .channel import a2g_gain, geometry, gu_rate_tin, uav_rate
from .ra_solver import Allocation
from .scenario import LN2, REACH_REL_TOL, ChannelParams, Scenario, UavParams

SPEED_ABS_TOL = 1e-9      # m, slack on per-segment length checks
SAFE_STEP_TOL = 1e-8      # bps/Hz, slack on re-verified original constraints
SURROGATE_FEAS_TOL = 1e-9  # bps/Hz, slack on surrogate constraint checks
ASCENT_STEPS = 120        # red-black waypoint sweeps per surrogate subproblem
SCA_MAX_ITERS = 50        # surrogate rebuilds per trajectory update
AUX_WEIGHT = 1e-6         # line-search pull on slots with a negative bound
ACTIVE_SLACK = 1e-6       # bps/Hz, TIN guarantees this close are active


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

    def flight_slacks(self, uav: UavParams) -> tuple[float, float]:
        """Worst (speed, endpoint) slacks in m; negative or NaN is a
        violation. The speed budget has the feasibility check's relative
        margin, which accepts missions whose straight line is within that
        fraction of the distance budget; such trajectories must pass too."""
        v_step = uav.v_max * uav.delta_t * (1.0 + REACH_REL_TOL)
        ends = [np.linalg.norm(self.waypoints[0] - np.asarray(uav.u_init)),
                np.linalg.norm(self.waypoints[-1] - np.asarray(uav.u_final))]
        return (float(v_step - self.segment_lengths().max()),
                float(-np.max(ends)))

    def validate(self, uav: UavParams) -> None:
        if self.n_slots != uav.n_slots:
            raise ValueError(
                f"trajectory has {self.n_slots} slots, scenario {uav.n_slots}")
        speed, ends = self.flight_slacks(uav)
        # Written so that a NaN waypoint fails.
        if not (ends >= -SPEED_ABS_TOL):
            raise ValueError("trajectory endpoints do not match the mission")
        if not (speed >= -SPEED_ABS_TOL):
            raise ValueError(
                f"a segment exceeds the speed limit by {-speed:.6g} m")


def straight_line_trajectory(uav: UavParams) -> Trajectory:
    """Uniform-speed straight line from the initial to the final location."""
    frac = np.linspace(0.0, 1.0, uav.n_slots + 1)[:, None]
    u_i = np.asarray(uav.u_init, dtype=float)
    u_f = np.asarray(uav.u_final, dtype=float)
    return Trajectory((1.0 - frac) * u_i + frac * u_f)


@dataclass
class ScaResult:
    trajectory: Trajectory
    objective: float           # bps/Hz
    inner_trace: list[float]   # true objective per SCA iteration (incl. init)
    converged: bool
    iterations: int


# ---------------------------------------------------------------------------
# Surrogate construction and evaluation

def _log_slope(d2, h, pcol, c, ch: ChannelParams) -> np.ndarray:
    """Negative slope of log2(c + h * p) in the squared horizontal distance,
    at squared 3D distance d2 and gain h."""
    return (ch.alpha * ch.beta0 * pcol) / (
        2.0 * LN2 * d2 ** (ch.alpha / 2.0 + 1.0) * (c + h * pcol))


class _SlotEval(NamedTuple):
    """The surrogate of a set of slots at candidate positions (M of them)."""
    diff: np.ndarray  # (M, K, 2) offsets from the sites
    d2: np.ndarray    # (M, K) squared 3D distances
    h: np.ndarray     # (M, K) channel gains
    rate: np.ndarray  # (M, K) UAV-rate bounds, inf off the IC sites
    lhs: np.ndarray   # (M, K) TIN guarantee left-hand sides, inf off TIN sites


@dataclass
class Surrogate:
    """Per-slot, per-site linearization around a local trajectory.

    Both log-terms log2(1 + h p / c) and log2(c + h p), c = sigma2_k +
    g_k q[n,k], have the same slope in s = ||u - site||^2, so one `coeff`
    serves both. The UAV-rate bound is affine in s:
        rhat[n,k](u) = intercept_a[n,k] - coeff[n,k] * s
    The TIN guarantee bound keeps its exact second log-term:
        lhs[n,k](u) = intercept_b[n,k] - coeff[n,k] * s
                      - log2(sigma2_k + h_k(u) * p[n])
    """

    scenario: Scenario
    p: np.ndarray            # (N,)
    ic_mask: np.ndarray      # (N, K) bool
    tin_mask: np.ndarray     # (N, K) bool, only sites with a rate guarantee
    coeff: np.ndarray        # (N, K)
    intercept_a: np.ndarray  # (N, K)
    intercept_b: np.ndarray  # (N, K)

    def _at(self, points: np.ndarray) -> _SlotEval:
        """Evaluate the surrogate with the waypoints at `points` (one row
        per slot). Row-wise: a row depends on its own point and slot only."""
        sc = self.scenario
        diff, s, d2, h = geometry(points, sc)
        rate = np.where(self.ic_mask, self.intercept_a - self.coeff * s,
                        np.inf)
        lhs = np.where(self.tin_mask,
                       self.intercept_b - self.coeff * s
                       - np.log2(sc.sigma2_vec[None, :] + h * self.p[:, None]),
                       np.inf)
        return _SlotEval(diff, d2, h, rate, lhs)

    def rows(self, sel: slice) -> Surrogate:
        """The surrogate of the slots `sel`, on views of the per-slot
        arrays."""
        return replace(self, **{f.name: getattr(self, f.name)[sel]
                                for f in fields(self) if f.name != "scenario"})

    def rate_bounds(self, points: np.ndarray) -> np.ndarray:
        """Per-slot min over IC sites of the surrogate UAV rate (unclamped).
        points: (N, 2)."""
        return self._at(points).rate.min(axis=1)


def build_surrogate(local_traj: Trajectory, allocs: Allocation,
                    scenario: Scenario) -> Surrogate:
    sc = scenario
    local = local_traj.waypoints
    n_slots = local.shape[0] - 1
    if len(allocs) != n_slots:
        raise ValueError(f"{len(allocs)} allocations for {n_slots} slots")
    p, q, tau = allocs.p, allocs.q, allocs.tau

    _, s_loc, d2, h_loc = geometry(local[1:], sc)
    c = sc.sigma2_vec[None, :] + sc.g_vec[None, :] * q
    pcol = p[:, None]

    # Exact derivative of the log-terms with respect to s at the local
    # point; zero where the UAV does not transmit.
    with np.errstate(divide="ignore"):
        coeff = np.where(pcol > 0.0,
                         _log_slope(d2, h_loc, pcol, c, sc.channel), 0.0)

    return Surrogate(
        scenario=sc,
        p=p,
        ic_mask=tau,
        tin_mask=(~tau) & (sc.gamma_vec[None, :] > 0.0),
        coeff=coeff,
        intercept_a=uav_rate(h_loc, pcol, q, sc) + coeff * s_loc,
        intercept_b=np.log2(c + h_loc * pcol) + coeff * s_loc,
    )


# ---------------------------------------------------------------------------
# Surrogate subproblem

def _clip_to_disc(pts: np.ndarray, centers: np.ndarray, radius: float) -> np.ndarray:
    """Pull points back onto discs of `radius` around `centers` (rowwise)."""
    delta = pts - centers
    dist = np.sqrt(np.einsum("mi,mi->m", delta, delta))
    over = dist > radius
    if np.any(over):
        pts = pts.copy()
        pts[over] = centers[over] + delta[over] * (radius / dist[over])[:, None]
    return pts


def _line_search_objective(ev: _SlotEval) -> np.ndarray:
    """Per-slot surrogate rate, plus a small pull on slots whose bound is
    negative so they are not permanently stuck at zero."""
    rhat = ev.rate.min(axis=1)
    return np.maximum(rhat, 0.0) + AUX_WEIGHT * np.minimum(rhat, 0.0)


def _ascent_direction(surrogate: Surrogate, ev: _SlotEval) -> np.ndarray:
    """Gradient of each slot's binding surrogate rate bound, projected so
    that it slides along active surrogate TIN guarantees instead of
    crossing them. `ev` holds one row per slot of `surrogate`."""
    sc = surrogate.scenario
    rows = np.arange(ev.rate.shape[0])
    kstar = np.argmin(ev.rate, axis=1)
    a_star = surrogate.coeff[rows, kstar]
    g = -2.0 * a_star[:, None] * ev.diff[rows, kstar, :]

    active = ev.lhs - sc.gamma_vec[None, :] < ACTIVE_SLACK
    if np.any(active):
        # Slope of the exact log-term log2(sigma2 + h * p) of the guarantee.
        slope_e = _log_slope(ev.d2, ev.h, surrogate.p[:, None],
                             sc.sigma2_vec[None, :], sc.channel)
        for k in np.flatnonzero(active.any(axis=0)):
            rows_k = np.flatnonzero(active[:, k])
            grad_lhs = 2.0 * (slope_e[rows_k, k]
                              - surrogate.coeff[rows_k, k])[:, None] \
                * ev.diff[rows_k, k, :]
            nrm2 = np.einsum("mi,mi->m", grad_lhs, grad_lhs)
            dot = np.einsum("mi,mi->m", g[rows_k], grad_lhs)
            adj = np.flatnonzero((dot < 0.0) & (nrm2 > 1e-30))
            if adj.size:
                g[rows_k[adj]] -= (dot[adj] / nrm2[adj])[:, None] * grad_lhs[adj]
    return g


def _sweep(surrogate: Surrogate, u: np.ndarray) -> bool:
    """Red-black sweeps over the interior waypoints of `u`, in place; True
    if any move was accepted. Waypoint n owns slot n, i.e. row n-1 of the
    per-slot arrays.

    Each colour (odd, then even waypoints) works on basic-slice views: its
    waypoints, their neighbours, its slots' surrogate and its step sizes.
    The kernel is row-wise, so the evaluation at the current waypoints is
    carried from pass to pass, taking the accepted rows of the candidates'
    evaluation, and each pass evaluates the candidates only."""
    uav = surrogate.scenario.uav
    v_step = uav.v_max * uav.delta_t
    tin_floor = surrogate.scenario.gamma_vec[None, :] - SURROGATE_FEAS_TOL
    n_wp = u.shape[0]
    steps = np.full(n_wp, 0.25 * v_step)
    colours = []
    for first in range(1, min(n_wp - 1, 3)):  # odd, then even waypoints
        wp = slice(first, n_wp - 1, 2)
        sub = surrogate.rows(slice(first - 1, n_wp - 2, 2))
        ev = sub._at(u[wp])
        colours.append((sub, u[wp], u[first - 1:n_wp - 2:2], u[first + 1::2],
                        steps[wp], ev, _line_search_objective(ev)))

    accepted_any = False
    for _ in range(ASCENT_STEPS):
        moved = False
        for sub, cur, left, right, step, ev, obj in colours:
            g = _ascent_direction(sub, ev)
            gnorm = np.sqrt(np.einsum("mi,mi->m", g, g))
            movable = gnorm > 1e-18
            if not np.any(movable):
                continue
            direction = np.zeros_like(g)
            direction[movable] = g[movable] / gnorm[movable, None]
            # step never exceeds v_step, the reach of one slot.
            cand = cur + step[:, None] * direction
            cand = _clip_to_disc(cand, left, v_step * (1.0 - 1e-12))
            cand = _clip_to_disc(cand, right, v_step * (1.0 - 1e-12))
            delta = cand - left
            in_left = np.sqrt(np.einsum("mi,mi->m", delta, delta)) <= v_step
            cand_ev = sub._at(cand)
            cand_obj = _line_search_objective(cand_ev)
            accept = (movable & in_left
                      & np.all(cand_ev.lhs >= tin_floor, axis=1)
                      & (cand_obj > obj + 1e-14))
            if np.any(accept):
                cur[accept] = cand[accept]
                obj[accept] = cand_obj[accept]
                for held, new in zip(ev, cand_ev):
                    held[accept] = new[accept]
                step[accept] = np.minimum(step[accept] * 1.5, v_step)
                moved = accepted_any = True
            step[movable & ~accept] *= 0.5
        if not moved and float(steps[1:-1].max()) < 1e-9 * v_step:
            break
    return accepted_any


def solve_surrogate(surrogate: Surrogate, local_traj: Trajectory
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
    u = local_traj.waypoints.copy()
    moved = u.shape[0] > 2 and _sweep(surrogate, u)
    traj = Trajectory(u) if moved else local_traj
    rates = np.maximum(surrogate.rate_bounds(traj.waypoints[1:]), 0.0)
    return traj, rates, not moved


# ---------------------------------------------------------------------------
# True-objective evaluation and the SCA loop

def slot_rates(traj: Trajectory, allocs: Allocation,
               scenario: Scenario) -> np.ndarray:
    """True per-slot UAV rates for a fixed allocation: min over IC sites,
    clamped at zero."""
    h = a2g_gain(traj.waypoints[1:], scenario)
    rate = uav_rate(h, allocs.p[:, None], allocs.q, scenario)
    rate = np.where(allocs.tau, rate, np.inf).min(axis=1)
    return np.maximum(rate, 0.0)


def trajectory_objective(traj: Trajectory, allocs: Allocation,
                         scenario: Scenario) -> float:
    return float(slot_rates(traj, allocs, scenario).mean())


def verify_safe_step(traj: Trajectory, allocs: Allocation,
                     scenario: Scenario) -> None:
    """Re-check the original constraints with the exact rate expressions."""
    sc = scenario
    traj.validate(sc.uav)
    h = a2g_gain(traj.waypoints[1:], sc)
    tin_rate = gu_rate_tin(h, allocs.p[:, None], allocs.q, sc)
    tin_mask = (~allocs.tau) & (sc.gamma_vec[None, :] > 0.0)
    slack = np.where(tin_mask, tin_rate - sc.gamma_vec[None, :], np.inf)
    worst = float(slack.min())
    if not (worst >= -SAFE_STEP_TOL):  # NaN fails too
        n, k = np.unravel_index(np.argmin(slack), slack.shape)
        raise SafeStepViolation(
            f"GU rate guarantee broken at slot {n + 1}, site {k}: "
            f"slack {worst:.3e} bps/Hz")


def optimize_trajectory(init: Trajectory, allocs: Allocation,
                        scenario: Scenario, rel_tol: float = 1e-4) -> ScaResult:
    """Iterate surrogate construction and improvement from `init` until the
    relative objective gain falls below `rel_tol`.

    The reported trace holds the true fixed-allocation objective, which is
    non-decreasing because each surrogate is tight at its local point and a
    global under-estimator.
    """
    init.validate(scenario.uav)
    trace = [trajectory_objective(init, allocs, scenario)]
    traj = init
    converged = False
    iterations = 0
    for _ in range(SCA_MAX_ITERS):
        iterations += 1
        surro = build_surrogate(traj, allocs, scenario)
        new_traj, _, stalled = solve_surrogate(surro, traj)
        verify_safe_step(new_traj, allocs, scenario)
        new_obj = trajectory_objective(new_traj, allocs, scenario)
        if not (new_obj >= trace[-1] - 1e-9):
            raise ScaError(
                f"inner objective decreased or is NaN: {trace[-1]:.12g} -> "
                f"{new_obj:.12g}")
        trace.append(new_obj)
        traj = new_traj
        if stalled:
            converged = True
            break
        rel = (trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-12)
        if rel < rel_tol:
            converged = True
            break
    return ScaResult(
        trajectory=traj,
        objective=trace[-1],
        inner_trace=trace,
        converged=converged,
        iterations=iterations,
    )
