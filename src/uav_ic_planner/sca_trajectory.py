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
REL_TOL = 1e-4            # relative objective gain that stops the SCA loop
AUX_WEIGHT = 1e-6         # line-search pull on slots with a negative bound
# Moves slide along guarantees this close: at 1e-6 waypoints crept along curved
# ones in mm steps up to the sweep cap, and sweeps fall with the slack up to
# 1e-4, no further. A plan may leave ~1e-4 of a guarantee's headroom unused.
ACTIVE_SLACK = 1e-4       # bps/Hz, TIN guarantees this close are active


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
    inner_trace: list[float]   # true objective per SCA iteration (incl. init)

    @property
    def objective(self) -> float:  # bps/Hz
        return self.inner_trace[-1]

    @property
    def converged(self) -> bool:
        return gain_stops(self.inner_trace)


def gain_stops(trace: list[float]) -> bool:
    """The SCA and outer loops' stop test: the last objective in `trace`
    gains less than REL_TOL, relative, on the one before it."""
    return len(trace) > 1 and (
        (trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-12) < REL_TOL)


def extend_trace(trace: list[float], value: float, error: type) -> bool:
    """Append `value` to the objective `trace`, or raise `error` if it is
    NaN or more than 1e-9 below the last one; then `gain_stops(trace)`."""
    if trace and not (value >= trace[-1] - 1e-9):
        raise error(f"objective decreased or is NaN: {trace[-1]:.12g} -> "
                    f"{value:.12g}")
    trace.append(value)
    return gain_stops(trace)


# ---------------------------------------------------------------------------
# Surrogate construction and evaluation

def _log_slope(d2, h, p, c, ch: ChannelParams) -> np.ndarray:
    """Negative slope of log2(c + h * p) in the squared horizontal distance,
    at squared 3D distance d2 and gain h."""
    return (ch.alpha * ch.beta0 * p) / (
        2.0 * LN2 * d2 ** (ch.alpha / 2.0 + 1.0) * (c + h * p))


class _SlotEval(NamedTuple):
    """The surrogate of M slots at candidate positions, site-major; d2, h
    and lhs are None where the TIN guarantees were skipped."""
    diff: np.ndarray  # (2, K, M) x and y offsets from the sites
    d2: np.ndarray    # (K, M) squared 3D distances
    h: np.ndarray     # (K, M) channel gains
    rate: np.ndarray  # (K, M) UAV-rate bounds, inf off the IC sites
    lhs: np.ndarray   # (K, M) TIN guarantee left-hand sides, inf off TIN sites


@dataclass
class Surrogate:
    """Per-slot, per-site linearization around a local trajectory, stored
    site-major: row k of each (K, N) array is site k's, column n-1 slot n's.

    Both log-terms log2(1 + h p / c) and log2(c + h p), c = sigma2_k +
    g_k q[n,k], have the same slope in s = ||u - site||^2, so one `coeff`
    serves both. The UAV-rate bound is affine in s:
        rhat[k,n](u) = intercept_a[k,n] - coeff[k,n] * s
    The TIN guarantee bound keeps its exact second log-term:
        lhs[k,n](u) = intercept_b[k,n] - coeff[k,n] * s
                      - log2(sigma2_k + h_k(u) * p[n])
    """

    scenario: Scenario
    p: np.ndarray            # (N,)
    ic_mask: np.ndarray      # (K, N) bool
    tin_mask: np.ndarray     # (K, N) bool, only sites with a rate guarantee
    coeff: np.ndarray        # (K, N)
    intercept_a: np.ndarray  # (K, N)
    intercept_b: np.ndarray  # (K, N)
    gamma: np.ndarray        # (K, N) rate guarantees; per slot for stacking

    def _at(self, points: np.ndarray, tin: bool = True) -> _SlotEval:
        """The surrogate at `points` (one row per slot, or the transpose of
        x and y planes), its TIN guarantees only if `tin`; inf off the masks
        once `rows` has masked the intercepts. Column n reads slot n only."""
        sc = self.scenario
        diff, s, d2, h = geometry(points, sc)
        cs = self.coeff * s
        rate = self.intercept_a - cs
        if not tin:
            return _SlotEval(diff, None, None, rate, None)
        return _SlotEval(diff, d2, h, rate, self.intercept_b - cs - np.log2(
            sc.sigma2_vec[:, None] + h * self.p))

    def rows(self, sel: slice) -> Surrogate:
        """The surrogate of the slots `sel` (a colour's, say), on contiguous
        copies, its intercepts +inf off its IC and TIN masks."""
        kw = {f.name: np.ascontiguousarray(getattr(self, f.name)[..., sel])
              for f in fields(self) if f.name != "scenario"}
        kw["intercept_a"] = np.where(kw["ic_mask"], kw["intercept_a"], np.inf)
        kw["intercept_b"] = np.where(kw["tin_mask"], kw["intercept_b"], np.inf)
        return replace(self, **kw)


def build_surrogate(local_traj: Trajectory, allocs: Allocation,
                    scenario: Scenario) -> Surrogate:
    sc = scenario
    local = local_traj.waypoints
    n_slots = local.shape[0] - 1
    if len(allocs) != n_slots:
        raise ValueError(f"{len(allocs)} allocations for {n_slots} slots")
    p, q, tau = allocs.p, allocs.q.T, allocs.tau.T

    _, s_loc, d2, h_loc = geometry(local[1:], sc)
    c = sc.sigma2_vec[:, None] + sc.g_vec[:, None] * q

    # Exact derivative of the log-terms with respect to s at the local
    # point; zero where the UAV does not transmit.
    with np.errstate(divide="ignore"):
        coeff = np.where(p > 0.0, _log_slope(d2, h_loc, p, c, sc.channel),
                         0.0)

    return Surrogate(
        scenario=sc,
        p=p,
        ic_mask=np.ascontiguousarray(tau),
        tin_mask=(~tau) & (sc.gamma_vec[:, None] > 0.0),
        coeff=coeff,
        intercept_a=uav_rate(h_loc, p, q, sc) + coeff * s_loc,
        intercept_b=np.log2(c + h_loc * p) + coeff * s_loc,
        gamma=np.broadcast_to(sc.gamma_vec[:, None], coeff.shape),
    )


# ---------------------------------------------------------------------------
# Surrogate subproblem

def _norm(v: np.ndarray) -> np.ndarray:
    """Lengths (M,) of the vectors with x and y planes `v` (2, M)."""
    sq = v * v
    return np.sqrt(sq[0] + sq[1])


def _clip_to_disc(pts: np.ndarray, centers: np.ndarray,
                  radius: np.ndarray) -> None:
    """Pull points (2, M) back onto discs of radii `radius` (M,) around
    `centers`, in place."""
    delta = pts - centers
    dist = _norm(delta)
    over = dist > radius
    np.divide(radius, dist, out=dist, where=over)  # dist > radius >= 0
    np.add(centers, delta * dist, out=pts, where=over)


def _line_search_objective(ev: _SlotEval) -> np.ndarray:
    """Per-slot surrogate rate, plus a small pull on slots whose bound is
    negative so they are not permanently stuck at zero."""
    rhat = np.minimum.reduce(ev.rate)
    return np.maximum(rhat, AUX_WEIGHT * rhat)


def _ascent_direction(surrogate: Surrogate, ev: _SlotEval
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Unit direction (2, M) of each slot's binding surrogate rate bound's
    gradient, x plane first, projected so it slides along the active TIN
    guarantees in `ev` instead of crossing them, zero unless the projected
    gradient's norm is above 1e-18, and that movable mask (M,). `ev` has a
    column per slot of `surrogate`; (K, M) entry (k, n) is flat k M + n."""
    sc = surrogate.scenario
    m = ev.rate.shape[1]
    diff = ev.diff.reshape(2, -1)
    binding = ev.rate.argmin(axis=0) * m + np.arange(m)
    g = -2.0 * surrogate.coeff.take(binding) * diff.take(binding, axis=1)
    if ev.lhs is not None and np.logical_or.reduce(
            active := ev.lhs - surrogate.gamma < ACTIVE_SLACK, axis=None):
        # Listed through the transpose: slot by slot, sites ascending.
        rows_a, k_a = active.T.nonzero()
        flat = k_a * m + rows_a
        # Gradient of each active guarantee; _log_slope gives the slope of
        # its exact log-term log2(sigma2 + h * p).
        slope_e = _log_slope(ev.d2.take(flat), ev.h.take(flat),
                             surrogate.p.take(rows_a), sc.sigma2_vec.take(k_a),
                             sc.channel)
        grad_lhs = 2.0 * (slope_e - surrogate.coeff.take(flat)) \
            * diff.take(flat, axis=1)
        nrm2 = grad_lhs[0] * grad_lhs[0] + grad_lhs[1] * grad_lhs[1]
        # Each slot projects onto its active sites in ascending site order;
        # pass i takes the i-th active site of every slot (one pass if <= 1).
        passes = [slice(None)]
        if rows_a.size > np.count_nonzero(np.logical_or.reduce(active)):
            rank = np.arange(rows_a.size) - np.searchsorted(rows_a, rows_a)
            passes = [rank == i for i in range(int(rank.max()) + 1)]
        for at in passes:
            rows_i, grad_i, nrm2_i = rows_a[at], grad_lhs[:, at], nrm2[at]
            g_i = g[:, rows_i]
            dot = g_i[0] * grad_i[0] + g_i[1] * grad_i[1]
            adj = (dot < 0.0) & (nrm2_i > 1e-30)
            if np.logical_or.reduce(adj):
                np.divide(dot, nrm2_i, out=dot, where=adj)
                np.subtract(g_i, dot * grad_i, out=g_i, where=adj)
                g[:, rows_i] = g_i
    movable = (gnorm := _norm(g)) > 1e-18
    return np.divide(g, gnorm, out=np.zeros(g.shape), where=movable), movable


def _side_by_side(blocks: list, starts: np.ndarray, width: int) -> np.ndarray:
    """The arrays `blocks` side by side on their last axis, block i from
    column starts[i], zeros elsewhere, `width` columns in all."""
    out = np.zeros(blocks[0].shape[:-1] + (width,), blocks[0].dtype)
    for block, start in zip(blocks, starts):
        out[..., start:start + block.shape[-1]] = block
    return out


def _sweep_stack(surrogates: list[Surrogate], waypoints: list[np.ndarray],
                 steps: list[np.ndarray], v_steps: list[float], done: int
                 ) -> tuple[np.ndarray, int]:
    """Sweeps done+1, ... of the problems side by side, in place, until one
    stops or ASCENT_STEPS have run; returns (stopped per problem, sweeps
    done). Column starts[i] + n of every row (x and y planes, steps, one
    slot's reach, the surrogate under the first problem's scenario) is
    problem i's waypoint n and its slot n; endpoint and pad columns are
    zero (no site, step or slope), so they never move. The starts are
    even, so each colour (odd, then even waypoints) is one basic slice. A
    pass carries each waypoint's position, step, line-search objective and
    ascent direction (column-wise: it changes only with an accepted move);
    a zero direction zeroes the step, so `step > 0` marks the movable
    waypoints. A colour with no TIN guarantee skips the TIN terms."""
    sizes = [u.shape[0] for u in waypoints]
    starts = np.cumsum([0] + [n + n % 2 for n in sizes[:-1]])
    n_wp = int(starts[-1]) + sizes[-1]
    surrogate = replace(surrogates[0], **{
        f.name: _side_by_side([getattr(s, f.name)[..., :-1]
                               for s in surrogates], starts + 1, n_wp)
        for f in fields(Surrogate) if f.name != "scenario"})
    planes = _side_by_side([u.T for u in waypoints], starts, n_wp)
    step_all = _side_by_side(steps, starts, n_wp)
    v_steps = np.array(v_steps)
    v_step = _side_by_side([np.full(n, v) for n, v in zip(sizes, v_steps)],
                           starts, n_wp)
    colours = []
    for first in range(1, min(n_wp - 1, 3)):  # odd, then even waypoints
        wp = slice(first, n_wp - 1, 2)
        sub = surrogate.rows(wp)
        tin = bool(sub.tin_mask.any())
        ev = sub._at(planes[:, wp].T, tin)
        direction, movable = _ascent_direction(sub, ev)
        step = step_all[wp]
        step *= movable
        colours.append((
            sub, tin, planes[:, wp], planes[:, first - 1:n_wp - 2:2],
            planes[:, first + 1::2], step, v_step[wp],
            v_step[wp] * (1.0 - 1e-12),
            sub.gamma - SURROGATE_FEAS_TOL if tin else None,
            _line_search_objective(ev), direction))

    stop = np.zeros(len(sizes), dtype=bool)
    while done < ASCENT_STEPS and not np.logical_or.reduce(stop):
        done += 1
        before = planes.copy()
        for (sub, tin, cur, left, right, step, reach, disc, tin_floor, obj,
             direction) in colours:
            # step never exceeds the reach of one slot.
            cand = cur + step * direction
            _clip_to_disc(cand, left, disc)
            _clip_to_disc(cand, right, disc)
            accept = (step > 0.0) & (_norm(cand - left) <= reach)
            cand_ev = sub._at(cand.T, tin)
            cand_obj = _line_search_objective(cand_ev)
            accept &= cand_obj > obj + 1e-14
            if tin:
                accept &= np.logical_and.reduce(cand_ev.lhs >= tin_floor)
            if np.logical_or.reduce(accept):
                new_direction, movable = _ascent_direction(sub, cand_ev)
                np.copyto(cur, cand, where=accept)
                np.copyto(obj, cand_obj, where=accept)
                np.copyto(direction, new_direction, where=accept)
                np.copyto(step, np.minimum(step * 1.5, reach) * movable,
                          where=accept)
            np.multiply(step, 0.5, out=step, where=~accept)
        # A problem stops once its steps have collapsed and it accepted no
        # move, i.e. no waypoint changed (a move raises its slot's objective).
        collapsed = np.maximum.reduceat(step_all, starts) < 1e-9 * v_steps
        if np.logical_or.reduce(collapsed):
            changed = np.logical_or.reduce(planes != before)
            stop = collapsed & ~np.logical_or.reduceat(changed, starts)
    for u, s, first, n in zip(waypoints, steps, starts, sizes):
        u[...] = planes[:, first:first + n].T
        s[...] = step_all[first:first + n]
    return stop, done


def solve_surrogate(surrogates: list[Surrogate], local_trajs: list[Trajectory]
                    ) -> tuple[list[Trajectory], list[bool], bool]:
    """Improve each surrogate's objective from its local trajectory by
    red-black Gauss-Seidel sweeps, the live problems side by side and
    restacked when some stop; the kernel is column-wise, so no bit depends
    on the stack. Moves keep the surrogate TIN guarantees, so every
    accepted iterate is exactly feasible. Returns (trajectories, moved per
    problem, stalled: none moved); an unmoved problem keeps its local
    trajectory."""
    points = [traj.waypoints.copy() for traj in local_trajs]
    v_steps = [s.scenario.uav.v_max * s.scenario.uav.delta_t
               for s in surrogates]  # one slot's reach
    steps = [np.pad(np.full(u.shape[0] - 2, 0.25 * v), 1)  # ends never move
             for u, v in zip(points, v_steps)]
    live, done = list(range(len(surrogates))), 0
    while live and done < ASCENT_STEPS:
        stop, done = _sweep_stack(*([seq[i] for i in live] for seq in (
            surrogates, points, steps, v_steps)), done)
        live = [i for i, s in zip(live, stop) if not s]
    moved = [not np.array_equal(u, traj.waypoints)
             for u, traj in zip(points, local_trajs)]
    trajs = [Trajectory(u) if m else traj
             for u, m, traj in zip(points, moved, local_trajs)]
    return trajs, moved, not any(moved)


# ---------------------------------------------------------------------------
# True-objective evaluation and the SCA loop

def slot_rates(traj: Trajectory, allocs: Allocation,
               scenario: Scenario) -> np.ndarray:
    """True per-slot UAV rates for a fixed allocation: min over IC sites,
    clamped at zero."""
    h = a2g_gain(traj.waypoints[1:], scenario)
    rate = uav_rate(h, allocs.p, allocs.q.T, scenario)
    rate = np.where(allocs.tau.T, rate, np.inf).min(axis=0)
    return np.maximum(rate, 0.0)


def trajectory_objective(traj: Trajectory, allocs: Allocation,
                         scenario: Scenario) -> float:
    return float(slot_rates(traj, allocs, scenario).mean())


def verify_safe_step(traj: Trajectory, allocs: Allocation,
                     scenario: Scenario) -> None:
    """Re-check the original constraints with the exact rate expressions."""
    sc = scenario
    traj.validate(sc.uav)
    gamma = sc.gamma_vec[:, None]
    h = a2g_gain(traj.waypoints[1:], sc)
    tin_rate = gu_rate_tin(h, allocs.p, allocs.q.T, sc)
    slack = np.where((~allocs.tau.T) & (gamma > 0.0), tin_rate - gamma,
                     np.inf).T
    worst = float(slack.min())
    if not (worst >= -SAFE_STEP_TOL):  # NaN fails too
        n, k = np.unravel_index(np.argmin(slack), slack.shape)
        raise SafeStepViolation(
            f"GU rate guarantee broken at slot {n + 1}, site {k}: "
            f"slack {worst:.3e} bps/Hz")


def optimize_trajectory(init: Trajectory, allocs: Allocation,
                        scenario: Scenario) -> ScaResult:
    """`optimize_many` for one problem."""
    return optimize_many([(init, allocs, scenario)])[0]


def optimize_many(problems: list[tuple[Trajectory, Allocation, Scenario]]
                  ) -> list[ScaResult]:
    """Per (init, allocs, scenario) problem, iterate surrogate construction
    and improvement from `init` until the relative objective gain falls
    below REL_TOL, with one `solve_surrogate` call for all problems not yet
    stopped (`planner.solve_many` checks that they share sites, noise,
    channel and altitude). Each trace, of the true objective, never
    decreases: a surrogate is tight at its local point and a global
    under-estimator."""
    for init, _, scenario in problems:
        init.validate(scenario.uav)
    trajs = [init for init, _, _ in problems]
    traces = [[trajectory_objective(*problem)] for problem in problems]
    live = list(range(len(problems)))
    for _ in range(SCA_MAX_ITERS):
        if not live:
            break
        surros = [build_surrogate(trajs[i], *problems[i][1:]) for i in live]
        new_trajs, _, _ = solve_surrogate(surros, [trajs[i] for i in live])
        moving = []
        for i, new_traj in zip(live, new_trajs):
            _, allocs, scenario = problems[i]
            verify_safe_step(new_traj, allocs, scenario)
            trajs[i] = new_traj
            if not extend_trace(traces[i], trajectory_objective(
                    new_traj, allocs, scenario), ScaError):
                moving.append(i)
        live = moving
    return [ScaResult(traj, trace) for traj, trace in zip(trajs, traces)]
