"""Comparison schemes: straight-fly, successive hover-fly and the
hover-anywhere upper bound. Egoistic and altruistic decoding are the
planner under a mode constraint (`planner.SCHEME_MODES`)."""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import planner as planner_mod
from .planner import InfeasibleScenario, Plan, PlannerConfig, make_plan
from .ra_solver import (slot_rates_on_points, solve_resource_allocation,
                        solve_slot)
from .sca_trajectory import Trajectory, straight_line_trajectory
from .scenario import Scenario, check_feasibility

SCHEME_NAMES = ("proposed", "straight_fly", "successive_hover_fly",
                "egoistic", "altruistic", "upper_bound")

MAX_TSP_SITES = 8
DEFAULT_GRID_STEP_M = 5.0
GRID_MARGIN_M = 100.0


class BenchmarkError(Exception):
    pass


class InsufficientDuration(BenchmarkError):
    def __init__(self, needed: float, given: float):
        self.needed = needed
        self.given = given
        super().__init__(
            f"mission duration {given:.4f} s is below the minimum tour time "
            f"{needed:.4f} s")


@dataclass(frozen=True)
class UpperBoundResult:
    hover_point: tuple[float, float]
    throughput: float  # bps/Hz, independent of mission duration
    grid_step: float


def straight_fly(scenario: Scenario) -> Plan:
    """Fly the straight line at uniform speed; allocate optimally per slot."""
    report = check_feasibility(scenario)
    if not report.feasible:
        raise InfeasibleScenario(report)
    traj = straight_line_trajectory(scenario.uav)
    allocs, avg = solve_resource_allocation(traj, scenario)
    return make_plan(traj, allocs, avg, "straight_fly", scenario)


# ---------------------------------------------------------------------------
# Successive hover-fly

def shortest_site_tour(scenario: Scenario) -> tuple[tuple[int, ...], float]:
    """Shortest open path u_init -> (all sites) -> u_final, by exhaustive
    permutation. Returns (visit order, path length in m)."""
    k = scenario.n_sites
    if k > MAX_TSP_SITES:
        raise BenchmarkError(
            f"exhaustive tour search refused for K={k} > {MAX_TSP_SITES}")
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


def allocate_hover_time(rates, total: float) -> np.ndarray:
    """Split `total` hover seconds across sites to maximize rate-weighted
    time. This linear program's optimum sits on a simplex vertex: all time
    at the best rate."""
    rates = np.asarray(rates, dtype=float)
    t = np.zeros_like(rates)
    t[int(np.argmax(rates))] = total
    return t


def successive_hover_fly(scenario: Scenario) -> Plan:
    """Visit every site along the shortest tour at top speed and spend all
    residual mission time hovering, then discretize onto the slot grid."""
    report = check_feasibility(scenario)
    if report.failing_sites:
        raise InfeasibleScenario(report)
    order, tour_len = shortest_site_tour(scenario)
    uav = scenario.uav
    t_fly = tour_len / uav.v_max
    if uav.mission_t < t_fly * (1.0 - 1e-9):
        raise InsufficientDuration(t_fly, uav.mission_t)

    hover_rates = solve_slot(scenario.site_pos[list(order)], scenario).r
    hover = allocate_hover_time(hover_rates, max(uav.mission_t - t_fly, 0.0))

    # Piecewise-constant-speed timeline: fly leg, hover, fly leg, ...
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

    traj = Trajectory(waypoints)
    allocs, avg = solve_resource_allocation(traj, scenario)
    return make_plan(traj, allocs, avg, "successive_hover_fly", scenario)


# ---------------------------------------------------------------------------
# Hover-anywhere upper bound

def upper_bound(scenario: Scenario,
                grid_step: float = DEFAULT_GRID_STEP_M) -> UpperBoundResult:
    """Exhaustive 2D search for the best hover point, ignoring the flight
    constraints; valid as the unlimited-duration throughput bound."""
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    report = check_feasibility(scenario)
    if report.failing_sites:
        raise InfeasibleScenario(report)
    pts = np.vstack([scenario.site_pos,
                     np.asarray(scenario.uav.u_init)[None, :],
                     np.asarray(scenario.uav.u_final)[None, :]])
    lo = pts.min(axis=0) - GRID_MARGIN_M
    hi = pts.max(axis=0) + GRID_MARGIN_M
    xs = np.arange(lo[0], hi[0] + grid_step / 2, grid_step)
    ys = np.arange(lo[1], hi[1] + grid_step / 2, grid_step)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    rates = slot_rates_on_points(grid, scenario)
    best = int(np.argmax(rates))
    return UpperBoundResult(
        hover_point=(float(grid[best, 0]), float(grid[best, 1])),
        throughput=float(rates[best]),
        grid_step=grid_step,
    )


def run_scheme(name: str, scenario: Scenario,
               cfg: PlannerConfig = PlannerConfig(),
               grid_step: float = DEFAULT_GRID_STEP_M):
    """Dispatch a scheme by name. Returns (Plan, ConvergenceTrace | None) for
    trajectory schemes and (UpperBoundResult, None) for the upper bound.
    Each scheme function is called through its module global."""
    if name in planner_mod.SCHEME_MODES:
        return planner_mod.solve(scenario, dataclasses.replace(
            cfg, mode_constraint=planner_mod.SCHEME_MODES[name]))
    if name == "straight_fly":
        return straight_fly(scenario), None
    if name == "successive_hover_fly":
        return successive_hover_fly(scenario), None
    if name == "upper_bound":
        return upper_bound(scenario, grid_step), None
    raise ValueError(f"unknown scheme {name!r}")
