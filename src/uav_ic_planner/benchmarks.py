"""Comparison schemes: straight-fly, successive hover-fly and the
hover-anywhere upper bound. Egoistic and altruistic decoding are the
planner under a mode constraint (`planner.SCHEME_MODES`)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import planner as planner_mod
from .planner import InfeasibleScenario, Plan, make_plan
from .ra_solver import (slot_rates_on_points, solve_resource_allocation,
                        solve_slot)
from .sca_trajectory import Trajectory, straight_line_trajectory
from .scenario import InfeasibleSite, Scenario, check_feasibility

SCHEME_NAMES = ("proposed", "straight_fly", "successive_hover_fly",
                "egoistic", "altruistic", "upper_bound")

MAX_TSP_SITES = 8
GRID_STEP_M = 5.0  # spacing of the upper bound's hover-point grid
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


def successive_hover_fly(scenario: Scenario) -> Plan:
    """Visit every site along the shortest tour at top speed and spend all
    residual mission time hovering, then discretize onto the slot grid.

    The hover-time split is a linear program whose optimum sits on a simplex
    vertex: all residual time at the site of the best hover rate."""
    report = check_feasibility(scenario)
    if report.failing_sites:
        raise InfeasibleScenario(report)
    order, tour_len = shortest_site_tour(scenario)
    uav = scenario.uav
    t_fly = tour_len / uav.v_max
    if uav.mission_t < t_fly * (1.0 - 1e-9):
        raise InsufficientDuration(t_fly, uav.mission_t)

    # Timeline of 2K + 1 events: fly leg 0, hover at tour site 0, fly leg 1,
    # ..., fly leg K. Event j runs from anchor (j + 1) // 2 to j // 2 + 1.
    anchors = np.vstack([uav.u_init, scenario.site_pos[list(order)],
                         uav.u_final])
    dur = np.zeros(2 * len(order) + 1)
    dur[0::2] = [float(np.linalg.norm(b - a)) / uav.v_max
                 for a, b in zip(anchors, anchors[1:])]
    hover_rates = solve_slot(anchors[1:-1], scenario).r
    dur[2 * int(np.argmax(hover_rates)) + 1] = max(uav.mission_t - t_fly, 0.0)
    j = np.arange(dur.size)
    start, end = anchors[(j + 1) // 2], anchors[j // 2 + 1]

    ends = np.cumsum(dur)
    t = np.arange(uav.n_slots + 1) * uav.delta_t
    idx = np.minimum(np.searchsorted(ends, t, side="left"), dur.size - 1)
    frac = np.divide(t - (ends[idx] - dur[idx]), dur[idx],
                     out=np.zeros_like(t), where=dur[idx] > 0.0)
    waypoints = start[idx] + frac[:, None] * (end[idx] - start[idx])
    waypoints[t > ends[-1]] = anchors[-1]
    waypoints[0] = uav.u_init
    waypoints[-1] = uav.u_final

    traj = Trajectory(waypoints)
    allocs, avg = solve_resource_allocation(traj, scenario)
    return make_plan(traj, allocs, avg, "successive_hover_fly", scenario)


# ---------------------------------------------------------------------------
# Hover-anywhere upper bound

def upper_bound(scenario: Scenario) -> UpperBoundResult:
    """Exhaustive 2D search for the best hover point on a GRID_STEP_M grid,
    ignoring the flight constraints; valid as the unlimited-duration
    throughput bound."""
    report = check_feasibility(scenario)
    if report.failing_sites:
        raise InfeasibleScenario(report)
    pts = np.vstack([scenario.site_pos,
                     np.asarray(scenario.uav.u_init)[None, :],
                     np.asarray(scenario.uav.u_final)[None, :]])
    lo = pts.min(axis=0) - GRID_MARGIN_M
    hi = pts.max(axis=0) + GRID_MARGIN_M
    xs = np.arange(lo[0], hi[0] + GRID_STEP_M / 2, GRID_STEP_M)
    ys = np.arange(lo[1], hi[1] + GRID_STEP_M / 2, GRID_STEP_M)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    rates = slot_rates_on_points(grid, scenario)
    best = int(np.argmax(rates))
    return UpperBoundResult(
        hover_point=(float(grid[best, 0]), float(grid[best, 1])),
        throughput=float(rates[best]),
    )


def run_scheme(name: str, scenario: Scenario):
    """Dispatch a scheme by name. Returns (Plan, ConvergenceTrace | None) for
    trajectory schemes and (UpperBoundResult, None) for the upper bound.
    Each scheme function is called through its module global."""
    if name in planner_mod.SCHEME_MODES:
        return planner_mod.solve(scenario, planner_mod.SCHEME_MODES[name])
    if name == "straight_fly":
        return straight_fly(scenario), None
    if name == "successive_hover_fly":
        return successive_hover_fly(scenario), None
    if name == "upper_bound":
        return upper_bound(scenario), None
    raise ValueError(f"unknown scheme {name!r}")


def run_schemes(items: list[tuple[str, Scenario]]) -> list:
    """`run_scheme` for each (name, scenario), the planner's schemes in lock
    step by one `planner.solve_many` call. An item whose scheme finds the
    scenario infeasible or refuses it (e.g. K too large) gets the error."""
    modes = planner_mod.SCHEME_MODES
    stack = [(sc, modes[name]) for name, sc in items if name in modes]
    plans = iter(planner_mod.solve_many(stack))
    outcomes = []
    for name, scenario in items:
        try:
            outcomes.append(next(plans) if name in modes
                            else run_scheme(name, scenario))
        except (InfeasibleScenario, InfeasibleSite, BenchmarkError) as exc:
            outcomes.append(exc)
    return outcomes
