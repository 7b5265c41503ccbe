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
from .sca_trajectory import REL_TOL, Trajectory, straight_line_trajectory
from .scenario import LN2, InfeasibleSite, Scenario, check_feasibility

SCHEME_NAMES = ("proposed", "straight_fly", "successive_hover_fly",
                "egoistic", "altruistic", "upper_bound")

MAX_TSP_SITES = 8


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
    permutation of a leg table. Returns (visit order, path length in m)."""
    k = scenario.n_sites
    if k > MAX_TSP_SITES:
        raise BenchmarkError(
            f"exhaustive tour search refused for K={k} > {MAX_TSP_SITES}")
    pts = [*scenario.site_pos, np.asarray(scenario.uav.u_init),
           np.asarray(scenario.uav.u_final)]
    leg = [[float(np.linalg.norm(b - a)) for b in pts] for a in pts]
    best_order, best_len = None, math.inf
    for perm in itertools.permutations(range(k)):
        stops = (k, *perm, k + 1)
        length = sum(leg[a][b] for a, b in zip(stops, stops[1:]))
        if length < best_len - 1e-12:
            best_order, best_len = perm, length
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
    """Best hover point anywhere. A mode's rate rises with its decoders' gains
    and its UAV power cap numer_k / h_k falls with its TIN sites' gains, so the
    threshold scan (`ra_solver`, a_k = h_hi_k / c_k) with gains at a square's
    nearest and caps at its farthest point bounds every mode on it. A rate is
    at most log2(1 + h_j p_max / c_j) at its weakest decoder j; beyond R of
    every site, where log2(1 + beta0 (H^2 + R^2)^(-alpha/2) p_max / min_k c_k)
    = best, it is below the best at the sites and endpoints: the root square is
    the sites' box grown by R. Squares bounded above best * (1 + REL_TOL) split
    in four; the throughput, max(best, largest pruned bound), is at least the
    supremum and within REL_TOL of the hover point's rate."""
    report = check_feasibility(scenario)
    if report.failing_sites:
        raise InfeasibleScenario(report)
    uav, ch, sites = scenario.uav, scenario.channel, scenario.site_pos
    seeds = np.vstack([sites, uav.u_init, uav.u_final])
    rates = slot_rates_on_points(seeds, scenario)
    best, hover = rates.max(), seeds[rates.argmax()]
    c = (scenario.sigma2_vec + scenario.q_ic_vec * scenario.g_vec).min()
    d2 = (ch.beta0 * uav.p_max / c / np.expm1(best * LN2)) ** (2 / ch.alpha)
    half = np.ptp(sites, 0).max() / 2 + max(d2 - uav.altitude ** 2, 0) ** 0.5
    centres, pruned = (sites.min(axis=0) + sites.max(axis=0))[None] / 2, 0.0
    while len(centres):
        rates = slot_rates_on_points(centres, scenario)
        if rates.max() > best:
            best, hover = rates.max(), centres[rates.argmax()]
        bounds = slot_rates_on_points(centres, scenario, half)
        split = bounds > best * (1.0 + REL_TOL)
        pruned = max(pruned, bounds[~split].max(initial=0.0))
        half /= 2
        centres = (centres[split, None] + half * np.array(
            [[-1, -1], [-1, 1], [1, -1], [1, 1]])).reshape(-1, 2)
    return UpperBoundResult(tuple(map(float, hover)), float(max(best, pruned)))


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
