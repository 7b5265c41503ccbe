"""Alternating optimization: per-slot resource allocation and SCA trajectory
updates, with the objective guaranteed non-decreasing across outer iterations
and that guarantee enforced at runtime."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import sca_trajectory as sca
from .channel import a2g_gain, gu_rate_ic, gu_rate_tin, uav_rate
from .ra_solver import Allocation, ModeConstraint, solve_resource_allocation
from .scenario import FeasibilityReport, Scenario, check_feasibility

OUTER_MONOTONE_TOL = 1e-9
COARSE_SLOTS = 200  # slot count of the coarse level on finer grids
RESIDUAL_TOL = -1e-8

# The planner's schemes: one alternating algorithm under each decoding-mode
# constraint. `solve` tags its plans with the name, `run_scheme` dispatches
# on it, and only these schemes have an iteration trace.
SCHEME_MODES: dict[str, ModeConstraint] = {
    "proposed": "any", "egoistic": "egoistic", "altruistic": "altruistic"}


class PlannerError(Exception):
    pass


class InfeasibleScenario(PlannerError):
    def __init__(self, report: FeasibilityReport):
        self.report = report
        reasons = []
        if not report.reach_ok:
            reasons.append(
                f"mission duration too short: needs at least "
                f"{report.min_mission_t:.4f} s of flight time")
        for k in report.failing_sites:
            reasons.append(
                f"site {k}: IC rate at max GU power "
                f"{report.ic_rate_at_max[k]:.6g} bps/Hz is below the "
                f"guarantee")
        super().__init__("; ".join(reasons) or "infeasible scenario")


class MonotonicityError(PlannerError):
    """The outer objective decreased beyond tolerance; contract breach."""


@dataclass(frozen=True)
class PlannerConfig:
    outer_max_iters: int = 30
    rel_tol: float = 1e-4  # relative objective gain that stops either loop
    mode_constraint: ModeConstraint = "any"


@dataclass
class Plan:
    trajectory: sca.Trajectory
    allocations: Allocation
    avg_throughput: float  # bps/Hz
    scheme_tag: str


@dataclass
class ConvergenceTrace:
    outer: list[float]
    inner_per_outer: list[list[float]]
    iterations: int
    converged: bool
    # The COARSE_SLOTS-slot level that seeded this one; None when none ran.
    coarse: ConvergenceTrace | None = None


def _trajectory_step_possible(scenario: Scenario) -> bool:
    """False when straight-fly is already speed-tight, i.e. no feasible move
    exists anywhere along the trajectory."""
    dist = math.dist(scenario.uav.u_init, scenario.uav.u_final)
    budget = scenario.uav.v_max * scenario.uav.mission_t
    return budget - dist > 1e-6 * max(budget, 1.0)


def prolong(traj: sca.Trajectory, n_slots: int) -> sca.Trajectory:
    """Resample a trajectory at `n_slots` equal time steps by piecewise-linear
    interpolation in time. The path is traversed at the same speed at every
    instant, so a speed-feasible trajectory stays speed-feasible for any
    `n_slots`."""
    t_old = np.linspace(0.0, 1.0, traj.n_slots + 1)
    t_new = np.linspace(0.0, 1.0, n_slots + 1)
    return sca.Trajectory(np.column_stack(
        [np.interp(t_new, t_old, col) for col in traj.waypoints.T]))


def _alternate(traj: sca.Trajectory, scenario: Scenario, cfg: PlannerConfig,
               ) -> tuple[sca.Trajectory, Allocation, ConvergenceTrace]:
    """The alternating RA/SCA loop at the scenario's slot count, from `traj`."""
    can_move = _trajectory_step_possible(scenario)
    outer: list[float] = []
    inner_per_outer: list[list[float]] = []
    converged = False
    for i in range(cfg.outer_max_iters):
        allocs, obj = solve_resource_allocation(traj, scenario,
                                                cfg.mode_constraint)
        if outer and not (obj >= outer[-1] - OUTER_MONOTONE_TOL):
            raise MonotonicityError(
                f"outer objective decreased or is NaN: {outer[-1]:.12g} -> "
                f"{obj:.12g}")
        prev = outer[-1] if outer else None
        outer.append(obj)
        if prev is not None:
            rel = (obj - prev) / max(abs(prev), 1e-12)
            if rel < cfg.rel_tol:
                converged = True
                break
        if i == cfg.outer_max_iters - 1 or not can_move:
            if not can_move:
                converged = True
            break
        result = sca.optimize_trajectory(traj, allocs, scenario, cfg.rel_tol)
        inner_per_outer.append(result.inner_trace)
        traj = result.trajectory
    trace = ConvergenceTrace(outer=outer, inner_per_outer=inner_per_outer,
                             iterations=len(outer), converged=converged)
    return traj, allocs, trace


def solve(scenario: Scenario,
          cfg: PlannerConfig = PlannerConfig(),
          initial: sca.Trajectory | None = None
          ) -> tuple[Plan, ConvergenceTrace]:
    """Run the full alternating algorithm from the straight-fly trajectory.

    Without an initial trajectory, a grid finer than COARSE_SLOTS slots is
    planned at COARSE_SLOTS first; that plan's trajectory, prolonged to the
    full grid, is where the full-grid loop starts."""
    report = check_feasibility(scenario)
    if not report.feasible:
        raise InfeasibleScenario(report)
    if cfg.outer_max_iters < 1:
        raise ValueError("outer_max_iters must be >= 1")

    uav = scenario.uav
    coarse = None
    if initial is not None:
        traj = initial
    elif uav.n_slots > COARSE_SLOTS and _trajectory_step_possible(scenario):
        coarse_sc = replace(scenario,
                            uav=replace(uav, n_slots=COARSE_SLOTS))
        coarse_traj, _, coarse = _alternate(
            sca.straight_line_trajectory(coarse_sc.uav), coarse_sc, cfg)
        traj = prolong(coarse_traj, uav.n_slots)
    else:
        traj = sca.straight_line_trajectory(uav)
    traj.validate(uav)

    traj, allocs, trace = _alternate(traj, scenario, cfg)
    trace.coarse = coarse
    tag = {mode: name for name, mode in SCHEME_MODES.items()}[
        cfg.mode_constraint]
    plan = make_plan(traj, allocs, trace.outer[-1], tag, scenario)
    return plan, trace


def make_plan(traj: sca.Trajectory, allocs: Allocation,
              avg_throughput: float, scheme_tag: str,
              scenario: Scenario) -> Plan:
    """A plan that passes the full constraint audit; raises PlannerError
    otherwise, so a NaN or a violation never leaves the planner."""
    plan = Plan(trajectory=traj, allocations=allocs,
                avg_throughput=avg_throughput, scheme_tag=scheme_tag)
    report = evaluate_plan(plan, scenario)
    if not (report.all_satisfied and report.objective_matches):
        raise PlannerError(f"{scheme_tag} plan fails its audit: {report}")
    return plan


@dataclass
class ResidualReport:
    residuals: dict[str, float]  # worst slack per constraint family
    recomputed_objective: float
    objective_matches: bool

    @property
    def all_satisfied(self) -> bool:
        # Written so that a NaN residual counts as a violation.
        return all(r >= RESIDUAL_TOL for r in self.residuals.values())


def evaluate_plan(plan: Plan, scenario: Scenario) -> ResidualReport:
    """Recompute every constraint of the planning problem from scratch and
    report the worst slack per constraint family. NaN propagates into the
    residuals, so it never reads as satisfied."""
    uav = scenario.uav
    wp = plan.trajectory.waypoints
    alloc = plan.allocations
    n_slots = len(alloc)
    shape = (n_slots, scenario.n_sites)
    if (wp.shape[0] != n_slots + 1 or alloc.q.shape != shape
            or alloc.tau.shape != shape or alloc.r.shape != (n_slots,)):
        raise PlannerError("plan dimensions do not match the scenario")
    tau, q, p, r = alloc.tau, alloc.q, alloc.p, alloc.r

    speed, ends = plan.trajectory.flight_slacks(uav)
    h = a2g_gain(wp[1:], scenario)
    rate = uav_rate(h, p[:, None], q, scenario)
    gu = np.where(tau, gu_rate_ic(q, scenario),
                  gu_rate_tin(h, p[:, None], q, scenario))
    res = {
        "speed": speed,
        "endpoints": ends,
        "power_uav": np.min([p.min(), uav.p_max - p.max()]),
        "power_gu": np.min([q.min(), (scenario.q_max_vec - q).min()]),
        "mode_count": tau.sum(axis=1).min() - 1,
        "rate_nonneg": r.min(),
        "uav_rate": np.where(tau, rate - r[:, None], np.inf).min(),
        "gu_rate": (gu - scenario.gamma_vec).min(),
    }
    recomputed = math.fsum(r) / n_slots
    return ResidualReport(
        residuals={name: float(v) for name, v in res.items()},
        recomputed_objective=recomputed,
        objective_matches=abs(recomputed - plan.avg_throughput) <= 1e-9,
    )
