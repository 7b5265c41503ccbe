"""Alternating optimization: per-slot resource allocation and SCA trajectory
updates, with the objective guaranteed non-decreasing across outer iterations
and that guarantee enforced at runtime."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sca_trajectory as sca
# a2g_gain is not called here; it stays bound by this name, as the other
# channel functions are, because the traced benchmark run hooks it here.
from .channel import a2g_gain, gu_rate_ic, gu_rate_tin, uav_rate  # noqa: F401
from .ra_solver import Allocation, ModeConstraint, solve_resource_allocation
from .scenario import FeasibilityReport, Scenario, check_feasibility

OUTER_MONOTONE_TOL = 1e-9
RESIDUAL_TOL = -1e-8


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
    outer_rel_tol: float = 1e-4
    sca: sca.ScaConfig = field(default_factory=sca.ScaConfig)
    mode_constraint: ModeConstraint = "any"


@dataclass
class Plan:
    trajectory: sca.Trajectory
    allocations: Allocation
    avg_throughput: float                  # bps/Hz
    constraint_residuals: dict[str, float]  # worst slack per constraint family
    scheme_tag: str


@dataclass
class ConvergenceTrace:
    outer: list[float]
    inner_per_outer: list[list[float]]
    iterations: int
    converged: bool


def _trajectory_step_possible(scenario: Scenario) -> bool:
    """False when straight-fly is already speed-tight, i.e. no feasible move
    exists anywhere along the trajectory."""
    dist = math.dist(scenario.uav.u_init, scenario.uav.u_final)
    budget = scenario.uav.v_max * scenario.uav.mission_t
    return budget - dist > 1e-6 * max(budget, 1.0)


def solve(scenario: Scenario,
          cfg: PlannerConfig = PlannerConfig(),
          initial: sca.Trajectory | None = None,
          scheme_tag: str | None = None) -> tuple[Plan, ConvergenceTrace]:
    """Run the full alternating algorithm from the straight-fly trajectory."""
    report = check_feasibility(scenario)
    if not report.feasible:
        raise InfeasibleScenario(report)
    if cfg.outer_max_iters < 1:
        raise ValueError("outer_max_iters must be >= 1")

    traj = initial if initial is not None else sca.straight_line_trajectory(scenario.uav)
    traj.validate(scenario.uav)
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
            if rel < cfg.outer_rel_tol:
                converged = True
                break
        if i == cfg.outer_max_iters - 1 or not can_move:
            if not can_move:
                converged = True
            break
        result = sca.optimize_trajectory(traj, allocs, scenario, cfg.sca)
        inner_per_outer.append(result.inner_trace)
        traj = result.trajectory

    tag = scheme_tag or {"any": "proposed", "egoistic": "egoistic",
                         "altruistic": "altruistic"}[cfg.mode_constraint]
    plan = make_plan(traj, allocs, outer[-1], tag, scenario)
    trace = ConvergenceTrace(outer=outer, inner_per_outer=inner_per_outer,
                             iterations=len(outer), converged=converged)
    return plan, trace


def make_plan(traj: sca.Trajectory, allocs: Allocation,
              avg_throughput: float, scheme_tag: str,
              scenario: Scenario) -> Plan:
    plan = Plan(trajectory=traj, allocations=allocs,
                avg_throughput=avg_throughput,
                constraint_residuals={}, scheme_tag=scheme_tag)
    report = evaluate_plan(plan, scenario)
    plan.constraint_residuals = report.residuals
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

    # Speed is checked with the same relative margin as the feasibility
    # test, so boundary missions (straight line exactly fills the distance
    # budget) report non-negative slack.
    v_step = uav.v_max * uav.delta_t * (1.0 + sca.REACH_REL_TOL)
    seg = np.linalg.norm(np.diff(wp, axis=0), axis=1)
    ends = [np.linalg.norm(wp[0] - np.asarray(uav.u_init)),
            np.linalg.norm(wp[-1] - np.asarray(uav.u_final))]
    # Rates from the channel model, one site (column) at a time.
    u, ch = wp[1:], scenario.channel
    rate = np.column_stack([
        uav_rate(p, u, q[:, k], site, ch, uav.altitude)
        for k, site in enumerate(scenario.sites)])
    gu = np.column_stack([
        np.where(tau[:, k], gu_rate_ic(q[:, k], site),
                 gu_rate_tin(p, u, q[:, k], site, ch, uav.altitude))
        for k, site in enumerate(scenario.sites)])
    res = {
        "speed": v_step - seg.max(),
        "endpoints": -np.max(ends),
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
