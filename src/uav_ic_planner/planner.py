"""Alternating optimization: per-slot resource allocation and SCA trajectory
updates, with the objective guaranteed non-decreasing across outer iterations
and that guarantee enforced at runtime."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import sca_trajectory as sca
from .channel import a2g_gain, gu_rate_ic, gu_rate_tin, uav_rate
from .ra_solver import (Allocation, ModeConstraint, check_mode_constraint,
                        solve_resource_allocation)
from .scenario import FeasibilityReport, Scenario, check_feasibility

OUTER_MAX_ITERS = 30  # RA passes per slot grid; sca.REL_TOL also stops it
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
    converged: bool
    # The coarser level that seeded this one; None when none ran.
    coarse: ConvergenceTrace | None = None

    @property
    def iterations(self) -> int:
        return len(self.outer)


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


def _alternate(problems: list[tuple[Scenario, ModeConstraint,
                                     sca.Trajectory | None]],
               ) -> list[tuple[sca.Trajectory, Allocation, ConvergenceTrace]]:
    """The alternating RA/SCA loop of each (scenario, mode constraint, start)
    problem in lock step, from straight-fly (start None) or from the start
    prolonged to the problem's grid. Each outer round runs RA per problem not
    yet stopped, then one SCA loop for them all, in which problems with equal
    scenario, waypoints and allocation are one (e.g. `proposed` and
    `egoistic` after RA); each gets its own trace."""
    trajs = [sca.straight_line_trajectory(sc.uav) if start is None
             else prolong(start, sc.uav.n_slots) for sc, _, start in problems]
    allocs = [None] * len(problems)
    traces = [ConvergenceTrace([], [], False) for _ in problems]
    live = range(len(problems))
    for it in range(OUTER_MAX_ITERS):
        moving = []
        for i in live:
            scenario, mode_constraint, _ = problems[i]
            allocs[i], obj = solve_resource_allocation(trajs[i], scenario,
                                                       mode_constraint)
            if (sca.extend_trace(traces[i].outer, obj, MonotonicityError)
                    or not _trajectory_step_possible(scenario)):
                traces[i].converged = True
            elif it < OUTER_MAX_ITERS - 1:
                moving.append(i)
        if not moving:
            break
        groups = {}
        for i in moving:
            groups.setdefault((problems[i][0], *(a.tobytes() for a in (
                trajs[i].waypoints, *vars(allocs[i]).values()))), []).append(i)
        stack = [(trajs[i], allocs[i], problems[i][0])
                 for i, *_ in groups.values()]
        # perfbench's tracer times the one-problem entry point.
        results = (sca.optimize_many(stack) if len(stack) > 1
                   else [sca.optimize_trajectory(*stack[0])])
        for members, result in zip(groups.values(), results):
            for j, i in enumerate(members):
                traces[i].inner_per_outer.append(
                    result.inner_trace[:] if j else result.inner_trace)
                trajs[i] = result.trajectory
        live = moving
    return list(zip(trajs, allocs, traces))


def _stack_key(scenario: Scenario) -> dict:
    """What the stacked SCA reads from a stack's first problem only."""
    return {"site positions": scenario.site_pos.tolist(),
            "noise powers": scenario.sigma2_vec.tolist(),
            "channel": scenario.channel, "altitude": scenario.uav.altitude}


def solve(scenario: Scenario, mode_constraint: ModeConstraint = "any"
          ) -> tuple[Plan, ConvergenceTrace]:
    """Run the full alternating algorithm from the straight-fly trajectory,
    over the levels of `solve_many` (a COARSE_SLOTS level on finer grids)."""
    result = solve_many([(scenario, mode_constraint)])[0]
    if isinstance(result, InfeasibleScenario):
        raise result
    return result


def solve_many(problems: list[tuple[Scenario, ModeConstraint]]
               ) -> list[tuple[Plan, ConvergenceTrace] | InfeasibleScenario]:
    """`solve` for several (scenario, mode constraint) problems in lock
    step: each gets the plan and trace `solve` gives it, or its
    InfeasibleScenario. The one check that they share site positions, noise
    powers, channel and altitude (as sweep points do) raises ValueError."""
    keys = [_stack_key(sc) for sc, _ in problems]
    for i, ((_, mode_constraint), key) in enumerate(zip(problems, keys)):
        check_mode_constraint(mode_constraint)
        differ = [name for name in key if key[name] != keys[0][name]]
        if differ:
            raise ValueError(f"problem {i} of a stack differs from problem "
                             f"0 in its {', '.join(differ)}")
    results = [None if report.feasible else InfeasibleScenario(report)
               for report in (check_feasibility(sc) for sc, _ in problems)]
    # Each feasible problem's levels, coarsest first: a COARSE_SLOTS level
    # before any finer grid that has room to move.
    levels = {i: [(replace(sc, uav=replace(sc.uav, n_slots=n)), mode)
                  for n in (COARSE_SLOTS,) if n < sc.uav.n_slots
                  and _trajectory_step_possible(sc)] + [(sc, mode)]
              for i, (sc, mode) in enumerate(problems) if results[i] is None}
    # Stage d is one stack of the problems with d levels left, each started
    # from its previous level's trajectory (None: straight-fly).
    tags = {mode: name for name, mode in SCHEME_MODES.items()}
    starts, coarse = dict.fromkeys(levels), dict.fromkeys(levels)
    for d in range(max(map(len, levels.values()), default=0), 0, -1):
        stage = [i for i in levels if len(levels[i]) >= d]
        for i, (traj, allocs, trace) in zip(stage, _alternate(
                [(*levels[i][-d], starts[i]) for i in stage])):
            trace.coarse, starts[i], coarse[i] = coarse[i], traj, trace
            if d == 1:
                sc, mode = problems[i]
                results[i] = (make_plan(traj, allocs, trace.outer[-1],
                                        tags[mode], sc), trace)
    return results


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
    # Site-major (K, N) views of the per-slot rows.
    h, tau_t, q_t = a2g_gain(wp[1:], scenario), tau.T, q.T
    rate = uav_rate(h, p, q_t, scenario)
    gu = np.where(tau_t, gu_rate_ic(q_t, scenario),
                  gu_rate_tin(h, p, q_t, scenario))
    res = {
        "speed": speed,
        "endpoints": ends,
        "power_uav": np.min([p.min(), uav.p_max - p.max()]),
        "power_gu": np.min([q.min(), (scenario.q_max_vec - q).min()]),
        "mode_count": tau.sum(axis=1).min() - 1,
        "rate_nonneg": r.min(),
        "uav_rate": np.where(tau_t, rate - r, np.inf).min(),
        "gu_rate": (gu - scenario.gamma_vec[:, None]).min(),
    }
    recomputed = math.fsum(r) / n_slots
    return ResidualReport(
        residuals={name: float(v) for name, v in res.items()},
        recomputed_objective=recomputed,
        objective_matches=abs(recomputed - plan.avg_throughput) <= 1e-9,
    )
