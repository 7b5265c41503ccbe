import dataclasses
import math

import numpy as np
import pytest

from uav_ic_planner import planner
from uav_ic_planner.planner import (InfeasibleScenario, MonotonicityError,
                                    PlannerConfig, evaluate_plan, make_plan,
                                    solve)
from uav_ic_planner.ra_solver import solve_resource_allocation
from uav_ic_planner.sca_trajectory import (ScaError, optimize_trajectory,
                                           straight_line_trajectory)
from uav_ic_planner.scenario import default_scenario

from conftest import random_feasible_scenario


def test_infeasible_scenario_raises_with_reasons(default_sc):
    sites = tuple(dataclasses.replace(s, gamma=6.0) for s in default_sc.sites)
    bad = dataclasses.replace(default_sc, sites=sites)
    with pytest.raises(InfeasibleScenario) as exc:
        solve(bad)
    assert "site" in str(exc.value)
    assert exc.value.report.failing_sites != ()


def test_single_outer_iteration_equals_straight_fly(default_sc):
    plan, trace = solve(default_sc, PlannerConfig(outer_max_iters=1))
    traj = straight_line_trajectory(default_sc.uav)
    _, avg = solve_resource_allocation(traj, default_sc)
    assert np.array_equal(plan.trajectory.waypoints, traj.waypoints)
    assert plan.avg_throughput == pytest.approx(avg, rel=1e-12)
    assert trace.iterations == 1


def test_outer_trace_monotone_and_converged(default_sc):
    plan, trace = solve(default_sc)
    assert all(b >= a - 1e-9 for a, b in zip(trace.outer, trace.outer[1:]))
    assert trace.converged
    assert trace.iterations <= 20
    assert plan.avg_throughput == pytest.approx(trace.outer[-1], rel=1e-12)
    assert plan.avg_throughput >= trace.outer[0]
    for inner in trace.inner_per_outer:
        assert all(b >= a - 1e-9 for a, b in zip(inner, inner[1:]))


def test_mode_constraint_dominance_first_iteration(default_sc):
    cfg = PlannerConfig(outer_max_iters=1)
    obj = {}
    for mc in ("any", "egoistic", "altruistic"):
        _, trace = solve(default_sc, dataclasses.replace(cfg,
                                                         mode_constraint=mc))
        obj[mc] = trace.outer[0]
    assert obj["any"] >= obj["egoistic"] - 1e-12 >= -1e-12
    assert obj["any"] >= obj["altruistic"] - 1e-12


def test_deterministic_reruns(default_sc):
    p1, t1 = solve(default_sc)
    p2, t2 = solve(default_sc)
    assert np.array_equal(p1.trajectory.waypoints, p2.trajectory.waypoints)
    for field in ("tau", "q", "p", "r"):
        assert np.array_equal(getattr(p1.allocations, field),
                              getattr(p2.allocations, field))
    assert p1.avg_throughput == p2.avg_throughput
    assert t1.outer == t2.outer


def test_tight_duration_skips_trajectory_step(default_sc):
    sc = dataclasses.replace(
        default_sc, uav=dataclasses.replace(default_sc.uav, mission_t=28.284))
    plan, trace = solve(sc)
    # No room to move: a single RA pass on the straight line, flagged done.
    assert trace.iterations == 1
    assert trace.converged
    report = evaluate_plan(plan, sc)
    assert report.all_satisfied


def test_evaluate_plan_clean(default_sc):
    plan, _ = solve(default_sc)
    report = evaluate_plan(plan, default_sc)
    assert report.all_satisfied
    assert report.objective_matches
    assert min(report.residuals.values()) >= -1e-8


def test_evaluate_plan_flags_excess_power(default_sc):
    plan, _ = solve(default_sc, PlannerConfig(outer_max_iters=1))
    bad_allocs = dataclasses.replace(
        plan.allocations, p=np.full(len(plan.allocations),
                                    2.0 * default_sc.uav.p_max))
    bad = make_plan(plan.trajectory, bad_allocs, plan.avg_throughput,
                    "corrupt", default_sc)
    report = evaluate_plan(bad, default_sc)
    assert report.residuals["power_uav"] < 0.0
    assert not report.all_satisfied


def test_evaluate_plan_flags_inflated_rate(default_sc):
    plan, _ = solve(default_sc, PlannerConfig(outer_max_iters=1))
    bad_allocs = dataclasses.replace(plan.allocations,
                                     r=plan.allocations.r + 0.1)
    bad = make_plan(plan.trajectory, bad_allocs,
                    plan.avg_throughput + 0.1, "corrupt", default_sc)
    report = evaluate_plan(bad, default_sc)
    assert report.residuals["uav_rate"] == pytest.approx(-0.1, abs=1e-9)
    assert not report.all_satisfied


def test_random_scenarios_monotone(rng):
    for _ in range(5):
        sc = random_feasible_scenario(rng, n_slots=20)
        plan, trace = solve(sc)
        assert all(b >= a - 1e-9 for a, b in zip(trace.outer, trace.outer[1:]))
        assert evaluate_plan(plan, sc).all_satisfied


def test_evaluate_plan_fails_closed_on_nan_rate(default_sc):
    plan, _ = solve(default_sc, PlannerConfig(outer_max_iters=1))
    r = plan.allocations.r.copy()
    r[7] = math.nan
    bad = make_plan(plan.trajectory,
                    dataclasses.replace(plan.allocations, r=r),
                    plan.avg_throughput, "corrupt", default_sc)
    report = evaluate_plan(bad, default_sc)
    assert math.isnan(report.residuals["rate_nonneg"])
    assert math.isnan(report.residuals["uav_rate"])
    assert not report.all_satisfied
    assert not report.objective_matches


def test_outer_guard_fails_closed_on_nan(default_sc, monkeypatch):
    def nan_objective(traj, scenario, mode_constraint):
        allocs, _ = solve_resource_allocation(traj, scenario, mode_constraint)
        return allocs, math.nan
    monkeypatch.setattr(planner, "solve_resource_allocation", nan_objective)
    with pytest.raises(MonotonicityError):
        solve(default_sc)


def test_inner_guard_fails_closed_on_nan(default_sc):
    traj = straight_line_trajectory(default_sc.uav)
    allocs, _ = solve_resource_allocation(traj, default_sc)
    p = allocs.p.copy()
    p[3] = math.nan
    with pytest.raises(ScaError):
        optimize_trajectory(traj, dataclasses.replace(allocs, p=p), default_sc)
