import dataclasses
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from uav_ic_planner import planner
from uav_ic_planner.planner import (COARSE_SLOTS, InfeasibleScenario,
                                    MonotonicityError, Plan, PlannerConfig,
                                    PlannerError, evaluate_plan, make_plan,
                                    prolong, solve)
from uav_ic_planner.ra_solver import solve_resource_allocation
from uav_ic_planner.sca_trajectory import (ScaError, Trajectory,
                                           optimize_trajectory,
                                           straight_line_trajectory)
from uav_ic_planner.scenario import (DEFAULT_SCENARIO_YAML, ScenarioError,
                                     default_scenario, parse_scenario)

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
    bad = Plan(plan.trajectory, bad_allocs, plan.avg_throughput, "corrupt")
    report = evaluate_plan(bad, default_sc)
    assert report.residuals["power_uav"] < 0.0
    assert not report.all_satisfied


def test_evaluate_plan_flags_inflated_rate(default_sc):
    plan, _ = solve(default_sc, PlannerConfig(outer_max_iters=1))
    bad_allocs = dataclasses.replace(plan.allocations,
                                     r=plan.allocations.r + 0.1)
    bad = Plan(plan.trajectory, bad_allocs, plan.avg_throughput + 0.1,
               "corrupt")
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
    bad = Plan(plan.trajectory, dataclasses.replace(plan.allocations, r=r),
               plan.avg_throughput, "corrupt")
    report = evaluate_plan(bad, default_sc)
    assert math.isnan(report.residuals["rate_nonneg"])
    assert math.isnan(report.residuals["uav_rate"])
    assert not report.all_satisfied
    assert not report.objective_matches
    with pytest.raises(PlannerError, match="rate_nonneg"):
        make_plan(bad.trajectory, bad.allocations, bad.avg_throughput,
                  "corrupt", default_sc)


def test_nan_initial_trajectory_is_rejected(default_sc):
    wp = straight_line_trajectory(default_sc.uav).waypoints.copy()
    wp[5] = math.nan
    init = Trajectory(wp)
    with pytest.raises(ValueError, match="speed"):
        solve(default_sc, PlannerConfig(outer_max_iters=1), initial=init)
    speed, ends = init.flight_slacks(default_sc.uav)
    assert math.isnan(speed) and ends == 0.0
    wp[-1] = math.nan
    with pytest.raises(ValueError, match="endpoints"):
        Trajectory(wp).validate(default_sc.uav)


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


# ---------------------------------------------------------------------------
# Coarse-to-fine planning on slot grids finer than COARSE_SLOTS

# Floors on the N=2000 plans, by scheme. `proposed`: the single-level value,
# with the loop on the full grid from straight-fly. `altruistic`: the
# coarse-to-fine value, below its single-level 0.246213.
N2000_THROUGHPUT_FLOOR = {"proposed": 1.6118933, "altruistic": 0.2458836}


def with_uav(sc, **changes):
    return dataclasses.replace(sc, uav=dataclasses.replace(sc.uav, **changes))


def assert_finite_and_audited(plan, sc):
    assert np.all(np.isfinite(plan.trajectory.waypoints))
    for field in ("q", "p", "r"):
        assert np.all(np.isfinite(getattr(plan.allocations, field)))
    assert math.isfinite(plan.avg_throughput)
    report = evaluate_plan(plan, sc)
    assert report.all_satisfied, report.residuals
    assert report.objective_matches


@pytest.fixture(scope="module", params=["any", "altruistic"])
def n2000_run(request, default_sc):
    sc = with_uav(default_sc, n_slots=2000)
    plan, trace = solve(sc, PlannerConfig(mode_constraint=request.param))
    return sc, plan, trace


@pytest.mark.parametrize("n_slots", [2000, 2001])
def test_prolonged_trajectory_is_speed_feasible(default_sc, n_slots):
    coarse, _ = solve(default_sc)
    fine = prolong(coarse.trajectory, n_slots)
    assert fine.n_slots == n_slots
    fine.validate(with_uav(default_sc, n_slots=n_slots).uav)
    # Every coarse waypoint sits on the resampled path.
    same = prolong(coarse.trajectory, default_sc.uav.n_slots)
    assert np.array_equal(same.waypoints, coarse.trajectory.waypoints)


def test_no_coarse_level_at_or_below_coarse_slots(default_sc):
    assert default_sc.uav.n_slots <= COARSE_SLOTS
    _, trace = solve(default_sc)
    assert trace.coarse is None
    _, trace = solve(with_uav(default_sc, n_slots=25))
    assert trace.coarse is None


def test_no_coarse_level_from_initial_or_speed_tight(default_sc):
    sc = with_uav(default_sc, n_slots=2000)
    init = straight_line_trajectory(sc.uav)
    _, trace = solve(sc, PlannerConfig(outer_max_iters=1), initial=init)
    assert trace.coarse is None
    _, trace = solve(with_uav(sc, mission_t=28.284))
    assert trace.coarse is None and trace.iterations == 1


def test_fine_grid_plan_audited_and_not_worse(n2000_run):
    sc, plan, trace = n2000_run
    assert_finite_and_audited(plan, sc)
    assert plan.avg_throughput >= N2000_THROUGHPUT_FLOOR[plan.scheme_tag]
    assert plan.avg_throughput == trace.outer[-1]
    assert trace.coarse is not None
    assert trace.coarse.iterations == len(trace.coarse.outer) >= 1


def test_fine_grid_traces_non_decreasing(n2000_run):
    _, _, trace = n2000_run
    for level in (trace, trace.coarse):
        assert all(b >= a - 1e-9 for a, b in zip(level.outer, level.outer[1:]))
        for inner in level.inner_per_outer:
            assert all(b >= a - 1e-9 for a, b in zip(inner, inner[1:]))
    assert trace.iterations == len(trace.outer)


# ---------------------------------------------------------------------------
# Edge cases: each either is rejected or gives a finite, audited plan

def edge_case(name, sc):
    if name == "one_slot":
        return with_uav(sc, n_slots=1)
    if name == "closed_loop":
        return with_uav(sc, u_final=sc.uav.u_init)
    gamma = {"all_gamma_zero": 0.0, "gamma_at_boundary": 5.0,
             "gamma_below_float_resolution": 1e-130}[name]
    return dataclasses.replace(
        sc, sites=tuple(dataclasses.replace(s, gamma=gamma)
                        for s in sc.sites))


@pytest.mark.parametrize("mode", ["any", "egoistic", "altruistic"])
@pytest.mark.parametrize("name", ["one_slot", "closed_loop", "all_gamma_zero",
                                  "gamma_at_boundary",
                                  "gamma_below_float_resolution"])
def test_edge_case_rejected_or_audited(default_sc, name, mode):
    try:
        sc = edge_case(name, default_sc)
        plan, trace = solve(sc, PlannerConfig(mode_constraint=mode))
    except (ScenarioError, InfeasibleScenario):
        return
    assert_finite_and_audited(plan, sc)
    assert all(b >= a - 1e-9 for a, b in zip(trace.outer, trace.outer[1:]))


# ---------------------------------------------------------------------------
# Fuzz over scenario documents: each is rejected or gives audited plans

COORD = st.floats(0.0, 1000.0)


@st.composite
def scenario_documents(draw):
    """Documents with 1-4 sites and 1-12 slots at random positions. Each
    guarantee is a multiple (0-1.5, or exactly 1) of the site's supportable
    maximum, so some sites are infeasible and some sit on the boundary."""
    doc = yaml.safe_load(DEFAULT_SCENARIO_YAML)
    ch, uav = doc["channel"], doc["uav"]
    uav["N"] = draw(st.integers(1, 12))
    uav["T_s"] = draw(st.floats(1.0, 120.0))
    uav["u_init"] = [draw(COORD), draw(COORD)]
    uav["u_final"] = [draw(COORD), draw(COORD)]
    sites = []
    for _ in range(draw(st.integers(1, 4))):
        theta = draw(st.floats(5.0, 20.0))
        g = 10.0 ** (ch["theta0_db"] / 10.0) * theta ** -ch["epsilon"]
        q_max_dbm = draw(st.floats(20.0, 33.0))
        gamma_max = math.log2(1.0 + g * 10.0 ** ((q_max_dbm + 50.0) / 10.0))
        factor = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.5)))
        sites.append({"pos": [draw(COORD), draw(COORD)], "theta_m": theta,
                      "sigma2_dbm": -50.0, "q_max_dbm": q_max_dbm,
                      "gamma_bpshz": factor * gamma_max})
    doc["sites"] = sites
    return yaml.safe_dump(doc)


@settings(max_examples=30, deadline=None)
@given(text=scenario_documents())
def test_fuzzed_documents_rejected_or_audited(text):
    for mode in ("any", "egoistic", "altruistic"):
        try:
            sc = parse_scenario(text)
            plan, trace = solve(sc, PlannerConfig(mode_constraint=mode))
        except (ScenarioError, InfeasibleScenario):
            continue
        assert_finite_and_audited(plan, sc)
        assert all(b >= a - 1e-9 for a, b in zip(trace.outer, trace.outer[1:]))
