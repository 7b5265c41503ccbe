import dataclasses
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from uav_ic_planner import planner
from uav_ic_planner import sca_trajectory as sca
from uav_ic_planner.benchmarks import straight_fly
from uav_ic_planner.planner import (COARSE_SLOTS, InfeasibleScenario,
                                    MonotonicityError, Plan, PlannerError,
                                    evaluate_plan, make_plan, prolong, solve,
                                    solve_many)
from uav_ic_planner.ra_solver import solve_resource_allocation, solve_slot
from uav_ic_planner.sca_trajectory import (ScaError, Trajectory,
                                           optimize_trajectory,
                                           straight_line_trajectory)
from uav_ic_planner.scenario import (DEFAULT_SCENARIO_YAML, InfeasibleSite,
                                     ScenarioError, check_feasibility,
                                     default_scenario, parse_scenario)

from conftest import random_feasible_scenario


def test_infeasible_scenario_raises_with_reasons(default_sc):
    sites = tuple(dataclasses.replace(s, gamma=6.0) for s in default_sc.sites)
    bad = dataclasses.replace(default_sc, sites=sites)
    with pytest.raises(InfeasibleScenario) as exc:
        solve(bad)
    assert "site" in str(exc.value)
    assert exc.value.report.failing_sites != ()


# A site whose IC cap log2(1.0069) = 0.00992041 bps/Hz is small enough that
# a guarantee a fraction of 1e-9 bps/Hz above it needs a GU power more than
# 1e-9 (relative) above q_max.
@pytest.mark.parametrize("site, gamma_above_cap", [
    (0, 0.0), (0, 5e-10), (0, 9e-10), (2, None)])
def test_check_feasibility_agrees_with_solve(default_sc, site,
                                             gamma_above_cap):
    """`uavplan check` and `uavplan plan` apply one feasibility rule: the
    report is feasible exactly when the planner returns a plan. The last
    case is the default site 2 at its boundary guarantee of 5 bps/Hz."""
    s = default_sc.sites[site]
    if gamma_above_cap is None:
        s = dataclasses.replace(s, gamma=5.0)
    else:
        g = s.sigma2 * 0.0069 / s.q_max
        cap = math.log2(1.0 + g * s.q_max / s.sigma2)
        s = dataclasses.replace(s, g=g, gamma=cap + gamma_above_cap)
    sites = list(default_sc.sites)
    sites[site] = s
    sc = dataclasses.replace(default_sc, sites=tuple(sites))
    try:
        solve(sc)
        planned = True
    except (InfeasibleScenario, InfeasibleSite):
        planned = False
    assert check_feasibility(sc).feasible == planned


def test_first_outer_value_equals_straight_fly(default_sc):
    """The loop starts with RA on the straight line, then moves off it."""
    plan, trace = solve(default_sc)
    traj = straight_line_trajectory(default_sc.uav)
    _, avg = solve_resource_allocation(traj, default_sc)
    assert trace.outer[0] == avg == straight_fly(default_sc).avg_throughput
    assert trace.iterations > 1
    assert not np.array_equal(plan.trajectory.waypoints, traj.waypoints)


def test_outer_trace_monotone_and_converged(default_sc):
    plan, trace = solve(default_sc)
    assert all(b >= a - 1e-9 for a, b in zip(trace.outer, trace.outer[1:]))
    assert trace.converged
    assert trace.iterations <= 20
    assert plan.avg_throughput == pytest.approx(trace.outer[-1], rel=1e-12)
    assert plan.avg_throughput >= trace.outer[0]
    for inner in trace.inner_per_outer:
        assert all(b >= a - 1e-9 for a, b in zip(inner, inner[1:]))


def test_unknown_mode_constraint_fails_fast(default_sc):
    """A misspelt constraint is rejected on entry, naming the allowed values,
    instead of running as "any"."""
    allowed = "expected one of any, egoistic, altruistic"
    with pytest.raises(ValueError, match=allowed):
        solve(default_sc, "egoist")
    # Checked before feasibility: an infeasible scenario reports it too.
    sites = tuple(dataclasses.replace(s, gamma=6.0) for s in default_sc.sites)
    with pytest.raises(ValueError, match=allowed):
        solve(dataclasses.replace(default_sc, sites=sites), "egoist")
    with pytest.raises(ValueError, match=allowed):
        solve_slot([(0.0, 0.0)], default_sc, "egoist")


def test_mode_constraint_dominance_first_iteration(default_sc):
    obj = {}
    for mc in ("any", "egoistic", "altruistic"):
        _, trace = solve(default_sc, mc)
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
    plan = straight_fly(default_sc)
    bad_allocs = dataclasses.replace(
        plan.allocations, p=np.full(len(plan.allocations),
                                    2.0 * default_sc.uav.p_max))
    bad = Plan(plan.trajectory, bad_allocs, plan.avg_throughput, "corrupt")
    report = evaluate_plan(bad, default_sc)
    assert report.residuals["power_uav"] < 0.0
    assert not report.all_satisfied


def test_evaluate_plan_flags_inflated_rate(default_sc):
    plan = straight_fly(default_sc)
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
    plan = straight_fly(default_sc)
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
    traj = straight_line_trajectory(default_sc.uav)
    allocs, _ = solve_resource_allocation(traj, default_sc)
    wp = traj.waypoints.copy()
    wp[5] = math.nan
    init = Trajectory(wp)
    with pytest.raises(ValueError, match="speed"):
        optimize_trajectory(init, allocs, default_sc)
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
    plan, trace = solve(sc, request.param)
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


def test_no_coarse_level_when_speed_tight(default_sc):
    sc = with_uav(default_sc, n_slots=2000)
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


def plan_bytes(plan):
    a = plan.allocations
    return (plan.trajectory.waypoints.tobytes(), a.tau.tobytes(),
            a.p.tobytes(), a.q.tobytes(), a.r.tobytes(), plan.avg_throughput,
            plan.scheme_tag)


def test_solve_many_equals_solve(default_sc):
    """Problems solved in lock step get the plans, traces and errors that
    `solve` gives each alone: the scheme sweep's nine planner problems, a
    fine grid stacked with them (coarse level included), a one-slot grid,
    a raised guarantee and an infeasible one."""
    def with_gamma(gamma):
        return dataclasses.replace(default_sc, sites=tuple(
            dataclasses.replace(s, gamma=gamma) for s in default_sc.sites))

    problems = [(with_uav(default_sc, mission_t=t), mode)
                for t in (40.0, 100.0, 200.0)
                for mode in ("any", "egoistic", "altruistic")]
    problems += [(with_uav(default_sc, n_slots=2000), "any"),
                 (with_uav(default_sc, n_slots=1), "egoistic"),
                 (with_gamma(3.0), "any"), (with_gamma(6.0), "any")]
    many = solve_many(problems)
    assert len(many) == len(problems)
    assert isinstance(many[-1], InfeasibleScenario)
    assert many[9][1].coarse is not None
    for (sc, mode), got in zip(problems, many):
        try:
            plan, trace = solve(sc, mode)
        except InfeasibleScenario as exc:
            assert type(got) is InfeasibleScenario
            assert str(got) == str(exc)
            continue
        assert plan_bytes(got[0]) == plan_bytes(plan)
        assert got[1] == trace


def test_solve_many_runs_one_stack_per_stage(default_sc, monkeypatch):
    """`solve_many` runs each stage of its schedule as one `_alternate`
    stack: first the 200-slot levels of the finer grids with room to move,
    then every problem on its own grid, in order. An N=2000 problem with a
    coarse level starts from that level's trajectory and is seeded by its
    trace; the N=200 problem and the speed-tight N=2000 one start from
    straight-fly and have no coarse level."""
    calls = []

    def spy(problems, original=planner._alternate):
        results = original(problems)
        calls.append((problems, results))
        return results

    monkeypatch.setattr(planner, "_alternate", spy)
    fine = with_uav(default_sc, n_slots=2000)
    problems = [(fine, "any"), (fine, "altruistic"), (default_sc, "egoistic"),
                (with_uav(fine, mission_t=28.284), "any")]
    results = solve_many(problems)
    assert len(calls) == 2
    (coarse, coarse_out), (stage, _) = calls
    assert default_sc.uav.n_slots == COARSE_SLOTS
    assert coarse == [(default_sc, "any", None),
                      (default_sc, "altruistic", None)]
    assert [(sc, mode) for sc, mode, _ in stage] == problems
    starts = [start for *_, start in stage]
    assert starts[0] is coarse_out[0][0] and starts[1] is coarse_out[1][0]
    assert starts[2:] == [None, None]
    assert [trace.coarse for _, trace in results] == [
        coarse_out[0][2], coarse_out[1][2], None, None]


def test_identical_problems_share_one_sca_problem(default_sc, monkeypatch):
    """The default mission_T sweep's nine planner problems: after the first
    RA round, `proposed` and `egoistic` at each T have the same scenario,
    waypoints and allocation, so the first stacked sweep plans 6 problems,
    and no later one more."""
    sizes = []

    def spy(surrogates, local_trajs, original=sca.solve_surrogate):
        sizes.append(len(surrogates))
        return original(surrogates, local_trajs)

    monkeypatch.setattr(sca, "solve_surrogate", spy)
    solve_many([(with_uav(default_sc, mission_t=t), mode)
                for t in (40.0, 100.0, 200.0)
                for mode in ("any", "egoistic", "altruistic")])
    assert sizes[0] == 6 and max(sizes) == 6


def test_lone_problem_calls_one_problem_entry_points(default_sc,
                                                    monkeypatch):
    """A lone problem's SCA loops go through `optimize_trajectory`, and each
    SCA iteration through one `solve_surrogate` call: the module attributes
    that perfbench's tracer wraps, so a `plan` keeps its per-layer counts."""
    calls = dict.fromkeys(("optimize_trajectory", "solve_surrogate"), 0)
    for name in calls:
        def spy(*args, name=name, original=getattr(sca, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(sca, name, spy)
    _, trace = solve(with_uav(default_sc, n_slots=2000), "any")
    inner = trace.coarse.inner_per_outer + trace.inner_per_outer
    assert calls["optimize_trajectory"] == len(inner) > 1
    assert calls["solve_surrogate"] == sum(len(t) - 1 for t in inner)


def test_solve_many_requires_shared_sites(default_sc, monkeypatch):
    """A stack whose problems differ in what the stacked SCA reads from the
    first one is refused with ValueError, before any feasibility check or
    RA pass; the check is no `assert`, so `python -O` keeps it."""
    def unreachable(*args):
        raise AssertionError("solve_many went past its input check")
    for name in ("check_feasibility", "solve_resource_allocation"):
        monkeypatch.setattr(planner, name, unreachable)
    site, rest = default_sc.sites[0], default_sc.sites[1:]
    channel, uav = default_sc.channel, default_sc.uav
    for field, other in (
            ("site positions", dataclasses.replace(default_sc, sites=(
                dataclasses.replace(site, pos=(10.0, 0.0)),) + rest)),
            ("noise powers", dataclasses.replace(default_sc, sites=(
                dataclasses.replace(site, sigma2=2.0 * site.sigma2),) + rest)),
            ("channel", dataclasses.replace(default_sc, channel=(
                dataclasses.replace(channel, alpha=channel.alpha + 0.1)))),
            ("altitude", with_uav(default_sc, altitude=uav.altitude + 10.0))):
        with pytest.raises(ValueError, match="^problem 2 of a stack differs "
                           f"from problem 0 in its {field}$"):
            solve_many([(default_sc, "any"), (default_sc, "egoistic"),
                        (other, "any")])


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
        plan, trace = solve(sc, mode)
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
            plan, trace = solve(sc, mode)
        except (ScenarioError, InfeasibleScenario):
            continue
        assert_finite_and_audited(plan, sc)
        assert all(b >= a - 1e-9 for a, b in zip(trace.outer, trace.outer[1:]))
