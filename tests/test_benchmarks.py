import dataclasses
import math

import numpy as np
import pytest

from uav_ic_planner.benchmarks import (SCHEME_NAMES, InsufficientDuration,
                                       UpperBoundResult, allocate_hover_time,
                                       run_scheme, shortest_site_tour,
                                       straight_fly, successive_hover_fly,
                                       upper_bound)
from uav_ic_planner.planner import InfeasibleScenario, PlannerConfig, evaluate_plan
from uav_ic_planner.ra_solver import solve_slot
from uav_ic_planner.scenario import Scenario

from conftest import make_channel, make_site, make_uav, single_site_scenario


def test_upper_bound_rejects_non_positive_grid_step(default_sc):
    for step in (0.0, -5.0):
        with pytest.raises(ValueError, match="grid_step"):
            upper_bound(default_sc, grid_step=step)


def test_straight_fly_hover_when_endpoints_equal():
    sc = single_site_scenario(u_init=(50.0, 0.0), u_final=(50.0, 0.0),
                              mission_t=10.0, n_slots=4)
    plan = straight_fly(sc)
    assert np.allclose(plan.trajectory.waypoints, [50.0, 0.0])
    a = plan.allocations
    for field in (a.tau, a.q, a.p, a.r):
        assert np.all(field == field[0])


def test_straight_fly_speed_tight_at_minimum_duration():
    sc = single_site_scenario(u_init=(0.0, 0.0), u_final=(100.0, 0.0),
                              mission_t=2.0, n_slots=4)  # exactly 50 m/s
    plan = straight_fly(sc)
    seg = plan.trajectory.segment_lengths()
    v_step = sc.uav.v_max * sc.uav.delta_t
    assert np.allclose(seg, v_step, rtol=1e-9)


def test_shortest_site_tour_default(default_sc):
    order, length = shortest_site_tour(default_sc)
    # Exhaustive check against every permutation length
    import itertools
    u_i = np.array(default_sc.uav.u_init)
    u_f = np.array(default_sc.uav.u_final)
    pos = default_sc.site_pos
    best = math.inf
    for perm in itertools.permutations(range(3)):
        pts = [u_i] + [pos[j] for j in perm] + [u_f]
        best = min(best, sum(np.linalg.norm(b - a)
                             for a, b in zip(pts, pts[1:])))
    assert length == pytest.approx(best, rel=1e-12)


def test_allocate_hover_time_reaches_best_vertex(rng):
    """The hover-time LP's optimum over the simplex is total * max(rates),
    reached at the vertex of the best rate."""
    rates = [1.2, 2.4, 0.3]
    closed = allocate_hover_time(rates, 60.0)
    assert closed.tolist() == [0.0, 60.0, 0.0]
    for _ in range(20):
        rates = rng.uniform(0.0, 5.0, size=int(rng.integers(1, 9)))
        t = allocate_hover_time(rates, 60.0)
        assert np.all(t >= 0.0) and t.sum() == 60.0
        assert np.dot(t, rates) == 60.0 * rates.max()


def test_successive_hover_fly_single_site():
    sc = single_site_scenario(u_init=(0.0, 0.0), u_final=(0.0, 0.0),
                              mission_t=30.0, n_slots=60,
                              site_pos=(100.0, 0.0))
    plan = successive_hover_fly(sc)
    # Path out 2 s, hover 26 s, back 2 s; most waypoints at the site.
    at_site = np.all(np.isclose(plan.trajectory.waypoints, [100.0, 0.0]),
                     axis=1)
    assert at_site.sum() >= 50
    assert np.allclose(plan.trajectory.waypoints[0], [0.0, 0.0])
    assert np.allclose(plan.trajectory.waypoints[-1], [0.0, 0.0])
    plan.trajectory.validate(sc.uav)


def test_successive_hover_fly_insufficient_duration(default_sc):
    _, tour_len = shortest_site_tour(default_sc)
    t_min = tour_len / default_sc.uav.v_max
    sc = dataclasses.replace(
        default_sc,
        uav=dataclasses.replace(default_sc.uav, mission_t=t_min * 0.9))
    with pytest.raises(InsufficientDuration) as exc:
        successive_hover_fly(sc)
    assert exc.value.needed == pytest.approx(t_min, rel=1e-9)


def test_successive_hover_fly_hover_dominates_default(default_sc):
    plan = successive_hover_fly(default_sc)
    plan.trajectory.validate(default_sc.uav)
    assert evaluate_plan(plan, default_sc).all_satisfied
    # Most mission time spent hovering above the single best site.
    wp = plan.trajectory.waypoints
    best = int(np.argmax(solve_slot(default_sc.site_pos, default_sc).r))
    at_best = np.all(np.isclose(wp, default_sc.site_pos[best]), axis=1)
    assert at_best.sum() > wp.shape[0] / 2


def test_upper_bound_single_site_overhead():
    sc = single_site_scenario(site_pos=(300.0, 400.0), mission_t=60.0,
                              n_slots=10, u_init=(0.0, 0.0),
                              u_final=(500.0, 500.0))
    result = upper_bound(sc, grid_step=5.0)
    assert math.dist(result.hover_point, (300.0, 400.0)) <= 5.0 * math.sqrt(2)
    assert result.throughput == pytest.approx(math.log2(3.5), rel=1e-3)


def test_upper_bound_grid_refinement_non_decreasing(default_sc):
    coarse = upper_bound(default_sc, grid_step=10.0)
    fine = upper_bound(default_sc, grid_step=5.0)
    # Halving the step keeps every coarse point, so the bound cannot drop.
    assert fine.throughput >= coarse.throughput - 1e-12


def test_upper_bound_invariant_to_duration(default_sc):
    base = upper_bound(default_sc)
    sc2 = dataclasses.replace(
        default_sc, uav=dataclasses.replace(default_sc.uav, mission_t=40.0))
    again = upper_bound(sc2)
    assert again == base


def test_single_site_schemes_coincide():
    sc = single_site_scenario(u_init=(0.0, 0.0), u_final=(200.0, 0.0),
                              mission_t=30.0, n_slots=30,
                              site_pos=(100.0, 0.0))
    cfg = PlannerConfig()
    p_any, _ = run_scheme("proposed", sc, cfg)
    p_ego, _ = run_scheme("egoistic", sc, cfg)
    p_alt, _ = run_scheme("altruistic", sc, cfg)
    assert p_any.avg_throughput == pytest.approx(p_ego.avg_throughput,
                                                 rel=1e-12)
    assert p_any.avg_throughput == pytest.approx(p_alt.avg_throughput,
                                                 rel=1e-12)


def test_run_scheme_dispatch(default_sc):
    sc = dataclasses.replace(
        default_sc, uav=dataclasses.replace(default_sc.uav, n_slots=20))
    for name in SCHEME_NAMES:
        result, trace = run_scheme(name, sc, PlannerConfig(outer_max_iters=2))
        if name == "upper_bound":
            assert isinstance(result, UpperBoundResult) and trace is None
            assert result.throughput > 0
            continue
        assert result.scheme_tag == name
        has_trace = name in ("proposed", "egoistic", "altruistic")
        assert (trace is not None) == has_trace, name
    with pytest.raises(ValueError):
        run_scheme("bogus", default_sc)


def test_infeasible_scenario_rejected_by_benchmarks(default_sc):
    sites = tuple(dataclasses.replace(s, gamma=6.0) for s in default_sc.sites)
    bad = dataclasses.replace(default_sc, sites=sites)
    with pytest.raises(InfeasibleScenario):
        straight_fly(bad)
    with pytest.raises(InfeasibleScenario):
        successive_hover_fly(bad)
