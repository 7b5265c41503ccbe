import dataclasses
import math

import numpy as np
import pytest

from uav_ic_planner.benchmarks import (SCHEME_NAMES, InsufficientDuration,
                                       UpperBoundResult,
                                       run_scheme, run_schemes,
                                       shortest_site_tour,
                                       straight_fly, successive_hover_fly,
                                       upper_bound)
from uav_ic_planner.planner import InfeasibleScenario, evaluate_plan
from uav_ic_planner.ra_solver import solve_slot
from uav_ic_planner.scenario import Scenario

from conftest import (make_channel, make_site, make_uav,
                      random_feasible_scenario, single_site_scenario)
from oracles import reference_hover_fly_waypoints


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


def _with_duration(sc: Scenario, mission_t: float) -> Scenario:
    return dataclasses.replace(
        sc, uav=dataclasses.replace(sc.uav, mission_t=mission_t))


def _hover_fly_draws(rng, n_values):
    """Seeded feasible draws for K = 1..6 sites at each slot count in
    `n_values(k)`, flown at the tour time and at 1.2-3x it plus 5-60 s."""
    for k in range(1, 7):
        for n in n_values(k):
            sc = random_feasible_scenario(rng, k=k, n_slots=int(n))
            t_fly = shortest_site_tour(sc)[1] / sc.uav.v_max
            yield _with_duration(sc, t_fly)
            yield _with_duration(sc, t_fly * rng.uniform(1.2, 3.0)
                                 + rng.uniform(5.0, 60.0))


def test_successive_hover_fly_matches_event_list_oracle(rng):
    """The array timeline gives the waypoints of the slot-by-slot walk over
    the event list, bit for bit."""
    for sc in _hover_fly_draws(
            rng, lambda k: (1, 400, *rng.integers(2, 400, size=2))):
        got = successive_hover_fly(sc).trajectory.waypoints
        want = reference_hover_fly_waypoints(sc)
        assert np.array_equal(got, want), (sc.n_sites, sc.uav.n_slots)


def test_successive_hover_fly_hovers_at_best_site(rng):
    """The hover-time LP's optimum is a simplex vertex: all residual time is
    spent above the one site whose hover rate (`solve_slot`) is highest, and
    every other site is only passed through."""
    for sc in _hover_fly_draws(rng, lambda k: (int(rng.integers(50, 200)),)):
        wp = successive_hover_fly(sc).trajectory.waypoints
        residual = sc.uav.mission_t - shortest_site_tour(sc)[1] / sc.uav.v_max
        best = int(np.argmax(solve_slot(sc.site_pos, sc).r))
        dwell = np.array([np.all(np.abs(wp - pos) <= 1e-6, axis=1).sum()
                          for pos in sc.site_pos])
        assert dwell[best] >= math.floor(residual / sc.uav.delta_t)
        assert np.all(np.delete(dwell, best) <= 1)


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
    result = upper_bound(sc)
    assert math.dist(result.hover_point, (300.0, 400.0)) <= 5.0 * math.sqrt(2)
    assert result.throughput == pytest.approx(math.log2(3.5), rel=1e-3)


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
    p_any, _ = run_scheme("proposed", sc)
    p_ego, _ = run_scheme("egoistic", sc)
    p_alt, _ = run_scheme("altruistic", sc)
    assert p_any.avg_throughput == pytest.approx(p_ego.avg_throughput,
                                                 rel=1e-12)
    assert p_any.avg_throughput == pytest.approx(p_alt.avg_throughput,
                                                 rel=1e-12)


def test_run_scheme_dispatch(default_sc):
    sc = dataclasses.replace(
        default_sc, uav=dataclasses.replace(default_sc.uav, n_slots=20))
    for name in SCHEME_NAMES:
        result, trace = run_scheme(name, sc)
        if name == "upper_bound":
            assert isinstance(result, UpperBoundResult) and trace is None
            assert result.throughput > 0
            continue
        assert result.scheme_tag == name
        has_trace = name in ("proposed", "egoistic", "altruistic")
        assert (trace is not None) == has_trace, name
    with pytest.raises(ValueError):
        run_scheme("bogus", default_sc)


def test_run_schemes_matches_run_scheme(default_sc):
    """`run_schemes` gives every item what `run_scheme` gives it alone, with
    the error in place of a raise, while it stacks the planner's schemes:
    every scheme on a feasible scenario, one too short to fly (planner and
    straight-fly infeasible, hover-fly refused) and one with guarantees
    above the IC cap."""
    sc = dataclasses.replace(
        default_sc, uav=dataclasses.replace(default_sc.uav, n_slots=20))
    short = dataclasses.replace(
        sc, uav=dataclasses.replace(sc.uav, mission_t=1.0))
    bad = dataclasses.replace(sc, sites=tuple(
        dataclasses.replace(s, gamma=6.0) for s in sc.sites))
    items = [(name, scenario) for scenario in (sc, short, bad)
             for name in SCHEME_NAMES]
    outcomes = run_schemes(items)
    assert len(outcomes) == len(items)
    errors = set()
    for (name, scenario), got in zip(items, outcomes):
        try:
            result, trace = run_scheme(name, scenario)
        except Exception as exc:  # noqa: BLE001 - compared below
            assert type(got) is type(exc) and str(got) == str(exc), name
            errors.add(type(exc))
            continue
        if isinstance(result, UpperBoundResult):
            assert got == (result, None)
            continue
        plan = got[0]
        assert plan.trajectory.waypoints.tobytes() == \
            result.trajectory.waypoints.tobytes(), name
        assert plan.allocations.r.tobytes() == result.allocations.r.tobytes()
        assert got[1] == trace, name
    assert errors == {InfeasibleScenario, InsufficientDuration}


def test_infeasible_scenario_rejected_by_benchmarks(default_sc):
    sites = tuple(dataclasses.replace(s, gamma=6.0) for s in default_sc.sites)
    bad = dataclasses.replace(default_sc, sites=sites)
    with pytest.raises(InfeasibleScenario):
        straight_fly(bad)
    with pytest.raises(InfeasibleScenario):
        successive_hover_fly(bad)
