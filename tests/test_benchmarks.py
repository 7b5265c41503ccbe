import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uav_ic_planner.benchmarks import (MAX_TSP_SITES, SCHEME_NAMES,
                                       InsufficientDuration, UpperBoundResult,
                                       run_scheme, run_schemes,
                                       shortest_site_tour,
                                       straight_fly, successive_hover_fly,
                                       upper_bound)
from uav_ic_planner.planner import InfeasibleScenario, evaluate_plan
from uav_ic_planner.ra_solver import slot_rates_on_points, solve_slot
from uav_ic_planner.sca_trajectory import REL_TOL
from uav_ic_planner.scenario import (Scenario, check_feasibility,
                                     dbm_to_watts, parse_scenario)

from conftest import (EDGE_SCENARIO_YAML, make_channel, make_site, make_uav,
                      random_feasible_scenario, single_site_scenario)
from oracles import reference_hover_fly_waypoints, reference_site_tour


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


def tour_scenario(sites, u_init=(0.0, 0.0), u_final=(1000.0, 1000.0)):
    return Scenario(channel=make_channel(), uav=make_uav(
        u_init=u_init, u_final=u_final), sites=tuple(
            make_site(pos=(float(x), float(y))) for x, y in sites))


# Seeded draws per K; the oracle takes about 0.8 s at K = 8.
TOUR_DRAWS = {1: 4, 2: 4, 3: 4, 4: 4, 5: 4, 6: 4, 7: 2, 8: 1}


@pytest.mark.parametrize("k", sorted(TOUR_DRAWS))
def test_shortest_site_tour_matches_oracle_on_draws(k):
    """Order and length equal the exhaustive oracle's bit for bit on seeded
    draws, alternately from a coarse lattice, whose coincident sites and
    equal legs tie exactly, and uniform."""
    assert k <= MAX_TSP_SITES
    rng = np.random.default_rng(k)
    for draw in range(TOUR_DRAWS[k]):
        ends = rng.uniform(0.0, 1000.0, (2, 2))
        sites = (rng.uniform(0.0, 1000.0, (k, 2)) if draw % 2
                 else 250.0 * rng.integers(0, 3, (k, 2)))
        sc = tour_scenario(sites, *map(tuple, ends))
        assert shortest_site_tour(sc) == reference_site_tour(sc)


@pytest.mark.parametrize("sites, u_init, u_final", [
    # a square's corners, mirror-symmetric about the line u_init -> u_final
    ([(250, 250), (750, 250), (750, 750), (250, 750)], (500, 0), (500, 1000)),
    # coincident sites: swapping a coincident pair keeps every leg
    ([(300, 300), (300, 300), (700, 700), (700, 700)], (0, 0), (1000, 1000)),
    # u_init == u_final: a closed tour, as long when reversed
    ([(250, 250), (750, 250), (750, 750), (250, 750)], (500, 500), (500, 500)),
    ([(100, 900), (600, 200), (900, 700)], (400, 400), (400, 400)),
    # a closed tour whose reversal sums its legs one ulp shorter: the tie
    # rule keeps the first
    ([(300, 0), (200, 200), (100, 200), (0, 200)], (100, 0), (100, 0)),
], ids=["square", "coincident", "closed_square", "closed_triangle",
        "closed_reversal_ulp"])
def test_shortest_site_tour_matches_oracle_on_exact_ties(sites, u_init,
                                                         u_final):
    """On layouts where several orders tie for shortest (within the search's
    1e-12 m), the same one wins as in the oracle."""
    def length(order):
        pts = np.array([u_init, *(sites[j] for j in order), u_final], float)
        return sum(float(np.linalg.norm(b - a)) for a, b in zip(pts, pts[1:]))

    lengths = sorted(map(length, itertools.permutations(range(len(sites)))))
    assert lengths[1] - lengths[0] <= 1e-12
    sc = tour_scenario(sites, u_init, u_final)
    assert shortest_site_tour(sc) == reference_site_tour(sc)


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
    assert result.hover_point == (300.0, 400.0)
    assert result.throughput == pytest.approx(math.log2(3.5), rel=1e-3)


# Two scenarios on which the best point of a 5 m hover grid (100 m margin)
# fell below `proposed`: the optimum lies directly above a site that is not
# on the grid. Site fields are those of the built-in scenario.
UB_REPRO_DOCS = ("""\
channel: {beta0_db: -30.0, alpha: 2.0, theta0_db: -40.0, epsilon: 3.0}
uav: {altitude_m: 500.0, v_max_mps: 50.0, p_max_dbm: 30.0, u_init: [0.0, 0.0],
      u_final: [0.0, 0.0], T_s: 150.0, N: 1, t_max_s: 1800.0}
sites:
  - {pos: [0.0, 0.0], theta_m: 6.5, sigma2_dbm: -50.0, q_max_dbm: 30.0,
     gamma_bpshz: 0.5}
  - {pos: [204.0, -106.0], theta_m: 6.5, sigma2_dbm: -50.0, q_max_dbm: 30.0,
     gamma_bpshz: 4.5}
""", """\
channel: {beta0_db: -30.0, alpha: 2.0, theta0_db: -40.0, epsilon: 3.0}
uav: {altitude_m: 1.0, v_max_mps: 50.0, p_max_dbm: 30.0, u_init: [0.0, 0.0],
      u_final: [0.0, 0.0], T_s: 600.0, N: 50, t_max_s: 1800.0}
sites:
  - {pos: [398.6, 1045.3], theta_m: 6.5, sigma2_dbm: -50.0, q_max_dbm: 30.0,
     gamma_bpshz: 4.5}
  - {pos: [966.0, 178.1], theta_m: 6.5, sigma2_dbm: -50.0, q_max_dbm: 30.0,
     gamma_bpshz: 4.5}
""")


@pytest.mark.parametrize("doc", UB_REPRO_DOCS, ids=("h500_n1", "h1_t600"))
def test_upper_bound_above_every_scheme_on_repros(doc):
    """The bound is at least every scheme's throughput and every rate of a
    dense sample around the sites, the endpoints and the hover point."""
    sc = parse_scenario(doc)
    ub = upper_bound(sc)
    for name in SCHEME_NAMES[:-1]:
        plan, _ = run_scheme(name, sc)
        assert ub.throughput >= plan.avg_throughput, name
    rng = np.random.default_rng(7)
    anchors = np.vstack([sc.site_pos, sc.uav.u_init, ub.hover_point])
    pts = np.vstack([a + rng.normal(size=(2000, 2)) * scale
                     for a in anchors for scale in (0.01, 1.0, 30.0)])
    assert ub.throughput >= slot_rates_on_points(pts, sc).max()
    assert ub.throughput >= slot_rates_on_points(sc.site_pos, sc).max()


def test_upper_bound_gamma5_default_finds_off_grid_point(default_sc):
    """At gamma = 5 the optimum lies between lattice points of a 5 m grid
    (which gave 0.292236714); the bound covers the rate at (760.58, 760.58)."""
    sc = dataclasses.replace(default_sc, sites=tuple(
        dataclasses.replace(s, gamma=5.0) for s in default_sc.sites))
    ub = upper_bound(sc)
    assert ub.throughput >= 0.292254
    assert ub.throughput >= slot_rates_on_points([(760.58, 760.58)], sc)[0]
    hover_rate = slot_rates_on_points([ub.hover_point], sc)[0]
    assert hover_rate * (1.0 + REL_TOL) >= ub.throughput


@st.composite
def wide_scenarios(draw):
    """K 1-8 sites over a 100 m - 100 km square, altitude 1-500 m, alpha
    2-3, guarantees from 0 up to cap * (1 - 1e-12), GU distance 6-14 m."""
    k = draw(st.integers(1, 8))
    spread = 10.0 ** draw(st.floats(2.0, 5.0))
    unit = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    channel = make_channel(alpha=draw(st.floats(2.0, 3.0)))
    sites = []
    for _ in range(k):
        x, y = draw(unit)
        q_max = draw(st.floats(0.5, 1.5))
        g = channel.theta0 * draw(st.floats(6.0, 14.0)) ** -channel.epsilon
        cap = math.log2(1.0 + g * q_max / 1e-8)
        sites.append(make_site(pos=(x * spread, y * spread), g=g, q_max=q_max,
                               gamma=cap * draw(st.floats(0.0, 1.0 - 1e-12))))
    (xi, yi), (xf, yf) = draw(unit), draw(unit)
    uav = make_uav(altitude=draw(st.floats(1.0, 500.0)),
                   p_max=draw(st.floats(0.5, 1.5)),
                   u_init=(xi * spread, yi * spread),
                   u_final=(xf * spread, yf * spread), t_max=1e9)
    return Scenario(channel=channel, sites=tuple(sites), uav=uav)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sc=wide_scenarios(), seed=st.integers(0, 2 ** 32 - 1))
def test_upper_bound_certified_on_wide_draws(sc, seed):
    """The throughput is at least the rate at 20k sampled points (around the
    hover point at 0.1-100 m, and uniform over the site and endpoint spread)
    and within REL_TOL of the rate at the hover point."""
    ub = upper_bound(sc)
    rng = np.random.default_rng(seed)
    hover = np.asarray(ub.hover_point)
    anchors = np.vstack([sc.site_pos, sc.uav.u_init, sc.uav.u_final])
    lo, hi = anchors.min(axis=0) - 100.0, anchors.max(axis=0) + 100.0
    pts = np.vstack([hover + rng.normal(size=(4000, 2)) * scale
                     for scale in (0.1, 1.0, 10.0, 100.0)]
                    + [rng.uniform(lo, hi, size=(4000, 2))])
    assert ub.throughput >= slot_rates_on_points(pts, sc).max()
    hover_rate = slot_rates_on_points(hover, sc)[0]
    assert hover_rate >= ub.throughput / (1.0 + REL_TOL)


@st.composite
def scenario_documents(draw):
    """Scenario documents over the edge cases: K 1-4 sites on a square of
    side 100 m, 1 km or 10 km, altitude 1 m, 100 m or 1-500 m, alpha 2 or
    2-3, N in {1, 2, 3, 7, 30}. A site sits on u_init or on u_final one time
    in ten each, and u_final on u_init one time in ten. T is the
    straight-line time x {1, 1 +- 0.5e-4, 1 + 2e-4}, or x U(1, 3) + U(1, 60)
    s. A guarantee is 0, the IC rate at q_max x (1 + eps) for eps at and
    around the rounding band `check_feasibility` accepts, or 0-1.05 of the
    IC rate at q_max."""
    sigma2_dbm, q_max_dbm, v_max = -50.0, 30.0, 50.0
    snr = dbm_to_watts(q_max_dbm) / dbm_to_watts(sigma2_dbm)
    side = draw(st.sampled_from((100.0, 1e3, 1e4)))
    point = st.tuples(st.floats(0.0, side), st.floats(0.0, side)).map(list)
    u_init = draw(point)
    u_final = list(u_init) if draw(st.integers(0, 9)) == 0 else draw(point)
    sites = []
    for _ in range(draw(st.integers(1, 4))):
        spot = draw(st.integers(0, 9))
        g = 1e-4 * draw(st.floats(6.0, 14.0)) ** -3.0
        cap = [math.log2(1.0 + g * snr * (1.0 + eps))
               for eps in (0.0, 1e-11, 3e-10, 9e-10, 2e-9)]
        gamma = draw(st.just(0.0) | st.sampled_from(cap)
                     | st.floats(0.0, 1.05).map(lambda f: f * cap[0]))
        sites.append({"pos": list(u_init) if spot == 0 else list(u_final)
                      if spot == 1 else draw(point), "g_linear": g,
                      "sigma2_dbm": sigma2_dbm, "q_max_dbm": q_max_dbm,
                      "gamma_bpshz": gamma})
    t_line = math.dist(u_init, u_final) / v_max
    if t_line > 0.0 and draw(st.booleans()):
        t = t_line * draw(st.sampled_from((1.0, 1.0 - 0.5e-4, 1.0 + 0.5e-4,
                                           1.0 + 2e-4)))
    else:
        t = t_line * draw(st.floats(1.0, 3.0)) + draw(st.floats(1.0, 60.0))
    altitude = draw(st.sampled_from((1.0, 100.0)) | st.floats(1.0, 500.0))
    return yaml.safe_dump({
        "channel": {"beta0_db": -30.0,
                    "alpha": draw(st.just(2.0) | st.floats(2.0, 3.0)),
                    "theta0_db": -40.0, "epsilon": 3.0},
        "uav": {"altitude_m": altitude, "v_max_mps": v_max,
                "p_max_dbm": 30.0, "u_init": u_init, "u_final": u_final,
                "T_s": t, "N": draw(st.sampled_from((1, 2, 3, 7, 30)))},
        "sites": sites})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(doc=scenario_documents())
@example(doc=EDGE_SCENARIO_YAML)
def test_schemes_plan_exactly_what_check_feasibility_accepts(doc):
    """Where `check_feasibility` says feasible, every scheme returns an
    audited plan (hover-fly may find the mission too short for its tour);
    where it says infeasible, every scheme raises InfeasibleScenario (or
    hover-fly InsufficientDuration). Nothing else is raised. upper_bound is
    left out: its certified search has no cap on its work, and coincident
    sites make a plateau on which it holds tens of millions of squares."""
    sc = parse_scenario(doc)
    feasible = check_feasibility(sc).feasible
    schemes = [s for s in SCHEME_NAMES if s != "upper_bound"]
    for name, outcome in zip(schemes, run_schemes([(s, sc) for s in schemes])):
        if (name == "successive_hover_fly"
                and isinstance(outcome, InsufficientDuration)):
            continue
        if feasible:
            assert not isinstance(outcome, Exception), (name, outcome)
            assert evaluate_plan(outcome[0], sc).all_satisfied, name
        else:
            assert isinstance(outcome, InfeasibleScenario), (name, outcome)


def test_upper_bound_memory_flat_in_spread(default_sc):
    """Sites 100 km apart: the search holds a few squares per level, where a
    5 m grid would need about 4e8 points."""
    sc = dataclasses.replace(default_sc, sites=tuple(
        dataclasses.replace(s, pos=pos) for s, pos in zip(
            default_sc.sites, ((0.0, 0.0), (1e5, 0.0), (0.0, 1e5)))))
    upper_bound(sc)  # caches the scenario's site arrays
    tracemalloc.start()
    try:
        ub = upper_bound(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert ub.hover_point == (0.0, 0.0)


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
