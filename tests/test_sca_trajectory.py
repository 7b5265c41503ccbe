import math

import numpy as np
import pytest

from uav_ic_planner.channel import uav_rate
from uav_ic_planner.ra_solver import Allocation, solve_resource_allocation
from uav_ic_planner.sca_trajectory import (ScaConfig, Trajectory,
                                           build_surrogate, optimize_trajectory,
                                           slot_rates, solve_surrogate,
                                           straight_line_trajectory,
                                           surrogate_coeff_a, surrogate_coeff_b,
                                           trajectory_objective,
                                           verify_safe_step)
from uav_ic_planner.scenario import LN2, Scenario

from conftest import (make_channel, make_site, make_uav,
                      random_feasible_scenario, single_site_scenario)
from oracles import fd_derivative_in_sqdist

CH = make_channel()


def uniform_allocation(n, tau, q, p, r) -> Allocation:
    """The same allocation in each of n slots."""
    return Allocation(tau=np.tile(np.array(tau, dtype=bool), (n, 1)),
                      q=np.tile(np.array(q, dtype=float), (n, 1)),
                      p=np.full(n, p), r=np.full(n, r))


def rate_of_sqdist(p, q, site, ch, altitude):
    """R as a function of s = squared horizontal distance, for FD checks."""
    def fn(s):
        h = ch.beta0 * (altitude ** 2 + s) ** (-ch.alpha / 2.0)
        return math.log2(1.0 + h * p / (site.sigma2 + site.g * q))
    return fn


def logterm_of_sqdist(p, q, site, ch, altitude):
    def fn(s):
        h = ch.beta0 * (altitude ** 2 + s) ** (-ch.alpha / 2.0)
        return math.log2(site.sigma2 + site.g * q + h * p)
    return fn


def test_coeff_a_reference_value():
    # alpha=2, beta0=1e-3, p=1, s=0, H=100, sigma2=1e-8, g*q=3e-8
    site = make_site(pos=(0.0, 0.0), g=1e-7, sigma2=1e-8)
    a = surrogate_coeff_a(1.0, (0.0, 0.0), 0.3, site, CH, 100.0)
    expected = (2 * 1e-3) / (2 * LN2 * 1e4 * (1e-3 + 4e-8 * 1e4))
    assert a == pytest.approx(expected, rel=1e-12)
    assert a == pytest.approx(1.031e-4, rel=1e-3)


def test_coeffs_zero_at_zero_power():
    site = make_site()
    assert surrogate_coeff_a(0.0, (10.0, 20.0), 0.5, site, CH, 100.0) == 0.0
    assert surrogate_coeff_b(0.0, (10.0, 20.0), 0.5, site, CH, 100.0) == 0.0


def test_coeffs_positive_for_positive_power(rng):
    for _ in range(20):
        p = float(rng.uniform(1e-3, 2.0))
        u = rng.uniform(-500, 500, size=2)
        q = float(rng.uniform(0.0, 1.0))
        site = make_site(pos=(0.0, 0.0))
        assert surrogate_coeff_a(p, u, q, site, CH, 100.0) > 0.0
        assert surrogate_coeff_b(p, u, q, site, CH, 100.0) > 0.0


def test_coeffs_match_finite_differences(rng):
    """Both coefficients are the negative derivative, in squared distance,
    of their expressions; checked by central differences at random points."""
    for _ in range(100):
        p = float(rng.uniform(1e-2, 2.0))
        q = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.choice([2.0, 2.5, 3.0]))
        ch = make_channel(alpha=alpha)
        site = make_site(pos=(0.0, 0.0), g=float(rng.uniform(1e-8, 5e-7)))
        offset = float(rng.uniform(0.0, 800.0))
        u = (offset, 0.0)
        s = offset ** 2

        a = surrogate_coeff_a(p, u, q, site, ch, 100.0)
        fd_a = -fd_derivative_in_sqdist(
            rate_of_sqdist(p, q, site, ch, 100.0), s)
        assert a == pytest.approx(fd_a, rel=1e-4)

        b = surrogate_coeff_b(p, u, q, site, ch, 100.0)
        fd_b = -fd_derivative_in_sqdist(
            logterm_of_sqdist(p, q, site, ch, 100.0), s)
        assert b == pytest.approx(fd_b, rel=1e-4)


def _surrogate_fixture(scenario):
    traj = straight_line_trajectory(scenario.uav)
    allocs, _ = solve_resource_allocation(traj, scenario)
    return traj, allocs, build_surrogate(traj, allocs, scenario)


def test_surrogate_tight_at_local_point(default_sc):
    traj, allocs, surro = _surrogate_fixture(default_sc)
    pts = traj.waypoints[1:]
    p, q = allocs.p, allocs.q
    rhat = surro.rate_bounds_all(pts)
    log_lb = surro.tin_log_bounds_all(pts)
    for n in range(pts.shape[0]):
        for k, site in enumerate(default_sc.sites):
            true_rate = uav_rate(p[n], pts[n], q[n][k], site,
                                 default_sc.channel, default_sc.uav.altitude)
            assert rhat[n, k] == pytest.approx(true_rate, rel=1e-9, abs=1e-12)
            h = default_sc.channel.beta0 * (
                default_sc.uav.altitude ** 2
                + np.sum((pts[n] - np.array(site.pos)) ** 2)) ** (-1.0)
            true_log = math.log2(site.sigma2 + site.g * q[n][k] + h * p[n])
            assert log_lb[n, k] == pytest.approx(true_log, rel=1e-9)


def test_surrogate_global_underestimator(default_sc, rng):
    """At 10^4 random points both surrogate families stay at or below the
    true expressions."""
    traj, allocs, surro = _surrogate_fixture(default_sc)
    n = traj.n_slots
    p, q = allocs.p, allocs.q
    alt = default_sc.uav.altitude
    alpha, beta0 = default_sc.channel.alpha, default_sc.channel.beta0
    total = 0
    for _ in range(50):
        pts = rng.uniform(-300, 1300, size=(n, 2))
        diff = pts[:, None, :] - default_sc.site_pos[None, :, :]
        s = np.einsum("nki,nki->nk", diff, diff)
        h = beta0 * (alt ** 2 + s) ** (-alpha / 2.0)
        c = default_sc.sigma2_vec[None, :] + default_sc.g_vec[None, :] * q
        true_rate = np.log1p(h * p[:, None] / c) / LN2
        true_log = np.log2(c + h * p[:, None])
        assert np.all(surro.rate_bounds_all(pts) <= true_rate + 1e-9)
        assert np.all(surro.tin_log_bounds_all(pts) <= true_log + 1e-9)
        total += s.size
    assert total >= 10_000


def test_surrogate_constant_for_zero_power():
    sc = single_site_scenario(mission_t=10.0, n_slots=3)
    traj = straight_line_trajectory(sc.uav)
    allocs = uniform_allocation(3, tau=(True,), q=(0.3,), p=0.0, r=0.0)
    surro = build_surrogate(traj, allocs, sc)
    assert np.all(surro.coeff_a == 0.0)
    assert np.all(surro.coeff_b == 0.0)


def test_solve_surrogate_fixed_point_returns_local():
    """Hovering exactly above the single site is surrogate-optimal, so the
    solver must return the local trajectory unchanged (stalled)."""
    sc = single_site_scenario(u_init=(0.0, 0.0), u_final=(0.0, 0.0),
                              mission_t=10.0, n_slots=4)
    wp = np.zeros((5, 2))
    traj = Trajectory(wp)
    allocs, _ = solve_resource_allocation(traj, sc)
    surro = build_surrogate(traj, allocs, sc)
    new_traj, rates, stalled = solve_surrogate(surro, traj, allocs, sc)
    assert stalled
    assert np.array_equal(new_traj.waypoints, wp)
    assert rates == pytest.approx([math.log2(3.5)] * 4, rel=1e-9)


def test_solve_surrogate_matches_disc_grid_search():
    """One free waypoint between equal pinned endpoints: the solver's slot
    objective must match a 1 m grid search over the reachable disc."""
    sc = single_site_scenario(u_init=(120.0, 0.0), u_final=(120.0, 0.0),
                              mission_t=4.0, n_slots=2, site_pos=(0.0, 0.0))
    traj = straight_line_trajectory(sc.uav)
    allocs, _ = solve_resource_allocation(traj, sc)
    surro = build_surrogate(traj, allocs, sc)
    new_traj, _, stalled = solve_surrogate(surro, traj, allocs, sc)
    assert not stalled
    got, _ = surro.objective(new_traj.waypoints[1:])

    v_step = sc.uav.v_max * sc.uav.delta_t  # 100 m reach
    xs = np.arange(-v_step, v_step + 0.5, 1.0)
    gx, gy = np.meshgrid(120.0 + xs, xs, indexing="ij")
    cand = np.column_stack([gx.ravel(), gy.ravel()])
    ok = np.linalg.norm(cand - np.array([120.0, 0.0]), axis=1) <= v_step
    cand = cand[ok]
    best = -math.inf
    fixed = new_traj.waypoints[2][None, :]
    for point in cand:
        val, _ = surro.objective(np.vstack([point[None, :], fixed]))
        best = max(best, val)
    # 1 m grid resolution: allow the corresponding objective slack
    assert got >= best - 1e-4


def test_verify_safe_step_detects_violation():
    sc = single_site_scenario(u_init=(0.0, 0.0), u_final=(0.0, 0.0),
                              mission_t=10.0, n_slots=2)
    wp = np.zeros((3, 2))
    traj = Trajectory(wp)
    # TIN mode impossible with one site, so craft a 2-site case
    sc2 = Scenario(
        channel=make_channel(),
        sites=(make_site(pos=(0.0, 0.0)), make_site(pos=(10.0, 0.0))),
        uav=make_uav(u_init=(0.0, 0.0), u_final=(0.0, 0.0), mission_t=10.0,
                     n_slots=2),
    )
    # UAV power far above the TIN cap drives site 2's GU below its guarantee.
    bad = uniform_allocation(2, tau=(True, False), q=(0.3, 1.0), p=1.0, r=0.1)
    from uav_ic_planner.sca_trajectory import SafeStepViolation
    with pytest.raises(SafeStepViolation):
        verify_safe_step(traj, bad, sc2)


def test_optimize_trajectory_zero_power_converges_immediately():
    sc = single_site_scenario(mission_t=10.0, n_slots=3)
    traj = straight_line_trajectory(sc.uav)
    allocs = uniform_allocation(3, tau=(True,), q=(0.3,), p=0.0, r=0.0)
    result = optimize_trajectory(traj, allocs, sc)
    assert result.objective == 0.0
    assert result.iterations == 1
    assert result.converged


def test_optimize_trajectory_max_iters_zero_returns_init(default_sc):
    traj = straight_line_trajectory(default_sc.uav)
    allocs, _ = solve_resource_allocation(traj, default_sc)
    result = optimize_trajectory(traj, allocs, default_sc,
                                 ScaConfig(max_iters=0))
    assert np.array_equal(result.trajectory.waypoints, traj.waypoints)
    assert result.iterations == 0


def test_optimize_trajectory_monotone_and_improving(default_sc):
    traj = straight_line_trajectory(default_sc.uav)
    allocs, obj0 = solve_resource_allocation(traj, default_sc)
    result = optimize_trajectory(traj, allocs, default_sc)
    trace = result.inner_trace
    assert trace[0] == pytest.approx(obj0, rel=1e-12)
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
    assert result.objective > obj0  # first SCA step must make progress
    assert result.converged
    # Every iterate satisfied the original constraints (checked inside), and
    # the final trajectory does too:
    verify_safe_step(result.trajectory, allocs, default_sc)


def test_optimize_trajectory_random_scenarios_safe(rng):
    for _ in range(5):
        sc = random_feasible_scenario(rng, n_slots=20)
        traj = straight_line_trajectory(sc.uav)
        allocs, _ = solve_resource_allocation(traj, sc)
        result = optimize_trajectory(traj, allocs, sc)
        trace = result.inner_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        result.trajectory.validate(sc.uav)


def test_trajectory_validate():
    uav = make_uav(mission_t=10.0, n_slots=2, u_init=(0.0, 0.0),
                   u_final=(100.0, 0.0))
    good = Trajectory(np.array([[0.0, 0.0], [50.0, 0.0], [100.0, 0.0]]))
    good.validate(uav)
    with pytest.raises(ValueError, match="endpoints"):
        Trajectory(np.array([[5.0, 0.0], [50.0, 0.0], [100.0, 0.0]])).validate(uav)
    with pytest.raises(ValueError, match="speed"):
        Trajectory(np.array([[0.0, 0.0], [0.0, 300.0], [100.0, 0.0]])).validate(uav)
    with pytest.raises(ValueError, match="slots"):
        Trajectory(np.array([[0.0, 0.0], [100.0, 0.0]])).validate(uav)


def test_slot_rates_matches_uav_rate(default_sc):
    traj = straight_line_trajectory(default_sc.uav)
    allocs, avg = solve_resource_allocation(traj, default_sc)
    rates = slot_rates(traj, allocs, default_sc)
    assert rates == pytest.approx(allocs.r, rel=1e-9)
    assert trajectory_objective(traj, allocs, default_sc) == pytest.approx(
        avg, rel=1e-12)
