import dataclasses
import math

import numpy as np
import pytest

from uav_ic_planner.planner import prolong, solve
from uav_ic_planner.ra_solver import Allocation, solve_resource_allocation
from uav_ic_planner.sca_trajectory import (ACTIVE_SLACK, Trajectory,
                                           _ascent_direction, _sweep,
                                           build_surrogate,
                                           optimize_trajectory, slot_rates,
                                           solve_surrogate,
                                           straight_line_trajectory,
                                           trajectory_objective,
                                           verify_safe_step)
from uav_ic_planner.scenario import LN2, Scenario

from conftest import (make_channel, make_site, make_uav,
                      random_feasible_scenario, single_site_scenario,
                      surrogate_bounds, surrogate_coeff)
from oracles import (fd_derivative_in_sqdist, gu_rate_tin, reference_sweep,
                     uav_rate)

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
    # The slope of the UAV-rate term at alpha=2, beta0=1e-3, p=1, s=0,
    # H=100, sigma2=1e-8, g*q=3e-8.
    site = make_site(pos=(0.0, 0.0), g=1e-7, sigma2=1e-8)
    a = surrogate_coeff(1.0, (0.0, 0.0), 0.3, site, CH, 100.0)
    expected = (2 * 1e-3) / (2 * LN2 * 1e4 * (1e-3 + 4e-8 * 1e4))
    assert a == pytest.approx(expected, rel=1e-12)
    assert a == pytest.approx(1.031e-4, rel=1e-3)


def test_coeffs_zero_at_zero_power():
    site = make_site()
    assert surrogate_coeff(0.0, (10.0, 20.0), 0.5, site, CH, 100.0) == 0.0


def test_coeffs_positive_for_positive_power(rng):
    for _ in range(20):
        p = float(rng.uniform(1e-3, 2.0))
        u = rng.uniform(-500, 500, size=2)
        q = float(rng.uniform(0.0, 1.0))
        site = make_site(pos=(0.0, 0.0))
        assert surrogate_coeff(p, u, q, site, CH, 100.0) > 0.0


def test_coeffs_match_finite_differences(rng):
    """The one coefficient is the negative derivative, in squared distance,
    of both log-terms; checked by central differences at random points."""
    for _ in range(100):
        p = float(rng.uniform(1e-2, 2.0))
        q = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.choice([2.0, 2.5, 3.0]))
        ch = make_channel(alpha=alpha)
        site = make_site(pos=(0.0, 0.0), g=float(rng.uniform(1e-8, 5e-7)))
        offset = float(rng.uniform(0.0, 800.0))
        u = (offset, 0.0)
        s = offset ** 2

        coeff = surrogate_coeff(p, u, q, site, ch, 100.0)
        fd_a = -fd_derivative_in_sqdist(
            rate_of_sqdist(p, q, site, ch, 100.0), s)
        assert coeff == pytest.approx(fd_a, rel=1e-4)

        fd_b = -fd_derivative_in_sqdist(
            logterm_of_sqdist(p, q, site, ch, 100.0), s)
        assert coeff == pytest.approx(fd_b, rel=1e-4)


def _surrogate_fixture(scenario):
    traj = straight_line_trajectory(scenario.uav)
    allocs, _ = solve_resource_allocation(traj, scenario)
    return traj, allocs, build_surrogate(traj, allocs, scenario)


def test_surrogate_tight_at_local_point(default_sc):
    traj, allocs, surro = _surrogate_fixture(default_sc)
    pts = traj.waypoints[1:]
    p, q = allocs.p, allocs.q
    rhat, lhs = surrogate_bounds(surro, pts)
    for n in range(pts.shape[0]):
        for k, site in enumerate(default_sc.sites):
            args = (p[n], pts[n], q[n][k], site, default_sc.channel,
                    default_sc.uav.altitude)
            assert rhat[n, k] == pytest.approx(uav_rate(*args), rel=1e-9,
                                               abs=1e-12)
            assert lhs[n, k] == pytest.approx(gu_rate_tin(*args), rel=1e-9)


def test_surrogate_global_underestimator(default_sc, rng):
    """At 10^4 random points the surrogate UAV rates and TIN left-hand sides
    stay at or below the true UAV and GU TIN rates."""
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
        true_tin = np.log1p(default_sc.g_vec[None, :] * q / (
            default_sc.sigma2_vec[None, :] + h * p[:, None])) / LN2
        rhat, lhs = surrogate_bounds(surro, pts)
        assert np.all(rhat <= true_rate + 1e-9)
        assert np.all(lhs <= true_tin + 1e-9)
        total += s.size
    assert total >= 10_000


def test_surrogate_constant_for_zero_power():
    sc = single_site_scenario(mission_t=10.0, n_slots=3)
    traj = straight_line_trajectory(sc.uav)
    allocs = uniform_allocation(3, tau=(True,), q=(0.3,), p=0.0, r=0.0)
    surro = build_surrogate(traj, allocs, sc)
    assert np.all(surro.coeff == 0.0)


def test_solve_surrogate_fixed_point_returns_local():
    """Hovering exactly above the single site is surrogate-optimal, so the
    solver must return the local trajectory unchanged (stalled)."""
    sc = single_site_scenario(u_init=(0.0, 0.0), u_final=(0.0, 0.0),
                              mission_t=10.0, n_slots=4)
    wp = np.zeros((5, 2))
    traj = Trajectory(wp)
    allocs, _ = solve_resource_allocation(traj, sc)
    surro = build_surrogate(traj, allocs, sc)
    new_traj, rates, stalled = solve_surrogate(surro, traj)
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
    new_traj, _, stalled = solve_surrogate(surro, traj)
    assert not stalled

    def objective(pts):
        return float(np.maximum(surro.rate_bounds(pts), 0.0).mean())

    got = objective(new_traj.waypoints[1:])

    v_step = sc.uav.v_max * sc.uav.delta_t  # 100 m reach
    xs = np.arange(-v_step, v_step + 0.5, 1.0)
    gx, gy = np.meshgrid(120.0 + xs, xs, indexing="ij")
    cand = np.column_stack([gx.ravel(), gy.ravel()])
    ok = np.linalg.norm(cand - np.array([120.0, 0.0]), axis=1) <= v_step
    cand = cand[ok]
    best = -math.inf
    fixed = new_traj.waypoints[2][None, :]
    for point in cand:
        best = max(best, objective(np.vstack([point[None, :], fixed])))
    # 1 m grid resolution: allow the corresponding objective slack
    assert got >= best - 1e-4


def test_ascent_direction_slides_along_active_tin_guarantee():
    """Where a surrogate TIN guarantee is active, the projected ascent
    direction must not decrease its left-hand side to first order, even
    though the unprojected gradient (toward the decoding site, past the
    noise-treating one) would."""
    u = (100.0, 10.0)
    ch = make_channel()
    ic_site, tin_site = make_site(pos=(0.0, 0.0)), make_site(pos=(50.0, -40.0))
    p, q = 0.5, (0.3, 1.0)
    # The guarantee of the noise-treating site holds with equality at u.
    gamma = float(gu_rate_tin(p, u, q[1], tin_site, ch, 100.0))
    tin_site = dataclasses.replace(tin_site, gamma=gamma)
    sc = Scenario(channel=ch, sites=(ic_site, tin_site),
                  uav=make_uav(u_init=u, u_final=u, mission_t=10.0,
                               n_slots=2))
    traj = Trajectory(np.array([u, u, u]))
    allocs = uniform_allocation(2, tau=(True, False), q=q, p=p, r=0.0)
    surro = build_surrogate(traj, allocs, sc).rows(slice(0, 1))
    point = traj.waypoints[1]
    ev = surro._at(point[None, :])
    assert abs(ev.lhs[0, 1] - gamma) < ACTIVE_SLACK

    def lhs(x):
        return surro._at(x[None, :]).lhs[0, 1]

    step = 1e-3
    grad_lhs = np.array([(lhs(point + step * e) - lhs(point - step * e))
                         / (2.0 * step) for e in np.eye(2)])
    raw = -2.0 * surro.coeff[0, 0] * (point - np.asarray(ic_site.pos))
    scale = np.linalg.norm(grad_lhs)
    assert raw @ grad_lhs < -0.1 * np.linalg.norm(raw) * scale

    g = _ascent_direction(surro, ev)[0]
    assert np.linalg.norm(g) > 0.1 * np.linalg.norm(raw)
    assert g @ grad_lhs >= -1e-6 * np.linalg.norm(g) * scale


def _dense_sites_draw(default_sc, seed=3, k=8, n_slots=25, mission_t=40.0):
    """K sites uniform along the (0,0)->(1000,1000) diagonal within +-150 m
    of it, GU distance 6-14 m, guarantee 0.3-0.8 of the site's IC cap."""
    rng = np.random.default_rng(seed)
    template = default_sc.sites[0]
    ch = default_sc.channel
    sites = []
    for _ in range(k):
        along = rng.uniform(0.0, 1000.0)
        off = rng.uniform(-150.0, 150.0) / math.sqrt(2.0)
        g = ch.theta0 * float(rng.uniform(6.0, 14.0)) ** (-ch.epsilon)
        cap = math.log2(1.0 + g * template.q_max / template.sigma2)
        sites.append(dataclasses.replace(
            template, pos=(float(along + off), float(along - off)), g=g,
            gamma=float(rng.uniform(0.3, 0.8) * cap)))
    uav = dataclasses.replace(default_sc.uav, n_slots=n_slots,
                              mission_t=mission_t)
    return Scenario(channel=ch, sites=tuple(sites), uav=uav)


def _sweep_case(name, default_sc):
    """(surrogate, local waypoints) of one named sweep case."""
    if name == "active_tin":
        # The noise-treating site's guarantee holds with equality at u.
        u, ch, p, q = (100.0, 10.0), make_channel(), 0.5, (0.3, 1.0)
        tin_site = make_site(pos=(50.0, -40.0))
        gamma = float(gu_rate_tin(p, u, q[1], tin_site, ch, 100.0))
        sites = (make_site(pos=(0.0, 0.0)),
                 dataclasses.replace(tin_site, gamma=gamma))
        sc = Scenario(channel=ch, sites=sites,
                      uav=make_uav(u_init=u, u_final=u, mission_t=10.0,
                                   n_slots=4))
        traj = Trajectory(np.tile(u, (5, 1)))
        allocs = uniform_allocation(4, tau=(True, False), q=q, p=p, r=0.0)
        return build_surrogate(traj, allocs, sc), traj.waypoints
    if name == "dense_sites":
        sc = _dense_sites_draw(default_sc)
    else:
        n_slots = {"n2": 2, "n3": 3, "prolonged_n2000": 2000}.get(
            name, default_sc.uav.n_slots)
        sc = dataclasses.replace(default_sc, uav=dataclasses.replace(
            default_sc.uav, n_slots=n_slots))
    if name == "prolonged_n2000":
        traj = prolong(solve(default_sc)[0].trajectory, 2000)
    else:
        traj = straight_line_trajectory(sc.uav)
    if name == "zero_power":
        allocs = uniform_allocation(traj.n_slots, tau=(True, False, False),
                                    q=(0.3, 1.0, 1.0), p=0.0, r=0.0)
    else:
        mode = name if name in ("egoistic", "altruistic") else "any"
        allocs, _ = solve_resource_allocation(traj, sc, mode)
    return build_surrogate(traj, allocs, sc), traj.waypoints


@pytest.mark.parametrize("name", ["any", "egoistic", "altruistic",
                                  "dense_sites", "prolonged_n2000", "n2", "n3",
                                  "zero_power", "active_tin"])
def test_sweep_matches_reference(default_sc, name):
    """The sweeps on per-colour views, carrying the current-point evaluation,
    move every waypoint bit for bit as the plain two-evaluation sweeps do."""
    surro, local = _sweep_case(name, default_sc)
    want, got = local.copy(), local.copy()
    want_moved = reference_sweep(surro, want)
    assert _sweep(surro, got) is want_moved
    assert got.tobytes() == want.tobytes()
    assert want_moved is (name != "zero_power")


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
