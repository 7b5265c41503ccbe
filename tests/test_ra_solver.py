import dataclasses
import math

import numpy as np
import pytest

from uav_ic_planner.planner import evaluate_plan, make_plan
from uav_ic_planner import ra_solver
from uav_ic_planner.ra_solver import (slot_rates_on_points,
                                      solve_resource_allocation, solve_slot)
from uav_ic_planner.sca_trajectory import Trajectory, straight_line_trajectory
from uav_ic_planner.scenario import (GbsSite, InfeasibleSite, Scenario,
                                     gu_power_ic)

from conftest import (make_channel, make_site, make_uav,
                      random_feasible_scenario, single_site_scenario)
from oracles import (brute_force_slot_rate, enumerate_modes, enumerate_slot,
                     gu_rate_ic, gu_rate_tin, solve_mode)

MODE_CONSTRAINTS = ("any", "egoistic", "altruistic")


def slot(u, scenario, mode_constraint="any"):
    """The allocation at one UAV position, as (tau tuple, q tuple, p, r)."""
    a = solve_slot([u], scenario, mode_constraint)
    return (tuple(int(t) for t in a.tau[0]), tuple(a.q[0].tolist()),
            float(a.p[0]), float(a.r[0]))


def test_gu_power_ic_closed_form():
    site = make_site(g=1e-7, sigma2=1e-8, gamma=2.0)
    assert gu_power_ic(site) == pytest.approx(0.3, rel=1e-12)
    assert gu_power_ic(make_site(gamma=0.0)) == 0.0


def test_gu_power_ic_achieves_guarantee_exactly():
    for gamma in (0.5, 1.0, 2.0, 4.9):
        site = make_site(g=2.3e-7, sigma2=3e-9, q_max=10.0, gamma=gamma)
        q = gu_power_ic(site)
        assert gu_rate_ic(q, site) == pytest.approx(gamma, rel=1e-10)


def test_gu_power_ic_infeasible_site():
    site = make_site(g=1e-10, gamma=2.0, q_max=1.0)  # needs 300 W
    with pytest.raises(InfeasibleSite) as exc:
        gu_power_ic(site, site_index=4)
    assert exc.value.site_index == 4
    assert exc.value.q_needed == pytest.approx(300.0, rel=1e-9)


def test_solve_slot_raises_infeasible_site():
    sc = Scenario(
        channel=make_channel(),
        sites=(make_site(), make_site(g=1e-10, gamma=2.0, q_max=1.0)),
        uav=make_uav(u_init=(0.0, 0.0), u_final=(0.0, 0.0)),
    )
    for mc in MODE_CONSTRAINTS:
        with pytest.raises(InfeasibleSite) as exc:
            solve_slot([(0.0, 0.0)], sc, mc)
        assert exc.value.site_index == 1


def test_unrepresentable_guarantee_raises_infeasible_site():
    # 2^2000 is past the float range: the site is infeasible, not an
    # arithmetic error.
    sc = Scenario(channel=make_channel(),
                  sites=(make_site(), make_site(gamma=2000.0)),
                  uav=make_uav(u_init=(0.0, 0.0), u_final=(0.0, 0.0)))
    calls = [lambda: ra_solver.solve_slot([(0.0, 0.0)], sc),
             lambda: ra_solver.solve_mode([[True, True]], [(0.0, 0.0)], sc),
             lambda: slot_rates_on_points([(0.0, 0.0)], sc)]
    for call in calls:
        with pytest.raises(InfeasibleSite) as exc:
            call()
        assert exc.value.site_index == 1
        assert exc.value.q_needed == math.inf


def edge_scenario() -> Scenario:
    """Site 1's guarantee needs 5e-10 more than its power limit: accepted as
    rounding for IC (its IC power is clamped to q_max), and its TIN cap on
    the UAV power is 0."""
    site = make_site(pos=(0.0, 0.0))
    q = site.q_max * (1.0 + 5e-10)
    edge = dataclasses.replace(
        site, gamma=math.log2(1.0 + site.g * q / site.sigma2))
    return Scenario(channel=make_channel(), sites=(site, edge),
                    uav=make_uav(u_init=(0.0, 0.0), u_final=(0.0, 0.0)))


def test_zero_tin_cap_decodes_at_the_edge_site():
    sc = edge_scenario()
    assert sc.tin_cap_numer[1] == 0.0
    for mc in ("any", "egoistic"):
        tau, _, p, r = slot((0.0, 0.0), sc, mc)
        assert tau[1] == 1 and p > 0 and r > 0
    assert slot((0.0, 0.0), sc, "altruistic")[0] == (1, 1)


def test_uav_power_cap():
    # Site 1 (no guarantee, quiet receiver) decodes alone; site 0 overhead
    # treats the UAV as noise and caps its power at 7/30 W.
    sc = Scenario(
        channel=make_channel(),
        sites=(make_site(pos=(0.0, 0.0)),
               make_site(pos=(0.0, 0.0), sigma2=1e-9, gamma=0.0)),
        uav=make_uav(u_init=(0.0, 0.0), u_final=(0.0, 0.0)),
    )
    tau, _, p, _ = slot((0.0, 0.0), sc)
    assert tau == (0, 1)
    assert p == pytest.approx(7.0 / 30.0, rel=1e-9)
    # Empty TIN set -> the UAV power limit
    assert slot((0.0, 0.0), sc, "altruistic")[2] == 1.0
    # TIN site 5 km away -> cap far above P, clamped to P
    far = Scenario(
        channel=make_channel(),
        sites=(make_site(pos=(0.0, 0.0)), make_site(pos=(5000.0, 0.0))),
        uav=make_uav(u_init=(0.0, 0.0), u_final=(0.0, 0.0)),
    )
    tau, _, p, _ = slot((0.0, 0.0), far)
    assert tau == (1, 0)
    assert p == 1.0


def test_uav_power_cap_binds_tin_rate_exactly():
    sc = Scenario(
        channel=make_channel(),
        sites=(make_site(pos=(0.0, 0.0)), make_site(pos=(30.0, 0.0))),
        uav=make_uav(u_init=(0.0, 0.0), u_final=(0.0, 0.0)),
    )
    u = (10.0, 0.0)
    tau, _, cap, _ = slot(u, sc, "egoistic")
    assert tau == (1, 0)
    assert cap < sc.uav.p_max  # binding
    site = sc.sites[1]
    rate = gu_rate_tin(cap, u, site.q_max, site, sc.channel, sc.uav.altitude)
    assert rate == pytest.approx(site.gamma, rel=1e-9)


def test_solve_mode_single_site_overhead():
    sc = single_site_scenario()
    _, q, p, r = slot((0.0, 0.0), sc)
    assert q[0] == pytest.approx(0.3, rel=1e-12)
    assert p == 1.0
    assert r == pytest.approx(math.log2(3.5), rel=1e-12)


def test_solve_mode_zero_gamma_all_ic():
    sc = Scenario(
        channel=make_channel(),
        sites=(make_site(gamma=0.0), make_site(pos=(100.0, 0.0), gamma=0.0)),
        uav=make_uav(u_init=(0.0, 0.0), u_final=(0.0, 0.0)),
    )
    tau, q, p, r = slot((0.0, 0.0), sc, "altruistic")
    assert tau == (1, 1)
    assert q == (0.0, 0.0)
    assert p == sc.uav.p_max
    # h = 1e-7 overhead, 5e-8 at 100 m offset; min of log2(11), log2(6)
    assert r == pytest.approx(math.log2(6.0), rel=1e-12)


def test_enumerate_modes():
    assert len(list(enumerate_modes(3))) == 7
    assert len(list(enumerate_modes(3, "egoistic"))) == 3
    assert list(enumerate_modes(2, "altruistic")) == [(1, 1)]
    assert all(sum(m) == 1 for m in enumerate_modes(4, "egoistic"))


def test_vectorized_solve_mode_matches_oracle(rng):
    """ra_solver.solve_mode solves every mode at every position as the
    scalar oracle does: tau and q exact, p and r within 1e-12."""
    for k in (1, 2, 3, 4):
        sc = random_feasible_scenario(rng, k=k)
        pts = np.vstack([rng.uniform(-100, 900, size=(6, 2)), sc.site_pos])
        modes = list(enumerate_modes(k))
        tau = np.array([t for t in modes for _ in pts], dtype=bool)
        a = ra_solver.solve_mode(tau, np.tile(pts, (len(modes), 1)), sc)
        for i, t in enumerate(tau):
            ref = solve_mode(tuple(int(b) for b in t), pts[i % len(pts)], sc)
            assert tuple(a.q[i]) == ref.q
            assert abs(a.p[i] - ref.p) <= 1e-12
            assert abs(a.r[i] - ref.r) <= 1e-12


def test_vectorized_solve_mode_rejects_bad_modes():
    sc = edge_scenario()
    with pytest.raises(ValueError, match="at least one site"):
        ra_solver.solve_mode([[False, False]], [(0.0, 0.0)], sc)
    # Site 1's zero cap silences the UAV only where site 1 treats it as noise.
    assert ra_solver.solve_mode([[True, False]], [(0.0, 0.0)], sc).p[0] == 0.0
    assert ra_solver.solve_mode([[False, True]], [(0.0, 0.0)], sc).p[0] > 0


def test_solve_slot_single_site_equals_solve_mode():
    sc = single_site_scenario()
    tau, q, p, r = slot((0.0, 0.0), sc)
    ref = solve_mode((1,), (0.0, 0.0), sc)
    assert (tau, q, p) == (ref.tau, ref.q, ref.p)
    assert abs(r - ref.r) <= 1e-12


def test_solve_slot_symmetric_tie_break():
    sc = Scenario(
        channel=make_channel(),
        sites=(make_site(pos=(-200.0, 0.0)), make_site(pos=(200.0, 0.0))),
        uav=make_uav(u_init=(0.0, 0.0), u_final=(0.0, 0.0)),
    )
    # Symmetric instance: single-IC modes tie; the lexicographically smallest
    # bit vector with the fewest IC bits wins.
    ego = [solve_mode(m, (0.0, 0.0), sc)
           for m in enumerate_modes(2, "egoistic")]
    assert abs(ego[0].r - ego[1].r) < 1e-12
    for mc in ("any", "egoistic"):
        assert slot((0.0, 0.0), sc, mc)[0] == (0, 1)


def test_exact_a_ties_prefer_the_last_site():
    # Identical sites tie exactly in a_k and in every mode's rate; the sort
    # by a must not disturb the site-order tie rule.
    sc = Scenario(
        channel=make_channel(),
        sites=(make_site(pos=(50.0, 0.0), gamma=0.0),) * 3,
        uav=make_uav(u_init=(0.0, 0.0), u_final=(0.0, 0.0)),
    )
    for mc in ("any", "egoistic"):
        assert slot((0.0, 0.0), sc, mc)[0] == (0, 0, 1)
        assert enumerate_slot((0.0, 0.0), sc, mc).tau == (0, 0, 1)


def test_mode_superset_dominance(rng):
    for _ in range(10):
        sc = random_feasible_scenario(rng, n_slots=4)
        u = rng.uniform(0, 800, size=2)
        r_any = slot(u, sc)[3]
        r_ego = slot(u, sc, "egoistic")[3]
        r_alt = slot(u, sc, "altruistic")[3]
        assert r_any >= r_ego - 1e-12 >= -1e-12
        assert r_any >= r_alt - 1e-12


def test_rate_non_increasing_in_gamma(rng):
    sc = single_site_scenario()
    u = (50.0, 80.0)
    prev = math.inf
    # q* = (2^gamma - 1) * 0.1 W must stay below Q = 1 W, so gamma < ~3.46
    for gamma in (0.5, 1.0, 2.0, 3.0, 3.4):
        sites = (dataclasses.replace(sc.sites[0], gamma=gamma),)
        r = slot(u, dataclasses.replace(sc, sites=sites))[3]
        assert r <= prev + 1e-12
        prev = r


def test_solve_slot_matches_brute_force_above_site(default_sc):
    from oracles import grid_resolution_bound
    u = default_sc.sites[0].pos
    r = slot(u, default_sc)[3]
    oracle = brute_force_slot_rate(u, default_sc, step=1e-3)
    # The grid solution is feasible but may undershoot the closed form by up
    # to the rate's sensitivity to one grid step in p and q.
    bound = grid_resolution_bound(u, default_sc, step=1e-3)
    assert r >= oracle - 1e-9
    assert r - oracle <= bound * 1.05 + 1e-9


def test_solve_resource_allocation_hover():
    sc = single_site_scenario(mission_t=10.0, n_slots=5)
    wp = np.tile(np.array([0.0, 0.0]), (6, 1))
    allocs, avg = solve_resource_allocation(Trajectory(wp), sc)
    assert len(allocs) == 5
    for field in (allocs.tau, allocs.q, allocs.p, allocs.r):
        assert np.all(field == field[0])
    assert avg == pytest.approx(allocs.r[0], rel=1e-12)
    assert avg == pytest.approx(math.log2(3.5), rel=1e-12)


def test_solve_resource_allocation_matches_per_slot(default_sc):
    traj = straight_line_trajectory(default_sc.uav)
    allocs, avg = solve_resource_allocation(traj, default_sc)
    for n in range(1, traj.n_slots + 1):
        ref = enumerate_slot(traj.waypoints[n], default_sc)
        assert tuple(int(t) for t in allocs.tau[n - 1]) == ref.tau
        assert abs(ref.r - allocs.r[n - 1]) < 1e-12
    assert avg == pytest.approx(np.mean(allocs.r), rel=1e-12)


def test_slot_rates_on_points_matches_solve_slot(default_sc, rng):
    pts = rng.uniform(-100, 1100, size=(50, 2))
    rates = slot_rates_on_points(pts, default_sc)
    assert np.array_equal(rates, solve_slot(pts, default_sc).r)
    for i in range(50):
        assert abs(rates[i] - enumerate_slot(pts[i], default_sc).r) <= 1e-12


def test_slot_rate_square_bound_covers_its_square(default_sc, rng):
    """With a half-width, `slot_rates_on_points` bounds the rate at every
    point of each square (corners, centre and 200 uniform points), tends to
    the centre's rate as the square shrinks, and at half-width 0 is the
    point rate bit for bit. A corner can attain the bound; the bound is
    rounded outward, so rounding never puts it below a rate inside."""
    for sc in [default_sc] + [random_feasible_scenario(rng, k=k)
                              for k in (1, 2, 3, 5, 8)]:
        centres = rng.uniform(-200.0, 1000.0, size=(40, 2))
        centres[:sc.n_sites] = sc.site_pos  # squares around the sites
        rates = slot_rates_on_points(centres, sc)
        assert np.array_equal(slot_rates_on_points(centres, sc, 0.0), rates)
        for half in (0.5, 20.0, 300.0):
            bounds = slot_rates_on_points(centres, sc, half)
            offsets = np.vstack([[[-1, -1], [-1, 1], [1, -1], [1, 1]],
                                 rng.uniform(-1.0, 1.0, size=(200, 2))])
            for c, bound in zip(centres, bounds):
                inside = slot_rates_on_points(c + half * offsets, sc)
                assert bound >= inside.max()
        tight = slot_rates_on_points(centres, sc, 1e-6)
        assert np.all(tight >= rates)
        assert np.allclose(tight, rates, rtol=1e-6, atol=0.0)


def test_k64_resource_allocation_passes_audit():
    """No cap on K: a K=64, N=20 pass in every mode family yields a plan
    that passes the full constraint audit."""
    sc = random_feasible_scenario(np.random.default_rng(64), k=64, n_slots=20)
    traj = straight_line_trajectory(sc.uav)
    for mc in MODE_CONSTRAINTS:
        allocs, avg = solve_resource_allocation(traj, sc, mc)
        assert allocs.tau.shape == (20, 64)
        report = evaluate_plan(make_plan(traj, allocs, avg, mc, sc), sc)
        assert report.all_satisfied, report.residuals
        assert report.objective_matches


def test_decoding_mode_invariants(rng):
    sc = random_feasible_scenario(rng, k=5, n_slots=4)
    pts = rng.uniform(0, 800, size=(40, 2))
    for mc in MODE_CONSTRAINTS:
        a = solve_slot(pts, sc, mc)
        assert a.tau.dtype == bool and a.tau.shape == (40, 5)
        ic = a.tau.sum(axis=1)
        assert ic.min() >= 1
        if mc == "egoistic":
            assert np.all(ic == 1)
        if mc == "altruistic":
            assert np.all(ic == 5)
        q_ic = [gu_power_ic(site) for site in sc.sites]
        assert np.array_equal(a.q, np.where(a.tau, q_ic, sc.q_max_vec))


# ---------------------------------------------------------------------------
# Threshold scan vs. the full enumeration

def _oracle_instance(rng, k):
    """A slot instance with sites without a guarantee, duplicated sites,
    positions on top of sites, and UAV power limits that bind or not."""
    channel = make_channel()
    sites = []
    for _ in range(k):
        if sites and rng.random() < 0.2:
            sites.append(sites[int(rng.integers(len(sites)))])
            continue
        theta = float(rng.uniform(6.0, 20.0))
        g = channel.theta0 * theta ** (-channel.epsilon)
        q_max = float(rng.uniform(0.3, 1.5))
        cap = math.log2(1.0 + g * q_max / 1e-8)
        gamma = (0.0 if rng.random() < 0.2
                 else float(rng.uniform(0.05, 0.9) * cap))
        sites.append(GbsSite(pos=tuple(rng.uniform(-300.0, 300.0, size=2)),
                             g=g, sigma2=1e-8, q_max=q_max, gamma=gamma))
    uav = make_uav(p_max=float(10.0 ** rng.uniform(-1.5, 0.7)),
                   u_init=(0.0, 0.0), u_final=(0.0, 0.0), mission_t=10.0,
                   n_slots=1)
    sc = Scenario(channel=channel, sites=tuple(sites), uav=uav)
    pts = rng.uniform(-400.0, 400.0, size=(6, 2))
    on_site = rng.random(6) < 0.25
    pts[on_site] = sc.site_pos[rng.integers(0, k, size=on_site.sum())]
    return sc, pts


def _assert_matches_oracle(sc, pts, mc):
    """tau and q exact, p and r within 1e-12; returns the oracle slots."""
    a = solve_slot(pts, sc, mc)
    refs = []
    for i, u in enumerate(pts):
        ref = enumerate_slot(u, sc, mc)
        got = tuple(int(t) for t in a.tau[i])
        assert got == ref.tau, (mc, i, got, ref.tau)
        assert tuple(a.q[i].tolist()) == ref.q
        assert abs(a.p[i] - ref.p) <= 1e-12
        assert abs(a.r[i] - ref.r) <= 1e-12
        refs.append(ref)
    return refs


def test_scan_matches_enumeration_oracle():
    rng = np.random.default_rng(2108)
    slots = p_binds = tin_binds = gamma0 = dups = 0
    for trial in range(72):
        k = trial % 8 + 1
        sc, pts = _oracle_instance(rng, k)
        gamma0 += sum(s.gamma == 0.0 for s in sc.sites)
        dups += len(set(sc.sites)) < k
        for mc in MODE_CONSTRAINTS:
            for ref in _assert_matches_oracle(sc, pts, mc):
                slots += 1
                if mc == "any":
                    p_binds += ref.p == sc.uav.p_max
                    tin_binds += ref.p < sc.uav.p_max
    assert slots >= 1000
    assert min(p_binds, tin_binds, gamma0, dups) >= 20


def test_scan_matches_enumeration_k12():
    sc, pts = _oracle_instance(np.random.default_rng(12), 12)
    for mc in MODE_CONSTRAINTS:
        _assert_matches_oracle(sc, pts[:2], mc)
