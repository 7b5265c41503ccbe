"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The planner runs shared by several criteria live in session-scoped
fixtures so the whole suite stays fast.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from uav_ic_planner.benchmarks import run_scheme, upper_bound
from uav_ic_planner.planner import evaluate_plan, solve
from uav_ic_planner.ra_solver import solve_slot, solve_resource_allocation
from uav_ic_planner.sca_trajectory import (build_surrogate,
                                           straight_line_trajectory)
from uav_ic_planner.scenario import (LN2, ChannelParams, GbsSite, Scenario,
                                     UavParams, check_feasibility,
                                     default_scenario)
from uav_ic_planner import harness

from conftest import (dense_diagonal_scenario, make_channel, make_uav,
                      random_feasible_scenario, surrogate_bounds,
                      surrogate_coeff)
from oracles import (brute_force_slot_rate, fd_derivative_in_sqdist,
                     grid_resolution_bound)

T_SWEEP = (40.0, 80.0, 120.0, 160.0, 200.0)
PLANNER_SCHEMES = ("proposed", "egoistic", "altruistic")
ALL_SCHEMES = ("proposed", "straight_fly", "successive_hover_fly",
               "egoistic", "altruistic")


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Shared runs

@pytest.fixture(scope="session")
def t150_runs(default_sc):
    """Every scheme on the default scenario at T = 150 s, with traces."""
    runs = {}
    for scheme in ALL_SCHEMES:
        result, trace = run_scheme(scheme, default_sc)
        runs[scheme] = (result, trace)
    runs["upper_bound"] = (upper_bound(default_sc), None)
    return runs


@pytest.fixture(scope="session")
def t_sweep_runs(default_sc):
    """Every scheme at each mission duration in T_SWEEP (plans kept for the
    constraint audit)."""
    runs = {}
    for t in T_SWEEP:
        sc = dataclasses.replace(
            default_sc, uav=dataclasses.replace(default_sc.uav, mission_t=t))
        for scheme in ALL_SCHEMES:
            result, trace = run_scheme(scheme, sc)
            runs[(scheme, t)] = (result, trace, sc)
        runs[("upper_bound", t)] = (upper_bound(sc), None, sc)
    return runs


# ---------------------------------------------------------------------------
# Criteria

def random_slot_instance(rng) -> tuple[tuple[float, float], Scenario]:
    k = int(rng.integers(1, 4))
    channel = make_channel()
    sites = []
    for _ in range(k):
        pos = tuple(rng.uniform(-300.0, 300.0, size=2))
        theta = float(rng.uniform(7.0, 20.0))
        g = channel.theta0 * theta ** (-channel.epsilon)
        q_max = float(rng.uniform(0.5, 1.5))
        sigma2 = 1e-8
        gamma_cap = math.log2(1.0 + g * q_max / sigma2)
        gamma = float(rng.uniform(0.2, 0.75) * gamma_cap)
        sites.append(GbsSite(pos=pos, g=g, sigma2=sigma2, q_max=q_max,
                             gamma=gamma))
    uav = make_uav(p_max=float(rng.uniform(0.3, 1.5)), u_init=(0.0, 0.0),
                   u_final=(0.0, 0.0), mission_t=10.0, n_slots=1)
    u = tuple(rng.uniform(-400.0, 400.0, size=2))
    return u, Scenario(channel=channel, sites=tuple(sites), uav=uav)


def test_criterion_1_closed_form_vs_brute_force():
    """The slot solver matches an independent grid oracle within 2e-3
    bps/Hz on >= 100 randomized instances, in under 60 s.

    Instances whose rate is too sensitive to one 1e-3 W grid step (analytic
    bound above 1.8e-3 bps/Hz) cannot be resolved by the oracle at the stated
    tolerance and are redrawn; the bound is checked, not assumed.
    """
    rng = np.random.default_rng(7)
    start = time.monotonic()
    tested = 0
    worst = 0.0
    attempts = 0
    while tested < 100:
        attempts += 1
        assert attempts < 2000, "instance generator failed to converge"
        u, sc = random_slot_instance(rng)
        if check_feasibility(sc).failing_sites:
            continue
        if grid_resolution_bound(u, sc, step=1e-3) > 1.8e-3:
            continue
        r = float(solve_slot([u], sc).r[0])
        oracle = brute_force_slot_rate(u, sc, step=1e-3)
        worst = max(worst, abs(r - oracle))
        assert abs(r - oracle) <= 2e-3, (
            f"instance {tested}: solver {r:.6f} vs oracle {oracle:.6f}")
        tested += 1
    elapsed = time.monotonic() - start
    report(1, tested >= 100 and worst <= 2e-3 and elapsed < 60.0,
           f"{tested} instances, worst |solver - oracle| = {worst:.2e} bps/Hz "
           f"(tol 2e-3), {elapsed:.1f} s")


def test_criterion_2_surrogate_validity(default_sc):
    """Tightness at the local point, global under-estimation at >= 10^4
    random points, and finite-difference agreement of both coefficients."""
    start = time.monotonic()
    rng = np.random.default_rng(11)
    traj = straight_line_trajectory(default_sc.uav)
    allocs, _ = solve_resource_allocation(traj, default_sc)
    surro = build_surrogate(traj, allocs, default_sc)
    pts_loc = traj.waypoints[1:]
    p, q = allocs.p, allocs.q
    alt = default_sc.uav.altitude
    alpha, beta0 = default_sc.channel.alpha, default_sc.channel.beta0

    def true_values(pts):
        """True UAV and TIN rates, site-major (K, N) as the surrogate's."""
        diff = pts[:, None, :] - default_sc.site_pos[None, :, :]
        s = np.einsum("nki,nki->nk", diff, diff)
        h = beta0 * (alt ** 2 + s) ** (-alpha / 2.0)
        gq = default_sc.g_vec[None, :] * q
        c = default_sc.sigma2_vec[None, :] + gq
        tin = gq / (default_sc.sigma2_vec[None, :] + h * p[:, None])
        return (np.log1p(h * p[:, None] / c) / LN2).T, (np.log1p(tin) / LN2).T

    rate_loc, tin_loc = true_values(pts_loc)
    rhat_loc, lhs_loc = surrogate_bounds(surro, pts_loc)
    tight_rate = np.max(np.abs(rhat_loc - rate_loc)
                        / np.maximum(np.abs(rate_loc), 1e-30))
    tight_tin = np.max(np.abs(lhs_loc - tin_loc)
                       / np.maximum(np.abs(tin_loc), 1e-30))
    tight_ok = tight_rate < 1e-9 and tight_tin < 1e-9

    under_ok = True
    samples = 0
    for _ in range(50):
        pts = rng.uniform(-300, 1300, size=(traj.n_slots, 2))
        rate_t, tin_t = true_values(pts)
        rhat, lhs = surrogate_bounds(surro, pts)
        under_ok &= bool(np.all(rhat <= rate_t + 1e-9))
        under_ok &= bool(np.all(lhs <= tin_t + 1e-9))
        samples += rate_t.size
    assert samples >= 10_000

    fd_ok = True
    worst_fd = 0.0
    for _ in range(100):
        pp = float(rng.uniform(1e-2, 1.5))
        qq = float(rng.uniform(0.0, 1.0))
        site = default_sc.sites[int(rng.integers(0, 3))]
        off = float(rng.uniform(0.0, 900.0))
        u = (site.pos[0] + off, site.pos[1])
        s = off ** 2

        def rate_fn(sv):
            h = beta0 * (alt ** 2 + sv) ** (-alpha / 2.0)
            return math.log2(1 + h * pp / (site.sigma2 + site.g * qq))

        def log_fn(sv):
            h = beta0 * (alt ** 2 + sv) ** (-alpha / 2.0)
            return math.log2(site.sigma2 + site.g * qq + h * pp)

        coeff = surrogate_coeff(pp, u, qq, site, default_sc.channel, alt)
        rel_a = abs(coeff + fd_derivative_in_sqdist(rate_fn, s)) / coeff
        rel_b = abs(coeff + fd_derivative_in_sqdist(log_fn, s)) / coeff
        worst_fd = max(worst_fd, rel_a, rel_b)
        fd_ok &= rel_a <= 1e-4 and rel_b <= 1e-4

    elapsed = time.monotonic() - start
    report(2, tight_ok and under_ok and fd_ok and elapsed < 30.0,
           f"tightness rel {max(tight_rate, tight_tin):.1e}, "
           f"{samples} under-estimation samples, worst FD rel {worst_fd:.1e}, "
           f"{elapsed:.1f} s")


def test_criterion_3_monotone_traces_random_scenarios():
    """Inner and outer objective traces never decrease on 10 randomized
    feasible scenarios."""
    rng = np.random.default_rng(23)
    ok = True
    for i in range(10):
        sc = random_feasible_scenario(rng, n_slots=25)
        _, trace = solve(sc)
        ok &= all(b >= a - 1e-9 for a, b in zip(trace.outer, trace.outer[1:]))
        for inner in trace.inner_per_outer:
            ok &= all(b >= a - 1e-9 for a, b in zip(inner, inner[1:]))
        assert ok, f"scenario {i}: non-monotone trace"
    report(3, ok, "10 random scenarios, all inner/outer traces non-decreasing "
                  "(tol -1e-9)")


def test_criterion_4_convergence_speed(t150_runs):
    """Proposed, egoistic and altruistic all converge (rel < 1e-4) within 20
    outer iterations at T = 150 s; whole check under 5 minutes (the fixture
    timing is included via the suite runtime, which is far below that)."""
    ok = True
    details = []
    for scheme in PLANNER_SCHEMES:
        _, trace = t150_runs[scheme]
        ok &= trace.converged and trace.iterations <= 20
        details.append(f"{scheme} {trace.iterations} iters")
    report(4, ok, ", ".join(details) + " (limit 20, rel tol 1e-4)")


def test_criterion_5_scheme_ordering(t150_runs):
    """upper_bound >= proposed >= egoistic >= max(straight, hover-fly)
    >= altruistic, and proposed beats straight-fly by >= 1 %."""
    v = {s: (r.throughput if s == "upper_bound" else r.avg_throughput)
         for s, (r, _) in t150_runs.items()}
    tol = 1e-9
    ok = (v["upper_bound"] >= v["proposed"] - tol
          >= v["egoistic"] - 2 * tol
          and v["egoistic"] >= max(v["straight_fly"],
                                   v["successive_hover_fly"]) - tol
          and max(v["straight_fly"], v["successive_hover_fly"])
          >= v["altruistic"] - tol
          and v["proposed"] >= 1.01 * v["straight_fly"])
    report(5, ok, "bps/Hz: " + ", ".join(
        f"{s}={v[s]:.4f}" for s in ("upper_bound", "proposed", "egoistic",
                                    "straight_fly", "successive_hover_fly",
                                    "altruistic")))


# Adaptive IC's gain over egoistic decoding on the dense-sites draw 3 (K=8,
# N=25, T=40 s), measured at 1.302489 vs 1.274552 bps/Hz (+2.19 %, straight
# fly 1.054286). The test asks for half of that gap.
ADAPTIVE_IC_MIN_GAIN = 0.01


def test_criterion_5_adaptive_ic_beats_egoistic():
    """The paper's headline: per-site adaptive IC/TIN decoding beats each
    site decoding only its own GU by a clear margin where many sites line
    the route (on the default scenario the two agree to 4 digits)."""
    sc = dense_diagonal_scenario(np.random.default_rng(3))
    proposed, _ = solve(sc)
    egoistic, _ = solve(sc, "egoistic")
    gain = proposed.avg_throughput / egoistic.avg_throughput - 1.0
    report(5, gain > ADAPTIVE_IC_MIN_GAIN,
           f"dense sites: proposed={proposed.avg_throughput:.6f}, "
           f"egoistic={egoistic.avg_throughput:.6f} bps/Hz, gain "
           f"{100 * gain:.2f} % (floor {100 * ADAPTIVE_IC_MIN_GAIN:.0f} %)")


def test_criterion_6_throughput_monotone_in_duration(t_sweep_runs):
    """Every scheme's throughput is non-decreasing over T in {40..200} s
    within 1e-4; the upper bound is constant."""
    ok = True
    for scheme in ALL_SCHEMES:
        vals = [t_sweep_runs[(scheme, t)][0].avg_throughput for t in T_SWEEP]
        ok &= all(b >= a - 1e-4 for a, b in zip(vals, vals[1:]))
        assert ok, f"{scheme}: not monotone in T: {vals}"
    ub = [t_sweep_runs[("upper_bound", t)][0].throughput for t in T_SWEEP]
    ok &= max(ub) - min(ub) == 0.0
    report(6, ok, f"5 schemes non-decreasing over T={list(T_SWEEP)}, "
                  f"upper bound constant at {ub[0]:.4f} bps/Hz")


def test_criterion_7_feasibility_boundaries(default_sc):
    """Minimum straight-line duration 28.284 s; hover-fly minimum equals the
    tour time; the rate-guarantee boundary sits exactly at 5 bps/Hz."""
    rep = check_feasibility(default_sc)
    reach_ok = abs(rep.min_mission_t - 28.284) <= 0.01

    from uav_ic_planner.benchmarks import shortest_site_tour
    _, tour_len = shortest_site_tour(default_sc)
    t_tour = tour_len / default_sc.uav.v_max
    from uav_ic_planner.benchmarks import successive_hover_fly, InsufficientDuration
    sc_lo = dataclasses.replace(default_sc, uav=dataclasses.replace(
        default_sc.uav, mission_t=t_tour * 0.999))
    sc_hi = dataclasses.replace(default_sc, uav=dataclasses.replace(
        default_sc.uav, mission_t=t_tour * 1.001))
    try:
        successive_hover_fly(sc_lo)
        shf_ok = False
    except InsufficientDuration:
        shf_ok = True
    successive_hover_fly(sc_hi)  # must not raise

    def feasible_at(gamma):
        sites = tuple(dataclasses.replace(s, gamma=gamma)
                      for s in default_sc.sites)
        return check_feasibility(
            dataclasses.replace(default_sc, sites=sites)).feasible

    gamma_ok = feasible_at(5.0) and not feasible_at(5.0 + 1e-6)
    report(7, reach_ok and shf_ok and gamma_ok,
           f"min T = {rep.min_mission_t:.4f} s (28.284 +/- 0.01), hover-fly "
           f"min = tour time {t_tour:.3f} s, rate-guarantee boundary at 5 "
           f"(5 feasible, 5+1e-6 infeasible)")


def test_criterion_8_mode_set_dominance(default_sc):
    """On the straight-fly trajectory, the unrestricted per-slot rate
    dominates both restricted mode families on every slot."""
    traj = straight_line_trajectory(default_sc.uav)
    any_a, _ = solve_resource_allocation(traj, default_sc, "any")
    ego_a, _ = solve_resource_allocation(traj, default_sc, "egoistic")
    alt_a, _ = solve_resource_allocation(traj, default_sc, "altruistic")
    ok = bool(np.all((any_a.r >= ego_a.r - 1e-12) & (ego_a.r >= -1e-12)
                     & (any_a.r >= alt_a.r - 1e-12)))
    report(8, ok, f"{len(any_a)} slots: rate(any) >= rate(egoistic) >= 0 and "
                  f"rate(any) >= rate(altruistic)")


def test_criterion_9_constraint_audit(t150_runs, t_sweep_runs, default_sc):
    """Every plan produced for criteria 4-6 passes a from-scratch constraint
    re-evaluation with worst slack >= -1e-8."""
    worst = math.inf
    count = 0
    for scheme, (result, _) in t150_runs.items():
        if scheme == "upper_bound":
            continue
        rep = evaluate_plan(result, default_sc)
        worst = min(worst, min(rep.residuals.values()))
        count += 1
        assert rep.objective_matches
    for (scheme, t), (result, _, sc) in t_sweep_runs.items():
        if scheme == "upper_bound":
            continue
        rep = evaluate_plan(result, sc)
        worst = min(worst, min(rep.residuals.values()))
        count += 1
    report(9, worst >= -1e-8,
           f"{count} plans audited, worst residual {worst:.2e} (tol -1e-8)")


def test_criterion_10_determinism_across_workers(tmp_path):
    """The criterion-5 comparison, run through the CLI sweep twice with
    different worker counts, produces byte-identical summary tables."""
    args = ["sweep", "--param", "mission_T", "--values", "150",
            "--schemes", ",".join(ALL_SCHEMES + ("upper_bound",))]
    outs = []
    for label, workers in (("a", 1), ("b", 4), ("c", 1)):
        out = tmp_path / label
        code = harness.main(args + ["--out", str(out), "--workers",
                                    str(workers)])
        assert code == harness.EXIT_OK
        outs.append((out / "summary.csv").read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    report(10, ok, "summary tables byte-identical across runs with "
                   "--workers 1/4/1")
