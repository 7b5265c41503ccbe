"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import yaml

from uav_ic_planner.ra_solver import Allocation
from uav_ic_planner.sca_trajectory import Trajectory, build_surrogate
from uav_ic_planner.scenario import (DEFAULT_SCENARIO_YAML, ChannelParams,
                                     GbsSite, Scenario, UavParams,
                                     check_feasibility, default_scenario,
                                     parse_scenario)


def make_site(pos=(0.0, 0.0), g=1e-7, sigma2=1e-8, q_max=1.0,
              gamma=2.0) -> GbsSite:
    return GbsSite(pos=pos, g=g, sigma2=sigma2, q_max=q_max, gamma=gamma)


def make_channel(beta0=1e-3, alpha=2.0, theta0=1e-4, epsilon=3.0) -> ChannelParams:
    return ChannelParams(beta0=beta0, alpha=alpha, theta0=theta0,
                         epsilon=epsilon)


def make_uav(altitude=100.0, v_max=50.0, p_max=1.0, u_init=(0.0, 0.0),
             u_final=(1000.0, 1000.0), mission_t=150.0, n_slots=200,
             t_max=1800.0) -> UavParams:
    return UavParams(altitude=altitude, v_max=v_max, p_max=p_max,
                     u_init=u_init, u_final=u_final, mission_t=mission_t,
                     n_slots=n_slots, t_max=t_max)


def single_site_scenario(u_init=(0.0, 0.0), u_final=(0.0, 0.0),
                         mission_t=10.0, n_slots=2, gamma=2.0,
                         site_pos=(0.0, 0.0)) -> Scenario:
    return Scenario(
        channel=make_channel(),
        sites=(make_site(pos=site_pos, gamma=gamma),),
        uav=make_uav(u_init=u_init, u_final=u_final, mission_t=mission_t,
                     n_slots=n_slots),
    )


def scenario_yaml(sc: Scenario) -> str:
    """The scenario document of `sc`; each site's gain is written as
    g_linear, since a Scenario keeps only the gain, not the GU distance."""
    def db(x: float) -> float:
        return 10.0 * math.log10(x)

    ch, uav = sc.channel, sc.uav
    doc = {
        "channel": {"beta0_db": db(ch.beta0), "alpha": ch.alpha,
                    "theta0_db": db(ch.theta0), "epsilon": ch.epsilon},
        "uav": {"altitude_m": uav.altitude, "v_max_mps": uav.v_max,
                "p_max_dbm": db(uav.p_max) + 30.0,
                "u_init": list(uav.u_init), "u_final": list(uav.u_final),
                "T_s": uav.mission_t, "N": uav.n_slots, "t_max_s": uav.t_max},
        "sites": [{"pos": list(s.pos), "g_linear": s.g,
                   "sigma2_dbm": db(s.sigma2) + 30.0,
                   "q_max_dbm": db(s.q_max) + 30.0, "gamma_bpshz": s.gamma}
                  for s in sc.sites],
    }
    return yaml.safe_dump(doc, sort_keys=False)


def surrogate_coeff(p, u, q, site, channel, altitude) -> float:
    """`build_surrogate`'s slope `coeff` for one slot flown at u with UAV
    power p, next to one decoding site whose GU transmits at q."""
    u = (float(u[0]), float(u[1]))
    uav = make_uav(altitude=altitude, u_init=u, u_final=u, mission_t=10.0,
                   n_slots=1)
    sc = Scenario(channel=channel, sites=(site,), uav=uav)
    allocs = Allocation(tau=np.array([[True]]), q=np.array([[q]], dtype=float),
                        p=np.array([p], dtype=float), r=np.zeros(1))
    surro = build_surrogate(Trajectory(np.array([u, u])), allocs, sc)
    return float(surro.coeff[0, 0])


def surrogate_bounds(surro, points) -> tuple[np.ndarray, np.ndarray]:
    """The surrogate's UAV-rate bounds and TIN guarantee left-hand sides at
    `points` (one per slot), site-major (K, N), for every site/slot pair,
    not only the pairs the allocation decodes or treats as noise."""
    on = np.ones_like(surro.ic_mask)
    ev = dataclasses.replace(surro, ic_mask=on, tin_mask=on).rows(
        slice(None))._at(points)
    return ev.rate, ev.lhs


def place_sites_uniform(rng: np.random.Generator, k: int,
                        x_max: float, y_max: float) -> list[tuple[float, float]]:
    """Uniform random site positions inside [0, x_max] x [0, y_max]."""
    pts = rng.uniform([0.0, 0.0], [x_max, y_max], size=(k, 2))
    return [(float(x), float(y)) for x, y in pts]


def random_feasible_scenario(rng: np.random.Generator, k: int | None = None,
                             n_slots: int = 30) -> Scenario:
    """A randomized scenario guaranteed feasible: gammas are drawn strictly
    below each site's maximum supportable guarantee and the mission duration
    strictly above the straight-line flight time."""
    k = k if k is not None else int(rng.integers(1, 4))
    area = 800.0
    channel = make_channel()
    sites = []
    for pos in place_sites_uniform(rng, k, area, area):
        theta = float(rng.uniform(6.0, 14.0))
        g = channel.theta0 * theta ** (-channel.epsilon)
        sigma2 = 1e-8
        q_max = float(rng.uniform(0.5, 1.5))
        gamma_cap = math.log2(1.0 + g * q_max / sigma2)
        gamma = float(rng.uniform(0.3, 0.8) * gamma_cap)
        sites.append(GbsSite(pos=pos, g=g, sigma2=sigma2, q_max=q_max,
                             gamma=gamma))
    u_init = (float(rng.uniform(0, area)), float(rng.uniform(0, area)))
    u_final = (float(rng.uniform(0, area)), float(rng.uniform(0, area)))
    v_max = 50.0
    min_t = math.dist(u_init, u_final) / v_max
    mission_t = float(min_t * rng.uniform(1.5, 4.0) + rng.uniform(5.0, 40.0))
    uav = make_uav(p_max=float(rng.uniform(0.5, 1.5)), u_init=u_init,
                   u_final=u_final, mission_t=mission_t, n_slots=n_slots)
    scenario = Scenario(channel=channel, sites=tuple(sites), uav=uav)
    report = check_feasibility(scenario)
    assert report.feasible, "generator bug: scenario must be feasible"
    return scenario


def dense_diagonal_scenario(rng: np.random.Generator, k: int = 8,
                            n_slots: int = 25,
                            mission_t: float = 40.0) -> Scenario:
    """K sites uniform along the default mission's (0,0)->(1000,1000)
    diagonal within +-150 m of it; GU distance 6-14 m; guarantee 0.3-0.8 of
    the site's IC cap. The draws match the dense-sites benchmark workload's
    generator, so `default_rng(3)` gives its scenario."""
    doc = yaml.safe_load(DEFAULT_SCENARIO_YAML)
    doc["uav"]["N"] = n_slots
    doc["uav"]["T_s"] = mission_t
    template = doc["sites"][0]
    ch = doc["channel"]
    theta0 = 10.0 ** (ch["theta0_db"] / 10.0)
    sigma2 = 10.0 ** ((template["sigma2_dbm"] - 30.0) / 10.0)
    q_max = 10.0 ** ((template["q_max_dbm"] - 30.0) / 10.0)
    sites = []
    for _ in range(k):
        along = rng.uniform(0.0, 1000.0)
        off = rng.uniform(-150.0, 150.0) / math.sqrt(2.0)
        theta = float(rng.uniform(6.0, 14.0))
        cap = math.log2(1.0 + theta0 * theta ** (-ch["epsilon"]) * q_max
                        / sigma2)
        sites.append({
            "pos": [float(along + off), float(along - off)],
            "theta_m": theta,
            "sigma2_dbm": template["sigma2_dbm"],
            "q_max_dbm": template["q_max_dbm"],
            "gamma_bpshz": float(rng.uniform(0.3, 0.8) * cap),
        })
    doc["sites"] = sites
    return parse_scenario(yaml.safe_dump(doc))


@pytest.fixture(scope="session")
def default_sc() -> Scenario:
    return default_scenario()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
