import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from uav_ic_planner import scenario as scenario_module
from uav_ic_planner.scenario import (DEFAULT_SCENARIO_YAML, GbsSite, Scenario,
                                     ScenarioError, check_feasibility,
                                     db_to_linear, dbm_to_watts,
                                     default_scenario, parse_scenario)

from conftest import (make_channel, make_site, make_uav, place_sites_uniform,
                      scenario_yaml)


MINIMAL_YAML = """\
channel: {beta0_db: -30.0, alpha: 2.0, theta0_db: -40.0, epsilon: 3.0}
uav:
  altitude_m: 100.0
  v_max_mps: 50.0
  p_max_dbm: 30.0
  u_init: [0.0, 0.0]
  u_final: [1000.0, 1000.0]
  T_s: 150.0
  N: 200
sites:
  - {pos: [500.0, 500.0], theta_m: 10.0, sigma2_dbm: -50.0, q_max_dbm: 30.0,
     gamma_bpshz: 2.0}
"""


def test_unit_conversions():
    assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(-50.0) == pytest.approx(1e-8, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)


def test_parse_minimal():
    sc = parse_scenario(MINIMAL_YAML)
    assert sc.channel.beta0 == pytest.approx(1e-3, rel=1e-12)
    assert sc.uav.p_max == pytest.approx(1.0, rel=1e-12)
    site = sc.sites[0]
    # theta = 10 m, theta0 = 1e-4, epsilon = 3 -> g = 1e-4 * 10^-3 = 1e-7
    assert site.g == pytest.approx(1e-7, rel=1e-12)
    assert site.sigma2 == pytest.approx(1e-8, rel=1e-12)
    assert sc.uav.t_max == 1800.0  # default applied


def test_parse_rejects_unknown_keys():
    bad = MINIMAL_YAML.replace("epsilon: 3.0", "epsilon: 3.0, bogus: 1")
    with pytest.raises(ScenarioError, match=r"channel.*bogus"):
        parse_scenario(bad)


def test_parse_rejects_theta_and_g_together():
    bad = MINIMAL_YAML.replace("theta_m: 10.0", "theta_m: 10.0, g_linear: 1e-7")
    with pytest.raises(ScenarioError, match=r"sites\[0\]"):
        parse_scenario(bad)


def test_parse_rejects_missing_section():
    bad = "\n".join(line for line in MINIMAL_YAML.splitlines()
                    if not line.startswith("channel"))
    with pytest.raises(ScenarioError, match="channel"):
        parse_scenario(bad)


def test_parse_error_paths_name_fields():
    bad = MINIMAL_YAML.replace("N: 200", "N: 2.5")
    with pytest.raises(ScenarioError, match=r"uav\.N"):
        parse_scenario(bad)
    bad = MINIMAL_YAML.replace("gamma_bpshz: 2.0", "gamma_bpshz: -1.0")
    with pytest.raises(ScenarioError, match="gamma"):
        parse_scenario(bad)


def test_mission_exceeding_battery_rejected():
    bad = MINIMAL_YAML.replace("T_s: 150.0", "T_s: 2000.0")
    with pytest.raises(ScenarioError, match=r"uav\.T_s"):
        parse_scenario(bad)


def test_round_trip_preserves_linear_values():
    for text in (MINIMAL_YAML, DEFAULT_SCENARIO_YAML):
        sc1 = parse_scenario(text)
        sc2 = parse_scenario(scenario_yaml(sc1))
        assert sc2.channel.beta0 == pytest.approx(sc1.channel.beta0, rel=1e-12)
        assert sc2.uav.p_max == pytest.approx(sc1.uav.p_max, rel=1e-12)
        assert sc2.uav.u_final == sc1.uav.u_final
        for a, b in zip(sc1.sites, sc2.sites):
            assert b.g == pytest.approx(a.g, rel=1e-12)
            assert b.sigma2 == pytest.approx(a.sigma2, rel=1e-12)
            assert b.q_max == pytest.approx(a.q_max, rel=1e-12)
            assert b.gamma == a.gamma


def test_default_scenario_shape():
    sc = default_scenario()
    assert sc.n_sites == 3
    assert sc.uav.u_init == (0.0, 0.0)
    assert sc.uav.u_final == (1000.0, 1000.0)
    report = check_feasibility(sc)
    assert report.feasible
    # The tightest site supports exactly 5 bps/Hz at maximum GU power.
    assert report.gamma_max == pytest.approx(5.0, abs=1e-12)
    assert report.min_mission_t == pytest.approx(math.sqrt(2) * 1000 / 50,
                                                 rel=1e-12)


def test_reachability_boundary():
    sc = default_scenario()
    for t, ok in ((28.284, True), (20.0, False), (150.0, True)):
        sc2 = dataclasses.replace(sc, uav=dataclasses.replace(sc.uav,
                                                              mission_t=t))
        assert check_feasibility(sc2).reach_ok is ok


def test_gamma_boundary_on_default():
    sc = default_scenario()
    for gamma, ok in ((5.0, True), (5.0 + 1e-6, False)):
        sites = tuple(dataclasses.replace(s, gamma=gamma) for s in sc.sites)
        sc2 = dataclasses.replace(sc, sites=sites)
        report = check_feasibility(sc2)
        assert report.feasible is ok


def test_invalid_site_values_rejected():
    with pytest.raises(ScenarioError):
        make_site(g=0.0)
    with pytest.raises(ScenarioError):
        make_site(sigma2=-1.0)
    with pytest.raises(ScenarioError):
        make_channel(alpha=1.5)
    with pytest.raises(ScenarioError):
        make_uav(n_slots=0)
    with pytest.raises(ScenarioError):
        Scenario(channel=make_channel(), sites=(), uav=make_uav())


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(1.0, 100.0), q_max=st.floats(0.01, 10.0),
       factor=st.floats(1.01, 5.0))
def test_gamma_max_monotone(theta, q_max, factor):
    """Supportable guarantee falls with GU distance and rises with GU power."""
    ch = make_channel()
    uav = make_uav()

    def gmax(th, q):
        site = GbsSite(pos=(0.0, 0.0), g=ch.theta0 * th ** -ch.epsilon,
                       sigma2=1e-8, q_max=q, gamma=0.0)
        sc = Scenario(channel=ch, sites=(site,), uav=uav)
        return check_feasibility(sc).gamma_max

    assert gmax(theta * factor, q_max) <= gmax(theta, q_max)
    assert gmax(theta, q_max * factor) >= gmax(theta, q_max)


def test_place_sites_uniform_bounds(rng):
    pts = place_sites_uniform(rng, 20, 300.0, 500.0)
    assert len(pts) == 20
    assert all(0.0 <= x <= 300.0 and 0.0 <= y <= 500.0 for x, y in pts)


# Every numeric key of MINIMAL_YAML: (text to replace, the replacement with
# the value at {}, the key's path). t_max_s is added after N, and g_linear
# replaces theta_m.
NUMERIC_KEYS = [
    ("beta0_db: -30.0", "beta0_db: {}", "channel.beta0_db"),
    ("alpha: 2.0", "alpha: {}", "channel.alpha"),
    ("theta0_db: -40.0", "theta0_db: {}", "channel.theta0_db"),
    ("epsilon: 3.0", "epsilon: {}", "channel.epsilon"),
    ("altitude_m: 100.0", "altitude_m: {}", "uav.altitude_m"),
    ("v_max_mps: 50.0", "v_max_mps: {}", "uav.v_max_mps"),
    ("p_max_dbm: 30.0", "p_max_dbm: {}", "uav.p_max_dbm"),
    ("u_init: [0.0, 0.0]", "u_init: [0.0, {}]", "uav.u_init"),
    ("u_final: [1000.0, 1000.0]", "u_final: [{}, 1000.0]", "uav.u_final"),
    ("T_s: 150.0", "T_s: {}", "uav.T_s"),
    ("N: 200", "N: {}", "uav.N"),
    ("N: 200", "N: 200\n  t_max_s: {}", "uav.t_max_s"),
    ("pos: [500.0, 500.0]", "pos: [{}, 500.0]", "sites[0].pos"),
    ("theta_m: 10.0", "theta_m: {}", "sites[0].theta_m"),
    ("theta_m: 10.0", "g_linear: {}", "sites[0].g_linear"),
    ("sigma2_dbm: -50.0", "sigma2_dbm: {}", "sites[0].sigma2_dbm"),
    ("q_max_dbm: 30.0", "q_max_dbm: {}", "sites[0].q_max_dbm"),
    ("gamma_bpshz: 2.0", "gamma_bpshz: {}", "sites[0].gamma_bpshz"),
]

REJECTED = [
    ("altitude_m: 100.0", "altitude_m: .nan", "uav.altitude_m"),
    ("altitude_m: 100.0", "altitude_m: .inf", "uav.altitude_m"),
    ("gamma_bpshz: 2.0", "gamma_bpshz: .nan", "sites[0].gamma_bpshz"),
    ("pos: [500.0, 500.0]", "pos: [.inf, 500.0]", "sites[0].pos"),
    ("u_init: [0.0, 0.0]", "u_init: [0.0, .nan]", "uav.u_init"),
    # Finite, but too large to convert to watts / linear units.
    ("p_max_dbm: 30.0", "p_max_dbm: 1.0e+5", "uav.p_max_dbm"),
    ("q_max_dbm: 30.0", "q_max_dbm: 1.0e+5", "sites[0].q_max_dbm"),
    ("beta0_db: -30.0", "beta0_db: 1.0e+5", "channel.beta0_db"),
    # In range for the parser, out of range for the site's validator.
    ("theta_m: 10.0", "g_linear: 0", "sites[0].g_linear"),
    ("theta_m: 10.0", "g_linear: -1", "sites[0].g_linear"),
    ("theta_m: 10.0", "theta_m: 1.0e+300", "sites[0].theta_m"),
    ("epsilon: 3.0", "epsilon: 1.0e+300", "sites[0].theta_m"),
    ("gamma_bpshz: 2.0", "gamma_bpshz: -1", "sites[0].gamma_bpshz"),
    ("N: 200", "N: 200\n  t_max_s: -1", "uav.t_max_s"),
    # Out of range for the conversion: theta_m to a gain, an int to a float.
    ("theta_m: 10.0", "theta_m: 0", "sites[0].theta_m"),
    ("theta_m: 10.0", "theta_m: 1.0e-300", "sites[0].theta_m"),
    pytest.param("T_s: 150.0", "T_s: 1" + "0" * 400, "uav.T_s",
                 id="T_s-int-too-large-for-float"),
]
REJECTED += [(old, new.format(value), path)
             for old, new, path in NUMERIC_KEYS
             for value in (".nan", ".inf", "-.inf", "abc")
             if (old, new.format(value), path) not in REJECTED]


@pytest.mark.parametrize("old, new, path", REJECTED)
def test_parse_rejects_non_finite_numbers(old, new, path):
    assert old in MINIMAL_YAML
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(MINIMAL_YAML.replace(old, new))
    assert exc.value.path == path


def test_validators_reject_non_finite_values():
    with pytest.raises(ScenarioError, match=r"uav\.altitude_m"):
        make_uav(altitude=math.nan)
    with pytest.raises(ScenarioError, match=r"site\.gamma"):
        make_site(gamma=math.nan)
    with pytest.raises(ScenarioError, match=r"site\.pos"):
        make_site(pos=(math.inf, 0.0))
    with pytest.raises(ScenarioError, match=r"uav\.p_max_dbm: must be finite"):
        make_uav(p_max=math.inf)


def _dense_sites_yaml(monkeypatch) -> str:
    """The scenario document of the dense-sites benchmark workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return yaml.safe_dump(workloads.WORKLOADS["dense-sites"].make_doc(),
                          sort_keys=False)


LOADERS = [
    pytest.param(yaml.SafeLoader, id="SafeLoader"),
    pytest.param(getattr(yaml, "CSafeLoader", None), id="CSafeLoader",
                 marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                          reason="PyYAML without libyaml")),
]


@pytest.mark.parametrize("loader", LOADERS)
def test_yaml_loaders_parse_alike(monkeypatch, loader):
    """libyaml's loader, used when PyYAML has it, and the pure-Python one
    build equal scenarios, and both report a syntax error at <document>."""
    docs = (DEFAULT_SCENARIO_YAML, _dense_sites_yaml(monkeypatch))
    monkeypatch.setattr(scenario_module, "YAML_LOADER", yaml.SafeLoader)
    want = [parse_scenario(text) for text in docs]
    monkeypatch.setattr(scenario_module, "YAML_LOADER", loader)
    got = [parse_scenario(text) for text in docs]
    assert got == want
    assert got[1].n_sites == 8
    with pytest.raises(ScenarioError, match="invalid YAML") as exc:
        parse_scenario(MINIMAL_YAML.replace("[0.0, 0.0]", "[0.0, 0.0"))
    assert exc.value.path == "<document>"
