"""Problem instances: channel/site/UAV parameters, config parsing, feasibility.

All quantities are kept in linear units internally (watts, dimensionless
gains, meters, seconds, bps/Hz). dB / dBm values are accepted only at the
config boundary and converted once at parse time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np
import yaml

LN2 = math.log(2.0)

# Slack (relative to the flight distance) on the reachability bound, so that
# mission durations quoted rounded to ~4 significant digits still count as
# reachable at the boundary.
REACH_REL_TOL = 1e-4
# Absolute slack (bps/Hz) on the per-site rate-guarantee bound, absorbing
# rounding in the dB -> linear conversions.
GAMMA_ABS_TOL = 1e-9

DEFAULT_T_MAX_S = 1800.0

# libyaml's parser if PyYAML has it; both share the safe resolver/constructor.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """A scenario document violates the schema or an invariant."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _check_finite(prefix: str, **fields) -> None:
    """Reject NaN and infinities, which pass every `<`/`<=` check below."""
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise ScenarioError(f"{prefix}.{name}",
                                f"must be finite, got {value!r}")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(w: float) -> float:
    return 10.0 * math.log10(w) + 30.0


@dataclass(frozen=True)
class ChannelParams:
    """Pathloss parameters, stored in linear scale."""

    beta0: float    # air-to-ground reference gain at 1 m
    alpha: float    # air-to-ground pathloss exponent
    theta0: float   # ground reference gain at 1 m
    epsilon: float  # ground pathloss exponent

    def __post_init__(self):
        _check_finite("channel", beta0=self.beta0, alpha=self.alpha,
                      theta0=self.theta0, epsilon=self.epsilon)
        if self.beta0 <= 0 or self.theta0 <= 0:
            raise ScenarioError("channel", "reference gains must be positive")
        if self.alpha < 2:
            raise ScenarioError("channel.alpha", f"must be >= 2, got {self.alpha}")
        if self.epsilon <= 0:
            raise ScenarioError("channel.epsilon", "must be positive")


@dataclass(frozen=True)
class GbsSite:
    """One ground base station and its associated ground user.

    `g` is the GBS-to-GU channel gain in linear scale, resolved at parse time
    (either given directly or derived from the GU distance `theta`).
    """

    pos: tuple[float, float]  # horizontal coordinates, m
    g: float                  # GU channel gain, linear
    sigma2: float             # noise power, W
    q_max: float              # max GU transmit power, W
    gamma: float              # min GU rate, bps/Hz
    theta: float | None = None  # GBS-to-GU distance if that form was used, m

    def __post_init__(self):
        _check_finite("site", pos=self.pos, g=self.g, sigma2=self.sigma2,
                      q_max=self.q_max, gamma=self.gamma)
        if self.g <= 0:
            raise ScenarioError("site.g", "GU channel gain must be positive")
        if self.sigma2 <= 0:
            raise ScenarioError("site.sigma2", "noise power must be positive")
        if self.q_max <= 0:
            raise ScenarioError("site.q_max", "max GU power must be positive")
        if self.gamma < 0:
            raise ScenarioError("site.gamma", "min GU rate must be >= 0")


@dataclass(frozen=True)
class UavParams:
    altitude: float                 # m
    v_max: float                    # m/s
    p_max: float                    # W
    u_init: tuple[float, float]     # m
    u_final: tuple[float, float]    # m
    mission_t: float                # s
    n_slots: int
    t_max: float = DEFAULT_T_MAX_S  # battery lifetime bound, s

    def __post_init__(self):
        _check_finite("uav", altitude_m=self.altitude, v_max_mps=self.v_max,
                      p_max=self.p_max, u_init=self.u_init,
                      u_final=self.u_final, T_s=self.mission_t,
                      t_max_s=self.t_max)
        if self.altitude <= 0:
            raise ScenarioError("uav.altitude_m", "must be positive")
        if self.v_max <= 0:
            raise ScenarioError("uav.v_max_mps", "must be positive")
        if self.p_max <= 0:
            raise ScenarioError("uav.p_max_dbm", "max power must be positive")
        if self.n_slots < 1:
            raise ScenarioError("uav.N", f"must be >= 1, got {self.n_slots}")
        if self.mission_t <= 0:
            raise ScenarioError("uav.T_s", "must be positive")
        if self.mission_t > self.t_max:
            raise ScenarioError(
                "uav.T_s",
                f"mission duration {self.mission_t} s exceeds battery lifetime "
                f"{self.t_max} s")

    @property
    def delta_t(self) -> float:
        return self.mission_t / self.n_slots


@dataclass(frozen=True)
class Scenario:
    channel: ChannelParams
    sites: tuple[GbsSite, ...]
    uav: UavParams

    def __post_init__(self):
        if len(self.sites) < 1:
            raise ScenarioError("sites", "at least one site is required")

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    # Array views used by the vectorized solvers. cached_property stores into
    # __dict__ directly, which is fine on a frozen dataclass.
    @cached_property
    def site_pos(self) -> np.ndarray:
        return np.array([s.pos for s in self.sites], dtype=float)

    @cached_property
    def g_vec(self) -> np.ndarray:
        return np.array([s.g for s in self.sites], dtype=float)

    @cached_property
    def sigma2_vec(self) -> np.ndarray:
        return np.array([s.sigma2 for s in self.sites], dtype=float)

    @cached_property
    def q_max_vec(self) -> np.ndarray:
        return np.array([s.q_max for s in self.sites], dtype=float)

    @cached_property
    def gamma_vec(self) -> np.ndarray:
        return np.array([s.gamma for s in self.sites], dtype=float)

    @cached_property
    def q_ic_vec(self) -> np.ndarray:
        # IC-mode GU powers; raises InfeasibleSite while one is out of reach.
        from .ra_solver import gu_power_ic  # ra_solver imports this module
        return np.array([gu_power_ic(s, k) for k, s in enumerate(self.sites)])

    @cached_property
    def tin_cap_numer(self) -> np.ndarray:
        # h times the TIN cap on the UAV power, inf without a guarantee. The
        # scalar 2.0 ** gamma: numpy's array power can differ in the last bit.
        return np.array([s.g * s.q_max / (2.0 ** s.gamma - 1.0) - s.sigma2
                         if 2.0 ** s.gamma > 1.0 else math.inf
                         for s in self.sites])


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    reach_ok: bool
    ic_rate_at_max: tuple[float, ...]  # per-site IC rate at q = Q_k, bps/Hz
    gamma_max: float                   # min over sites, bps/Hz
    min_mission_t: float               # straight-line flight time, s
    failing_sites: tuple[int, ...]     # 0-based indices with rate < gamma


# ---------------------------------------------------------------------------
# Parsing

_CHANNEL_KEYS = {"beta0_db", "alpha", "theta0_db", "epsilon"}
_UAV_KEYS = {"altitude_m", "v_max_mps", "p_max_dbm", "u_init", "u_final",
             "T_s", "N", "t_max_s"}
_SITE_KEYS = {"pos", "theta_m", "g_linear", "sigma2_dbm", "q_max_dbm",
              "gamma_bpshz"}


def _require_mapping(node: Any, path: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(path, f"expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: set[str], path: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ScenarioError(path, f"unknown keys: {sorted(unknown)}")


def _number(node: dict, key: str, path: str, required: bool = True,
            default: float | None = None) -> float:
    if key not in node:
        if required:
            raise ScenarioError(f"{path}.{key}", "missing required field")
        return default
    value = node[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ScenarioError(f"{path}.{key}",
                            f"expected a finite number, got {value!r}")
    return float(value)


def _from_db(node: dict, key: str, path: str, to_linear) -> float:
    """A dB or dBm field in linear units, or the field path if too large."""
    try:
        return to_linear(_number(node, key, path))
    except OverflowError:
        raise ScenarioError(f"{path}.{key}", "out of range") from None


def _point(node: dict, key: str, path: str) -> tuple[float, float]:
    if key not in node:
        raise ScenarioError(f"{path}.{key}", "missing required field")
    value = node[key]
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and math.isfinite(v) for v in value)):
        raise ScenarioError(f"{path}.{key}",
                            f"expected finite [x, y], got {value!r}")
    return float(value[0]), float(value[1])


def parse_scenario(text: str) -> Scenario:
    """Parse a YAML scenario document into a validated Scenario.

    Rejects unknown keys and reports violations with a field path.
    """
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError("<document>", f"invalid YAML: {exc}") from exc
    doc = _require_mapping(doc, "<document>")
    _check_keys(doc, {"channel", "uav", "sites"}, "<document>")
    for section in ("channel", "uav", "sites"):
        if section not in doc:
            raise ScenarioError(section, "missing required section")

    ch_node = _require_mapping(doc["channel"], "channel")
    _check_keys(ch_node, _CHANNEL_KEYS, "channel")
    channel = ChannelParams(
        beta0=_from_db(ch_node, "beta0_db", "channel", db_to_linear),
        alpha=_number(ch_node, "alpha", "channel"),
        theta0=_from_db(ch_node, "theta0_db", "channel", db_to_linear),
        epsilon=_number(ch_node, "epsilon", "channel"),
    )

    uav_node = _require_mapping(doc["uav"], "uav")
    _check_keys(uav_node, _UAV_KEYS, "uav")
    n_raw = uav_node.get("N")
    if not isinstance(n_raw, int) or isinstance(n_raw, bool):
        raise ScenarioError("uav.N", f"expected an integer, got {n_raw!r}")
    uav = UavParams(
        altitude=_number(uav_node, "altitude_m", "uav"),
        v_max=_number(uav_node, "v_max_mps", "uav"),
        p_max=_from_db(uav_node, "p_max_dbm", "uav", dbm_to_watts),
        u_init=_point(uav_node, "u_init", "uav"),
        u_final=_point(uav_node, "u_final", "uav"),
        mission_t=_number(uav_node, "T_s", "uav"),
        n_slots=n_raw,
        t_max=_number(uav_node, "t_max_s", "uav", required=False,
                      default=DEFAULT_T_MAX_S),
    )

    sites_node = doc["sites"]
    if not isinstance(sites_node, list) or not sites_node:
        raise ScenarioError("sites", "expected a non-empty list")
    sites = []
    for i, raw in enumerate(sites_node):
        path = f"sites[{i}]"
        node = _require_mapping(raw, path)
        _check_keys(node, _SITE_KEYS, path)
        has_theta = "theta_m" in node
        has_g = "g_linear" in node
        if has_theta == has_g:
            raise ScenarioError(path, "exactly one of theta_m / g_linear required")
        if has_theta:
            theta = _number(node, "theta_m", path)
            if theta <= 0:
                raise ScenarioError(f"{path}.theta_m", "must be positive")
            g = channel.theta0 * theta ** (-channel.epsilon)
        else:
            theta = None
            g = _number(node, "g_linear", path)
        try:
            site = GbsSite(
                pos=_point(node, "pos", path),
                g=g,
                sigma2=_from_db(node, "sigma2_dbm", path, dbm_to_watts),
                q_max=_from_db(node, "q_max_dbm", path, dbm_to_watts),
                gamma=_number(node, "gamma_bpshz", path),
                theta=theta,
            )
        except ScenarioError as exc:
            raise ScenarioError(f"{path}.{exc.path.split('.', 1)[-1]}",
                                exc.message) from None
        sites.append(site)

    return Scenario(channel=channel, sites=tuple(sites), uav=uav)


def serialize_scenario(s: Scenario) -> str:
    """Render a Scenario back into the config document format."""
    doc = {
        "channel": {
            "beta0_db": linear_to_db(s.channel.beta0),
            "alpha": s.channel.alpha,
            "theta0_db": linear_to_db(s.channel.theta0),
            "epsilon": s.channel.epsilon,
        },
        "uav": {
            "altitude_m": s.uav.altitude,
            "v_max_mps": s.uav.v_max,
            "p_max_dbm": watts_to_dbm(s.uav.p_max),
            "u_init": list(s.uav.u_init),
            "u_final": list(s.uav.u_final),
            "T_s": s.uav.mission_t,
            "N": s.uav.n_slots,
            "t_max_s": s.uav.t_max,
        },
        "sites": [],
    }
    for site in s.sites:
        node: dict[str, Any] = {"pos": list(site.pos)}
        if site.theta is not None:
            node["theta_m"] = site.theta
        else:
            node["g_linear"] = site.g
        node["sigma2_dbm"] = watts_to_dbm(site.sigma2)
        node["q_max_dbm"] = watts_to_dbm(site.q_max)
        node["gamma_bpshz"] = site.gamma
        doc["sites"].append(node)
    return yaml.safe_dump(doc, sort_keys=False)


# ---------------------------------------------------------------------------
# Default scenario

# Site coordinates are a documented choice (1 x 1 km^2 area, corner-to-corner
# mission). Site 3's GU gain is set so that its rate guarantee becomes
# infeasible exactly above 5 bps/Hz at q = Q.
DEFAULT_SCENARIO_YAML = """\
channel:
  beta0_db: -30.0
  alpha: 2.0
  theta0_db: -40.0
  epsilon: 3.0
uav:
  altitude_m: 100.0
  v_max_mps: 50.0
  p_max_dbm: 30.0
  u_init: [0.0, 0.0]
  u_final: [1000.0, 1000.0]
  T_s: 150.0
  N: 200
  t_max_s: 1800.0
sites:
  - pos: [200.0, 450.0]
    theta_m: 6.5
    sigma2_dbm: -50.0
    q_max_dbm: 30.0
    gamma_bpshz: 2.0
  - pos: [450.0, 200.0]
    theta_m: 6.5
    sigma2_dbm: -50.0
    q_max_dbm: 30.0
    gamma_bpshz: 2.0
  - pos: [750.0, 750.0]
    g_linear: 3.1e-7
    sigma2_dbm: -50.0
    q_max_dbm: 30.0
    gamma_bpshz: 2.0
"""


def default_scenario() -> Scenario:
    return parse_scenario(DEFAULT_SCENARIO_YAML)


# ---------------------------------------------------------------------------
# Feasibility

def check_feasibility(s: Scenario) -> FeasibilityReport:
    """Check reachability and the per-site rate guarantees at maximum power.

    The predicate is sufficient for the planning problem to be feasible; it
    is reported as stated without claiming necessity.
    """
    dist = math.dist(s.uav.u_init, s.uav.u_final)
    flight_budget = s.uav.v_max * s.uav.mission_t
    reach_ok = dist <= flight_budget * (1.0 + REACH_REL_TOL)
    ic_rates = tuple(
        math.log1p(site.g * site.q_max / site.sigma2) / LN2 for site in s.sites
    )
    gamma_max = min(ic_rates)
    failing = tuple(
        k for k, (site, rate) in enumerate(zip(s.sites, ic_rates))
        if rate < site.gamma - GAMMA_ABS_TOL
    )
    return FeasibilityReport(
        feasible=reach_ok and not failing,
        reach_ok=reach_ok,
        ic_rate_at_max=ic_rates,
        gamma_max=gamma_max,
        min_mission_t=dist / s.uav.v_max,
        failing_sites=failing,
    )
