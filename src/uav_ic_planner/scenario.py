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
# Relative slack when checking the closed-form GU power against its cap,
# absorbing rounding in the dB -> linear conversions.
Q_CAP_REL_TOL = 1e-9

# libyaml's parser if PyYAML has it; both share the safe resolver/constructor.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """A scenario document violates the schema or an invariant."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class InfeasibleSite(Exception):
    """A GU rate guarantee cannot be met even at maximum power."""

    def __init__(self, site_index: int, q_needed: float, q_max: float):
        self.site_index = site_index
        self.q_needed = q_needed
        self.q_max = q_max
        super().__init__(
            f"site {site_index}: IC mode needs GU power {q_needed:.6g} W "
            f"> limit {q_max:.6g} W")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _pair(value) -> tuple[float, float]:
    return float(value[0]), float(value[1])


# One table per document section: document key -> (dataclass field,
# conversion from the document's unit). `int` reads an integer and `_pair`
# an [x, y] point; every other conversion reads a number. A key is optional
# when its field has a default. Validators report errors at the key.
CHANNEL_KEYS = {"beta0_db": ("beta0", db_to_linear), "alpha": ("alpha", float),
                "theta0_db": ("theta0", db_to_linear),
                "epsilon": ("epsilon", float)}
UAV_KEYS = {"altitude_m": ("altitude", float), "v_max_mps": ("v_max", float),
            "p_max_dbm": ("p_max", dbm_to_watts), "u_init": ("u_init", _pair),
            "u_final": ("u_final", _pair), "T_s": ("mission_t", float),
            "N": ("n_slots", int), "t_max_s": ("t_max", float)}
# A site document gives either g_linear or the GU distance theta_m.
SITE_KEYS = {"pos": ("pos", _pair), "g_linear": ("g", float),
             "sigma2_dbm": ("sigma2", dbm_to_watts),
             "q_max_dbm": ("q_max", dbm_to_watts),
             "gamma_bpshz": ("gamma", float)}


class _Section:
    """Validation shared by the sections: `PREFIX` names the section in
    error paths and `KEYS` is its key table."""

    def _check(self, ok: bool, field: str, message: str) -> None:
        if not ok:
            key = next(k for k, (f, _) in self.KEYS.items() if f == field)
            raise ScenarioError(f"{self.PREFIX}.{key}", message)

    def _check_positive(self, *fields: str) -> None:
        for field in fields:
            self._check(getattr(self, field) > 0, field, "must be positive")

    def _check_finite(self) -> None:
        """Reject NaN and infinities, which pass every `<`/`<=` check."""
        for key, (field, convert) in self.KEYS.items():
            value = getattr(self, field)
            if convert is not int and not np.all(np.isfinite(value)):
                raise ScenarioError(f"{self.PREFIX}.{key}",
                                    f"must be finite, got {value!r}")


@dataclass(frozen=True)
class ChannelParams(_Section):
    """Pathloss parameters, stored in linear scale."""

    PREFIX, KEYS = "channel", CHANNEL_KEYS

    beta0: float    # air-to-ground reference gain at 1 m
    alpha: float    # air-to-ground pathloss exponent
    theta0: float   # ground reference gain at 1 m
    epsilon: float  # ground pathloss exponent

    def __post_init__(self):
        self._check_finite()
        self._check_positive("beta0", "theta0", "epsilon")
        self._check(self.alpha >= 2, "alpha", f"must be >= 2, got {self.alpha}")


@dataclass(frozen=True)
class GbsSite(_Section):
    """One ground base station and its associated ground user.

    `g` is the GBS-to-GU channel gain in linear scale, resolved at parse time
    (either given directly or derived from the GU distance theta_m).
    """

    PREFIX, KEYS = "site", SITE_KEYS

    pos: tuple[float, float]  # horizontal coordinates, m
    g: float                  # GU channel gain, linear
    sigma2: float             # noise power, W
    q_max: float              # max GU transmit power, W
    gamma: float              # min GU rate, bps/Hz

    def __post_init__(self):
        self._check_finite()
        self._check_positive("g", "sigma2", "q_max")
        self._check(self.gamma >= 0, "gamma", "min GU rate must be >= 0")


@dataclass(frozen=True)
class UavParams(_Section):
    PREFIX, KEYS = "uav", UAV_KEYS

    altitude: float                 # m
    v_max: float                    # m/s
    p_max: float                    # W
    u_init: tuple[float, float]     # m
    u_final: tuple[float, float]    # m
    mission_t: float                # s
    n_slots: int
    t_max: float = 1800.0           # battery lifetime bound, s

    def __post_init__(self):
        self._check_finite()
        self._check_positive("altitude", "v_max", "p_max", "mission_t", "t_max")
        self._check(self.n_slots >= 1, "n_slots",
                    f"must be >= 1, got {self.n_slots}")
        self._check(self.mission_t <= self.t_max, "mission_t",
                    f"mission duration {self.mission_t} s exceeds battery "
                    f"lifetime {self.t_max} s")

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
        return np.array([gu_power_ic(s, k) for k, s in enumerate(self.sites)])

    @cached_property
    def tin_cap_numer(self) -> np.ndarray:
        # h times the TIN cap on the UAV power: inf without a guarantee, 0
        # where it needs all of q_max (the band where `gu_power_ic` clamps).
        # The scalar 2.0 ** gamma: numpy's array power can differ in the
        # last bit.
        return np.array([max(s.g * s.q_max / (2.0 ** s.gamma - 1.0)
                             - s.sigma2, 0.0) if 2.0 ** s.gamma > 1.0
                         else math.inf for s in self.sites])


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    reach_ok: bool
    ic_rate_at_max: tuple[float, ...]  # per-site IC rate at q = Q_k, bps/Hz
    gamma_max: float                   # min over sites, bps/Hz
    min_mission_t: float               # straight-line flight time, s
    failing_sites: tuple[int, ...]     # 0-based, IC power above q_max


# ---------------------------------------------------------------------------
# Parsing

def _mapping(node: Any, allowed, path: str) -> dict:
    """`node` if it is a mapping without keys outside `allowed`."""
    if not isinstance(node, dict):
        raise ScenarioError(path, f"expected a mapping, got {type(node).__name__}")
    unknown = set(node) - set(allowed)
    if unknown:
        raise ScenarioError(path, f"unknown keys: {sorted(unknown)}")
    return node


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read(value: Any, convert, path: str):
    """`value`, type-checked and converted from its unit."""
    if convert is int:
        ok, want = _is_number(value) and isinstance(value, int), "an integer"
    elif convert is _pair:
        ok, want = (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(map(_is_number, value))), "[x, y]"
    else:
        ok, want = _is_number(value), "a number"
    if not ok:
        raise ScenarioError(path, f"expected {want}, got {value!r}")
    try:
        return convert(value)
    except OverflowError:
        raise ScenarioError(path, "out of range") from None


def _fields(node: Any, cls, path: str) -> dict:
    """The dataclass fields of one section, read through its key table."""
    node = _mapping(node, cls.KEYS, path)
    fields = {}
    for key, (field, convert) in cls.KEYS.items():
        if key in node:
            fields[field] = _read(node[key], convert, f"{path}.{key}")
        elif not hasattr(cls, field):  # a field's default is a class attribute
            raise ScenarioError(f"{path}.{key}", "missing required field")
    return fields


def parse_scenario(text: str) -> Scenario:
    """Parse a YAML scenario document into a validated Scenario.

    Rejects unknown keys and reports violations at the document key.
    """
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError("<document>", f"invalid YAML: {exc}") from exc
    doc = _mapping(doc, ("channel", "uav", "sites"), "<document>")
    for section in ("channel", "uav", "sites"):
        if section not in doc:
            raise ScenarioError(section, "missing required section")
    channel = ChannelParams(**_fields(doc["channel"], ChannelParams, "channel"))
    uav = UavParams(**_fields(doc["uav"], UavParams, "uav"))
    if min(uav.altitude, 1.0) ** (channel.alpha + 2) < np.finfo(float).tiny:
        raise ScenarioError("uav.altitude_m", "too low, altitude^(alpha+2) underflows")

    def gain(theta: float) -> float:  # at GU distance theta, by ground pathloss
        if theta <= 0:
            raise ScenarioError(f"{path}.theta_m", "must be positive")
        return channel.theta0 * theta ** -channel.epsilon

    sites_node = doc["sites"]
    if not isinstance(sites_node, list):
        raise ScenarioError("sites", "expected a list")
    sites = []
    for i, raw in enumerate(sites_node):
        path = f"sites[{i}]"
        node = dict(_mapping(raw, [*SITE_KEYS, "theta_m"], path))
        derived = "theta_m" in node
        if derived == ("g_linear" in node):
            raise ScenarioError(path, "exactly one of theta_m / g_linear required")
        if derived:
            node["g_linear"] = _read(node.pop("theta_m"), gain,
                                     f"{path}.theta_m")
        try:
            sites.append(GbsSite(**_fields(node, GbsSite, path)))
        except ScenarioError as exc:  # "<section>.<key>", at this site's path
            key = exc.path.split(".", 1)[1]
            key = "theta_m" if derived and key == "g_linear" else key
            raise ScenarioError(f"{path}.{key}", exc.message) from None

    return Scenario(channel=channel, sites=tuple(sites), uav=uav)


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

def gu_power_ic(site: GbsSite, site_index: int = -1) -> float:
    """Minimum GU power meeting the rate guarantee under IC."""
    try:
        q = (2.0 ** site.gamma - 1.0) * site.sigma2 / site.g
    except OverflowError:  # 2^gamma is past the float range
        q = math.inf
    if q > site.q_max * (1.0 + Q_CAP_REL_TOL):
        raise InfeasibleSite(site_index, q, site.q_max)
    return min(q, site.q_max)


def check_feasibility(s: Scenario) -> FeasibilityReport:
    """Check reachability and the per-site rate guarantees at maximum power.

    A site fails exactly where `gu_power_ic` raises, so the planner accepts
    every scenario reported feasible. The predicate is sufficient for the
    planning problem to be feasible; it is reported as stated without
    claiming necessity.
    """
    dist = math.dist(s.uav.u_init, s.uav.u_final)
    flight_budget = s.uav.v_max * s.uav.mission_t
    reach_ok = dist <= flight_budget * (1.0 + REACH_REL_TOL)
    ic_rates = tuple(
        math.log1p(site.g * site.q_max / site.sigma2) / LN2 for site in s.sites
    )
    gamma_max = min(ic_rates)
    failing = []
    for k, site in enumerate(s.sites):
        try:
            gu_power_ic(site, k)
        except InfeasibleSite:
            failing.append(k)
    return FeasibilityReport(
        feasible=reach_ok and not failing,
        reach_ok=reach_ok,
        ic_rate_at_max=ic_rates,
        gamma_max=gamma_max,
        min_mission_t=dist / s.uav.v_max,
        failing_sites=tuple(failing),
    )
