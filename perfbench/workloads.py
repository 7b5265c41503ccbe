"""Benchmark workloads: scenario documents, CLI arguments and output checks.

Each workload writes one scenario YAML during set-up; the program under test
receives only that file path on its command line. After every invocation the
outputs are re-read from disk and checked; any failed check raises
`CheckFailed`, so a wrong answer is never counted as a completed plan.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from uav_ic_planner import harness
from uav_ic_planner.planner import evaluate_plan
from uav_ic_planner.scenario import DEFAULT_SCENARIO_YAML

RESIDUAL_TOL = -1e-8      # bps/Hz or W or m; worst admissible slack
SUMMARY_TOL = 1e-9        # summary.csv throughput vs. re-audited objective
ORDER_TOL = 1e-9          # criterion-5 ordering slack, as in the test suite

PLAN_SCHEME = "proposed"
SWEEP_VALUES = (40, 100, 200)   # speed-tight, middle and long missions
SWEEP_SCHEMES = ("proposed", "straight_fly", "successive_hover_fly",
                 "egoistic", "altruistic", "upper_bound")

# dense-sites plans one fixed draw of its generator (the run's --seed is
# unused, see README.md): draw 3 is the cheapest of draws 0-4 whose RA share
# is above 0.7. N=25 slots keep one plan near 1.4 s, so a run holds about 25
# invocations and their median is steady; RA still takes 0.77 of the time.
DENSE_DRAW = 3
DENSE_SITES = 8
DENSE_SLOTS = 25
DENSE_T_S = 40.0


class CheckFailed(Exception):
    """An invocation's outputs are missing, malformed or wrong."""


def default_doc() -> dict:
    return yaml.safe_load(DEFAULT_SCENARIO_YAML)


def fine_grid_doc() -> dict:
    doc = default_doc()
    doc["uav"]["N"] = 2000
    return doc


def dense_sites_doc(rng: np.random.Generator, k: int = DENSE_SITES) -> dict:
    """K sites uniform along the (0,0)->(1000,1000) diagonal within +-150 m
    of it; GU distance 6-14 m; guarantee 0.3-0.8 of the site's IC cap."""
    doc = default_doc()
    doc["uav"]["N"] = DENSE_SLOTS
    doc["uav"]["T_s"] = DENSE_T_S
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
        g = theta0 * theta ** (-ch["epsilon"])
        cap = math.log2(1.0 + g * q_max / sigma2)
        sites.append({
            "pos": [float(along + off), float(along - off)],
            "theta_m": theta,
            "sigma2_dbm": template["sigma2_dbm"],
            "q_max_dbm": template["q_max_dbm"],
            "gamma_bpshz": float(rng.uniform(0.3, 0.8) * cap),
        })
    doc["sites"] = sites
    return doc


@dataclass(frozen=True)
class Workload:
    name: str
    make_doc: Callable[[], dict]
    argv: Callable[[Path, Path], list[str]]   # (scenario, out_dir) -> argv
    check: Callable[[Path, Path], list[float]]  # -> per-plan throughputs
    plans_per_invocation: int


def _plan_argv(scenario: Path, out: Path) -> list[str]:
    return ["plan", "--scheme", PLAN_SCHEME, "--scenario", str(scenario),
            "--out", str(out), "--workers", "1"]


def _sweep_argv(scenario: Path, out: Path) -> list[str]:
    return ["sweep", "--param", "mission_T",
            "--values", ",".join(str(v) for v in SWEEP_VALUES),
            "--schemes", ",".join(SWEEP_SCHEMES),
            "--scenario", str(scenario), "--out", str(out), "--workers", "1"]


# ---------------------------------------------------------------------------
# Output checks (fail closed: NaN never passes a comparison)

def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Read one exported table; every numeric cell must be finite."""
    if not path.is_file():
        raise CheckFailed(f"{path.name}: missing")
    with path.open(newline="") as fh:
        if fh.readline().rstrip("\n") != harness.SCHEMA_LINE:
            raise CheckFailed(f"{path.name}: bad schema line")
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise CheckFailed(f"{path.name}: no header")
    for row in rows[1:]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise CheckFailed(f"{path.name}: non-finite cell {cell!r}")
    return rows[0], rows[1:]


def check_plan(scenario_path: Path, out: Path) -> list[float]:
    """Re-load the exported plan and re-audit every constraint."""
    for table in sorted(out.glob("*.csv")):
        read_table(table)
    header, rows = read_table(out / "summary.csv")
    if len(rows) != 1:
        raise CheckFailed(f"summary.csv: {len(rows)} rows, expected 1")
    row = dict(zip(header, rows[0]))
    if row.get("scheme") != PLAN_SCHEME or row.get("status") != "OK":
        raise CheckFailed(f"summary.csv: unexpected row {rows[0]}")
    scenario = harness.load_scenario(str(scenario_path))
    plan = harness.load_plan(out, scenario, PLAN_SCHEME)
    report = evaluate_plan(plan, scenario)
    bad = {k: r for k, r in report.residuals.items()
           if not (r >= RESIDUAL_TOL)}
    if bad:
        raise CheckFailed(f"constraint residuals violated: {bad}")
    if report.objective_matches is not True:
        raise CheckFailed("recomputed objective does not match the plan")
    objective = report.recomputed_objective
    if not (abs(float(row["throughput_bpshz"]) - objective) <= SUMMARY_TOL):
        raise CheckFailed(
            f"summary throughput {row['throughput_bpshz']} != audited "
            f"objective {objective!r}")
    return [objective]


def check_sweep(scenario_path: Path, out: Path) -> list[float]:
    """Every point OK and non-decreasing in T; criterion-5 ordering at
    every T."""
    del scenario_path  # the sweep exports no per-plan tables
    header, rows = read_table(out / "summary.csv")
    want = len(SWEEP_SCHEMES) * len(SWEEP_VALUES)
    if len(rows) != want:
        raise CheckFailed(f"summary.csv: {len(rows)} rows, expected {want}")
    v: dict[tuple[str, float], float] = {}
    for raw in rows:
        row = dict(zip(header, raw))
        if row.get("status") != "OK":
            raise CheckFailed(f"sweep point not OK: {raw}")
        t = float(row["value"])
        if t != SWEEP_VALUES[0] and row.get("nondecreasing_in_T") != "yes":
            raise CheckFailed(f"throughput decreased in T: {raw}")
        v[(row["scheme"], t)] = float(row["throughput_bpshz"])
    if {s for s, _ in v} != set(SWEEP_SCHEMES):
        raise CheckFailed(f"sweep schemes {sorted({s for s, _ in v})}")
    tol = ORDER_TOL
    for t in SWEEP_VALUES:
        s = {name: v[(name, float(t))] for name in SWEEP_SCHEMES}
        baseline = max(s["straight_fly"], s["successive_hover_fly"])
        ordered = (s["upper_bound"] >= s["proposed"] - tol
                   and s["proposed"] >= s["egoistic"] - tol
                   and s["egoistic"] >= baseline - tol
                   and baseline >= s["altruistic"] - tol
                   and s["proposed"] >= 1.01 * s["straight_fly"])
        if not ordered:
            raise CheckFailed(f"criterion-5 ordering broken at T={t}: {s}")
    return list(v.values())


WORKLOADS = {
    "fine-grid": Workload("fine-grid", fine_grid_doc, _plan_argv, check_plan,
                          plans_per_invocation=1),
    "dense-sites": Workload(
        "dense-sites",
        lambda: dense_sites_doc(np.random.default_rng(DENSE_DRAW)),
        _plan_argv, check_plan, plans_per_invocation=1),
    "scheme-sweep": Workload(
        "scheme-sweep", default_doc, _sweep_argv, check_sweep,
        plans_per_invocation=len(SWEEP_SCHEMES) * len(SWEEP_VALUES)),
}


def write_scenario(workload: Workload, path: Path) -> None:
    """Generate the workload's scenario document and write it as YAML."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(workload.make_doc(), sort_keys=False))
