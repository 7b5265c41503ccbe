#!/usr/bin/env python3
"""Export the byte-identity table set: 39 tables from 15 CLI runs.

Usage: python3 scripts/export_table_set.py OUT

Writes one directory per run under OUT:
  default_<scheme>   `plan` for each of the six schemes, built-in scenario
  n2000_<scheme>     `plan` for proposed, egoistic and altruistic at N=2000
  dense_sites        `plan --scheme proposed` on the benchmark's dense-sites
                     draw (read from perfbench/workloads.py)
  sweep_mission_T    `sweep --param mission_T --values 40,100,150,200`
  sweep_gamma        `sweep --param gamma_all_sites --values 0,1,2,3,4,5`
  trace              `trace` with its default schemes
The scenario documents used are written to OUT/scenarios. Run it from the
repository root with src/ importable, once on each of two commits, and
compare the outputs with `diff -r`. Exits 1 if a run does not exit 0 or a
table holds a non-finite number.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from uav_ic_planner.harness import SCHEMA_LINE, main  # noqa: E402
from workloads import WORKLOADS, write_scenario  # noqa: E402

SCHEMES = ("proposed", "straight_fly", "successive_hover_fly", "egoistic",
           "altruistic", "upper_bound")
N2000_SCHEMES = ("proposed", "egoistic", "altruistic")


def runs(scenarios: Path) -> list[tuple[str, list[str]]]:
    """(directory name, CLI arguments without --out) of every run."""
    n2000 = scenarios / "n2000.yaml"
    dense = scenarios / "dense_sites.yaml"
    write_scenario(WORKLOADS["fine-grid"], n2000)
    write_scenario(WORKLOADS["dense-sites"], dense)
    out = [(f"default_{s}", ["plan", "--scheme", s]) for s in SCHEMES]
    out += [(f"n2000_{s}", ["plan", "--scheme", s, "--scenario", str(n2000)])
            for s in N2000_SCHEMES]
    out += [
        ("dense_sites", ["plan", "--scheme", "proposed",
                         "--scenario", str(dense)]),
        ("sweep_mission_T", ["sweep", "--param", "mission_T",
                             "--values", "40,100,150,200"]),
        ("sweep_gamma", ["sweep", "--param", "gamma_all_sites",
                         "--values", "0,1,2,3,4,5"]),
        ("trace", ["trace"]),
    ]
    return out


def non_finite_cells(path: Path) -> list[str]:
    with path.open(newline="") as fh:
        if fh.readline().rstrip("\n") != SCHEMA_LINE:
            return ["<schema line>"]
        bad = []
        for row in list(csv.reader(fh))[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    bad.append(cell)
        return bad


def export(out: Path) -> int:
    failures = []
    for name, argv in runs(out / "scenarios"):
        code = main(argv + ["--out", str(out / name)])
        if code != 0:
            failures.append(f"{name}: exit code {code}")
    tables = sorted(p for p in out.rglob("*.csv"))
    for table in tables:
        bad = non_finite_cells(table)
        if bad:
            failures.append(f"{table.relative_to(out)}: non-finite {bad[:3]}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{len(tables)} tables in {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        raise SystemExit(1)
    raise SystemExit(export(Path(sys.argv[1])))
