#!/usr/bin/env python3
"""Export the byte-identity table set: 39 tables from 15 CLI runs.

Usage: python3 scripts/export_table_set.py OUT [--against REF]

Writes one directory per run under OUT:
  default_<scheme>   `plan` for each of the six schemes, built-in scenario
  n2000_<scheme>     `plan` for proposed, egoistic and altruistic at N=2000
  dense_sites        `plan --scheme proposed` on the benchmark's dense-sites
                     draw (read from perfbench/workloads.py)
  sweep_mission_T    `sweep --param mission_T --values 40,100,150,200`
  sweep_gamma        `sweep --param gamma_all_sites --values 0,1,2,3,4,5`
  trace              `trace` with its default schemes
The scenario documents used are written to OUT/scenarios. Run it from the
repository root with src/ importable. Exits 1 if a run does not exit 0, or
a table is malformed (read as `load_plan` reads tables) or holds a
non-finite number.

With --against REF, the tables are also compared byte for byte with an
export REF made the same way on another commit (this replaces a manual
`diff -r`); each table that differs, or exists on one side only, is named
and the exit code is 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from uav_ic_planner import harness  # noqa: E402
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
    """The cells of a table that read as a non-finite number. The table is
    read as `load_plan` reads it, so a malformed one raises ValueError."""
    _, rows = harness._read_table(path)
    bad = []
    for row in rows:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                bad.append(cell)
    return bad


def compare(out: Path, ref: Path) -> list[str]:
    """Every table that differs between the exports `out` and `ref`."""
    mine = {p.relative_to(out) for p in out.rglob("*.csv")}
    theirs = {p.relative_to(ref) for p in ref.rglob("*.csv")}
    lines = [f"{name}: missing in {out}" for name in sorted(theirs - mine)]
    lines += [f"{name}: missing in {ref}" for name in sorted(mine - theirs)]
    lines += [f"{name}: differs from {ref}" for name in sorted(mine & theirs)
              if (out / name).read_bytes() != (ref / name).read_bytes()]
    return lines


def export(out: Path, ref: Path | None = None) -> int:
    failures = []
    for name, argv in runs(out / "scenarios"):
        code = harness.main(argv + ["--out", str(out / name)])
        if code != 0:
            failures.append(f"{name}: exit code {code}")
    tables = sorted(p for p in out.rglob("*.csv"))
    for table in tables:
        try:
            bad = non_finite_cells(table)
        except ValueError as exc:
            failures.append(str(exc))
            continue
        if bad:
            failures.append(f"{table.relative_to(out)}: non-finite {bad[:3]}")
    if ref is not None:
        failures += compare(out, ref)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{len(tables)} tables in {out}"
          + (f", compared with {ref}" if ref is not None else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--against", type=Path, metavar="REF")
    args = parser.parse_args()
    raise SystemExit(export(args.out, args.against))
