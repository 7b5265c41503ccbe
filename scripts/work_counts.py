#!/usr/bin/env python3
"""Print the deterministic work of one invocation of each benchmark workload.

Usage: python3 scripts/work_counts.py [WORKLOAD ...]

For each perfbench workload (all of them by default), in one process: write
its scenario to a temporary directory, run `uav_ic_planner.harness.main` on
it once with counters wrapped around the module functions below, then once
more under cProfile with no wrapper. Prints one row per workload:
  passes          SCA colour passes (each clips its candidates twice, so
                  half the `_clip_to_disc` calls)
  column_passes   waypoint columns over all colour passes
  at_calls        `Surrogate._at` calls
  directions      `_ascent_direction` calls
  ra_passes       `solve_resource_allocation` calls, as bound in `planner`
                  and in `benchmarks`
  profiled_calls  cProfile's total function calls in the second invocation

These counts repeat exactly from run to run and machine to machine, so two
commits that should do the same work can be compared by them where paired
timings on a shared machine cannot resolve a few per cent. Run it from the
repository root's checkout; it exits 1 if an invocation does not exit 0.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from uav_ic_planner import benchmarks, harness, planner  # noqa: E402
from uav_ic_planner import sca_trajectory as sca  # noqa: E402
from workloads import WORKLOADS, write_scenario  # noqa: E402

COLUMNS = ("passes", "column_passes", "at_calls", "directions", "ra_passes",
           "profiled_calls")


def _counted(counts: dict, key: str, fn, columns: str | None = None):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        if columns is not None:
            counts[columns] += args[0].shape[-1]
        return fn(*args, **kwargs)
    return wrapper


def _invoke(argv: list[str]) -> None:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = harness.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {rc}")


def work_counts(name: str, tmp: Path) -> dict[str, int]:
    workload = WORKLOADS[name]
    scenario = tmp / f"{name}.yaml"
    write_scenario(workload, scenario)
    argv = workload.argv(scenario, tmp / name)

    counts = dict.fromkeys(("clips", "clip_columns", "at_calls", "directions",
                            "ra_passes"), 0)
    hooks = [(sca, "_clip_to_disc", "clips", "clip_columns"),
             (sca.Surrogate, "_at", "at_calls", None),
             (sca, "_ascent_direction", "directions", None),
             (planner, "solve_resource_allocation", "ra_passes", None),
             (benchmarks, "solve_resource_allocation", "ra_passes", None)]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in hooks]
    try:
        for owner, attr, key, columns in hooks:
            setattr(owner, attr,
                    _counted(counts, key, getattr(owner, attr), columns))
        _invoke(argv)
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    profile = cProfile.Profile()
    profile.runcall(_invoke, argv)
    return {"passes": counts["clips"] // 2,
            "column_passes": counts["clip_columns"] // 2,
            "at_calls": counts["at_calls"],
            "directions": counts["directions"],
            "ra_passes": counts["ra_passes"],
            "profiled_calls": pstats.Stats(profile).total_calls}


def main(argv: list[str] | None = None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {', '.join(unknown)}; expected "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(",".join(("workload",) + COLUMNS))
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            counts = work_counts(name, Path(tmp))
            print(",".join([name] + [str(counts[c]) for c in COLUMNS]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
