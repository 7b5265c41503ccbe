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
  full_budget     problems still live when a `_sweep_stack` call returns
                  after ASCENT_STEPS sweeps: surrogate solves that ran the
                  whole sweep budget
  problem_sweeps  per `_sweep_stack` call, its problems x the sweeps it
                  ran: a problem that stops sooner saves its sweeps even
                  where a stack partner keeps the colour passes going
  profiled_calls  cProfile's total function calls in the second invocation

These counts repeat exactly from run to run and machine to machine, so two
commits that should do the same work can be compared by them where paired
timings on a shared machine cannot resolve a few per cent. Run it from the
repository root's checkout; it exits 1 if an invocation does not exit 0.
`scripts/bench_ladder.py` records every count but `profiled_calls` per
rung, through `counted`, on each of its columns' own checkout.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("passes", "column_passes", "at_calls", "directions", "ra_passes",
           "full_budget", "problem_sweeps", "profiled_calls")


def _counted(counts: dict, key: str, fn, columns: str | None = None):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        if columns is not None:
            counts[columns] += args[0].shape[-1]
        return fn(*args, **kwargs)
    return wrapper


def _sweeps(counts: dict, fn, budget: int):
    def wrapper(surrogates, *args):
        stop, done = fn(surrogates, *args)
        counts["problem_sweeps"] += len(surrogates) * (done - args[-1])
        if done == budget:
            counts["full_budget"] += int((~stop).sum())
        return stop, done
    return wrapper


@contextmanager
def counted():
    """Count the work that the block does in the `uav_ic_planner` package
    already on `sys.path`. Yields a dict that holds, once the block ends,
    every column of COLUMNS but `profiled_calls`."""
    from uav_ic_planner import benchmarks, planner
    from uav_ic_planner import sca_trajectory as sca

    counts = dict.fromkeys(("clips", "clip_columns", "at_calls", "directions",
                            "ra_passes", "full_budget", "problem_sweeps"), 0)
    hooks = [(sca, "_clip_to_disc", "clips", "clip_columns"),
             (sca.Surrogate, "_at", "at_calls", None),
             (sca, "_ascent_direction", "directions", None),
             (planner, "solve_resource_allocation", "ra_passes", None),
             (benchmarks, "solve_resource_allocation", "ra_passes", None)]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in hooks]
    saved.append((sca, "_sweep_stack", sca._sweep_stack))
    work: dict[str, int] = {}
    try:
        for owner, attr, key, columns in hooks:
            setattr(owner, attr,
                    _counted(counts, key, getattr(owner, attr), columns))
        sca._sweep_stack = _sweeps(counts, sca._sweep_stack,
                                   sca.ASCENT_STEPS)
        yield work
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
    work |= {"passes": counts["clips"] // 2,
             "column_passes": counts["clip_columns"] // 2,
             "at_calls": counts["at_calls"],
             "directions": counts["directions"],
             "ra_passes": counts["ra_passes"],
             "full_budget": counts["full_budget"],
             "problem_sweeps": counts["problem_sweeps"]}


def _invoke(main, argv: list[str]) -> None:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {rc}")


def work_counts(workload, tmp: Path) -> dict[str, int]:
    from uav_ic_planner import harness
    from workloads import write_scenario

    scenario = tmp / f"{workload.name}.yaml"
    write_scenario(workload, scenario)
    argv = workload.argv(scenario, tmp / workload.name)
    with counted() as work:
        _invoke(harness.main, argv)
    profile = cProfile.Profile()
    profile.runcall(_invoke, harness.main, argv)
    return work | {"profiled_calls": pstats.Stats(profile).total_calls}


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    names = (sys.argv[1:] if argv is None else argv) or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {', '.join(unknown)}; expected "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(",".join(("workload",) + COLUMNS))
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            counts = work_counts(WORKLOADS[name], Path(tmp))
            print(",".join([name] + [str(counts[c]) for c in COLUMNS]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
