#!/usr/bin/env python3
"""Time the benchmark ladder on one or more checkouts and write a BENCH file.

Usage: python3 scripts/bench_ladder.py OUT.json NAME=ROOT [NAME=ROOT ...]

e.g. `python3 scripts/bench_ladder.py BENCH_8.json parent=../base change=.`
Each NAME=ROOT is one column: the planner in ROOT/src, with the dense-sites
generator of ROOT/perfbench/workloads.py (read only). Rungs:
  default      `proposed` on the built-in scenario (K=3, N=200)
  n2000        `proposed` on the built-in scenario at N=2000
  dense_k10    `proposed` on the dense-sites draw DENSE_DRAW, K=10, N=200
  dense_k64    `proposed` on the dense-sites draw DENSE_DRAW, K=64, N=200
  sweep        the criterion-5/6 sweep: every scheme at T = 40, 80, 120,
               150, 160 and 200 s on the built-in scenario
One pass runs every rung once in a fresh worker process, in-process and
with one BLAS thread, after one untimed warm-up plan. Passes run one at a
time, REPEATS per column, alternating the columns (and their order), so a
slow phase of a shared machine falls on all columns alike. Per plan a column
holds the median wall seconds over its passes, the throughput in bps/Hz and
the outer and inner iteration counts of its `ConvergenceTrace`, the coarse
level's included; per rung, the wall seconds per scheme and the plans per
second. A plan whose throughput or iteration counts differ between passes
of one column is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SCHEMES = ("proposed", "straight_fly", "successive_hover_fly", "egoistic",
           "altruistic", "upper_bound")
SWEEP_T = (40.0, 80.0, 120.0, 150.0, 160.0, 200.0)
LADDER_SLOTS = 200
REPEATS = 5


def one_pass(root: Path) -> list[dict]:
    """Time every plan of the ladder once with the planner under `root`."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import dataclasses

    import numpy as np
    import yaml
    from uav_ic_planner.benchmarks import run_scheme
    from uav_ic_planner.scenario import default_scenario, parse_scenario
    from workloads import DENSE_DRAW, dense_sites_doc

    def with_uav(scenario, **changes):
        return dataclasses.replace(
            scenario, uav=dataclasses.replace(scenario.uav, **changes))

    def dense(k: int):
        doc = dense_sites_doc(np.random.default_rng(DENSE_DRAW), k=k)
        doc["uav"]["N"] = LADDER_SLOTS
        return parse_scenario(yaml.safe_dump(doc))

    def counts(trace):
        if trace is None:
            return None
        return {"outer_iters": trace.iterations,
                "inner_iters": [len(inner) - 1
                                for inner in trace.inner_per_outer],
                "coarse": counts(trace.coarse)}

    base = default_scenario()
    ladder = [("default", "proposed", "", base),
              ("n2000", "proposed", "N=2000", with_uav(base, n_slots=2000)),
              ("dense_k10", "proposed", "K=10", dense(10)),
              ("dense_k64", "proposed", "K=64", dense(64))]
    ladder += [("sweep", s, f"T={t:g}", with_uav(base, mission_t=t))
               for t in SWEEP_T for s in SCHEMES]
    run_scheme("proposed", base)  # warm-up, untimed
    rows = []
    for rung, scheme, point, scenario in ladder:
        start = time.perf_counter()
        result, trace = run_scheme(scheme, scenario)
        wall = time.perf_counter() - start
        throughput = getattr(result, "avg_throughput", None)
        if throughput is None:  # the upper bound
            throughput = result.throughput
        rows.append({"rung": rung, "scheme": scheme, "point": point,
                     "wall_s": wall, "throughput_bpshz": throughput,
                     "iterations": counts(trace)})
    return rows


def run_pass(root: Path) -> list[dict]:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, __file__, "--pass", str(root)], env=env,
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def column(passes: list[list[dict]]) -> dict:
    """Per-rung summary of one column's passes."""
    out: dict[str, dict] = {}
    for plan in zip(*passes):
        first = plan[0]
        for other in plan[1:]:
            if (other["throughput_bpshz"] != first["throughput_bpshz"]
                    or other["iterations"] != first["iterations"]):
                raise RuntimeError(f"{first['rung']} {first['scheme']} "
                                   f"{first['point']}: passes differ")
        walls = [p["wall_s"] for p in plan]
        rung = out.setdefault(first["rung"], {"plans": []})
        rung["plans"].append({
            "scheme": first["scheme"], "point": first["point"],
            "wall_s": statistics.median(walls), "wall_s_runs": walls,
            "throughput_bpshz": first["throughput_bpshz"],
            "iterations": first["iterations"]})
    for rung in out.values():
        per_scheme: dict[str, float] = {}
        for plan in rung["plans"]:
            per_scheme[plan["scheme"]] = (per_scheme.get(plan["scheme"], 0.0)
                                          + plan["wall_s"])
        rung["wall_s"] = sum(per_scheme.values())
        rung["wall_s_per_scheme"] = per_scheme
        rung["plans_per_s"] = len(rung["plans"]) / rung["wall_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("columns", nargs="+", metavar="NAME=ROOT")
    args = parser.parse_args(argv)
    columns = []
    for spec in args.columns:
        name, sep, root = spec.partition("=")
        if not (sep and name and (Path(root) / "src").is_dir()):
            parser.error(f"{spec!r}: expected NAME=ROOT with ROOT/src")
        columns.append((name, Path(root).resolve()))
    passes: dict[str, list] = {name: [] for name, _ in columns}
    for rep in range(REPEATS):
        for name, root in columns if rep % 2 == 0 else columns[::-1]:
            print(f"pass {rep + 1}/{REPEATS}: {name}", file=sys.stderr)
            passes[name].append(run_pass(root))
    doc = {"setup": {"python": platform.python_version(),
                     "cpus": os.cpu_count(), "processes": 1,
                     "blas_threads": 1, "repeats": REPEATS,
                     "statistic": "median wall seconds per plan"},
           "columns": {name: column(p) for name, p in passes.items()}}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--pass"]:
        json.dump(one_pass(Path(sys.argv[2])), sys.stdout)
    else:
        raise SystemExit(main())
