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
               150, 160 and 200 s on the built-in scenario, timed as one
               `uavplan sweep` call (`harness.main`), so that however the
               command schedules its plans, the rung sees it
One pass runs every rung in a fresh worker process, in-process and with
one BLAS thread, after one untimed warm-up plan: a one-plan rung plans
PLANS_PER_PASS times and its pass time is the median seconds per plan, the
sweep runs once. Passes run one at a time, REPEATS per column, alternating
the columns (and their order), so a slow phase of a shared machine falls on
all columns alike. Per rung a column holds the median wall seconds over its
passes, their quartiles, every pass's seconds and the plans per second, the
same for process CPU seconds (`time.process_time`, this process only); per
plan, the throughput in bps/Hz and the iteration counts: for a one-plan
rung the outer and inner counts of its `ConvergenceTrace`, the coarse
level's included, and for the sweep the `iters` cell of its `summary.csv`
row. Each pass of a rung also records `steal_ticks`, the CPU time the
hypervisor gave to other guests while it ran (see `steal_ticks`), so that
a slow pass can be matched against stolen time, and `work`, the
deterministic work counts of `work_counts.counted` (SCA colour passes,
column-passes, `Surrogate._at` and `_ascent_direction` calls, RA passes,
surrogate solves that ran the whole sweep budget, problem-sweeps) of one
more plan of a one-plan rung, or one more sweep, run untimed after the
timed ones. A
rung whose plans differ between the plans of one pass, or whose plans or
work counts differ between passes of one column, is an error. The
`paired` section holds, for every column after the first and per rung,
its ratio to the first column within each alternation pair (wall and
CPU), their median and the pairs it won (ratio below 1), the sign test's
interval on the median wall ratio (at least 95 % coverage where the pairs
allow it, see `sign_interval`) and a verdict. Naming the
parent twice, e.g. `parent=../base parent_again=../base change=.`, gives
an A/A column (a later column with the first one's ROOT): the ratios that
noise alone produces. The verdict is
`faster` when the interval lies wholly below the first A/A column's
interval, `slower` when wholly above, and `unresolved` when the two
overlap; without an A/A column, and for the A/A columns themselves, the
interval is compared with a ratio of 1.

`python3 scripts/bench_ladder.py --pass ROOT` runs one pass and prints it as
JSON: per rung its wall and CPU seconds, its plans, its `steal_ticks` and
its `work`.
The script reads /proc/stat, so it runs on Linux only.
"""

from __future__ import annotations

import argparse
import json
import math
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
REPEATS = 10  # passes per column, alternating, as in a 10-pair A/B
# Plans per pass on a one-plan rung: one plan of the default rung takes
# under 0.1 s, too short for one timing to resolve a 20 % change.
PLANS_PER_PASS = 5


def steal_ticks() -> int:
    """The `steal` field of the `cpu` line of /proc/stat: the time, summed
    over all CPUs, in USER_HZ ticks (usually 1/100 s) since boot, in which
    the hypervisor ran something else while this machine's CPUs were
    runnable."""
    with open("/proc/stat") as stat:
        return int(stat.readline().split()[8])


def one_pass(root: Path) -> list[dict]:
    """Time every rung of the ladder once with the planner under `root`."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import contextlib
    import dataclasses
    import io
    import tempfile

    import numpy as np
    import yaml
    from uav_ic_planner import harness
    from uav_ic_planner.benchmarks import run_scheme
    from uav_ic_planner.scenario import default_scenario, parse_scenario
    from work_counts import counted
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
    ladder = [("default", "", base),
              ("n2000", "N=2000", with_uav(base, n_slots=2000)),
              ("dense_k10", "K=10", dense(10)),
              ("dense_k64", "K=64", dense(64))]
    run_scheme("proposed", base)  # warm-up, untimed
    rungs = []
    for rung, point, scenario in ladder:
        walls, cpus, plans = [], [], []
        steal = steal_ticks()
        for _ in range(PLANS_PER_PASS):
            start, cpu = time.perf_counter(), time.process_time()
            plan, trace = run_scheme("proposed", scenario)
            walls.append(time.perf_counter() - start)
            cpus.append(time.process_time() - cpu)
            plans.append({"scheme": "proposed", "point": point,
                          "throughput_bpshz": plan.avg_throughput,
                          "iterations": counts(trace)})
        steal = steal_ticks() - steal
        if any(other != plans[0] for other in plans[1:]):
            raise RuntimeError(f"{rung}: plans of one pass differ")
        with counted() as work:
            run_scheme("proposed", scenario)
        rungs.append({"rung": rung, "wall_s": statistics.median(walls),
                      "cpu_s": statistics.median(cpus), "plans": plans[:1],
                      "steal_ticks": steal, "work": work})

    argv = ["sweep", "--param", "mission_T",
            "--values", ",".join(f"{t:g}" for t in SWEEP_T),
            "--schemes", ",".join(SCHEMES)]
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            steal = steal_ticks()
            start, cpu = time.perf_counter(), time.process_time()
            code = harness.main(argv + ["--out", out])
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
            steal = steal_ticks() - steal
        if code != 0:
            raise RuntimeError(f"sweep exited {code}")
        _, rows = harness._read_table(Path(out) / "summary.csv")
        with counted() as work, contextlib.redirect_stdout(io.StringIO()):
            code = harness.main(argv + ["--out", out])
        if code != 0:
            raise RuntimeError(f"counted sweep exited {code}")
    if any(row[5] != "OK" for row in rows):
        raise RuntimeError(f"sweep rows not OK: {rows}")
    rungs.append({"rung": "sweep", "wall_s": wall, "cpu_s": cpu, "plans": [
        {"scheme": row[0], "point": f"T={row[2]}",
         "throughput_bpshz": float(row[3]), "iterations": int(row[4])}
        for row in rows], "steal_ticks": steal, "work": work})
    return rungs


def run_pass(root: Path) -> list[dict]:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, __file__, "--pass", str(root)], env=env,
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def column(passes: list[list[dict]]) -> dict:
    """Per-rung summary of one column's passes."""
    out: dict[str, dict] = {}
    for rung in zip(*passes):
        first = rung[0]
        if any((other["plans"], other["work"]) != (first["plans"],
                                                   first["work"])
               for other in rung[1:]):
            raise RuntimeError(f"{first['rung']}: passes differ")
        entry = {}
        for key in ("wall_s", "cpu_s"):
            runs = [r[key] for r in rung]
            q1, _, q3 = statistics.quantiles(runs, n=4)
            entry |= {key: statistics.median(runs), f"{key}_q1_q3": [q1, q3],
                      f"{key}_runs": runs}
        out[first["rung"]] = entry | {
            "plans_per_s": len(first["plans"]) / entry["wall_s"],
            "steal_ticks_runs": [r["steal_ticks"] for r in rung],
            "plans": first["plans"], "work": first["work"]}
    return out


def sign_interval(ratios: list[float]) -> tuple[list[float], float]:
    """The sign test's interval on the median of `ratios`: their j-th
    smallest and j-th largest, j the largest whose coverage, 1 - 2 P(B < j)
    with B ~ Binomial(n, 1/2), is at least 95 % (j = 1, the whole range,
    when no j reaches it: fewer than 6 pairs). Returns (interval,
    coverage); 10 pairs give the 2nd smallest to the 2nd largest, 97.9 %."""
    n, ordered = len(ratios), sorted(ratios)

    def coverage(j: int) -> float:
        return 1.0 - 2.0 * sum(math.comb(n, i) for i in range(j)) / 2 ** n

    j = 1
    while 2 * j + 2 <= n + 1 and coverage(j + 1) >= 0.95:
        j += 1
    return [ordered[j - 1], ordered[n - j]], coverage(j)


def verdict(interval: list[float], noise: list[float] | None) -> str:
    """`faster`, `slower` or `unresolved`: where the wall-ratio `interval`
    lies against the A/A column's interval `noise` (a ratio of 1 without
    one)."""
    low, high = noise or (1.0, 1.0)
    if interval[1] < low:
        return "faster"
    return "slower" if interval[0] > high else "unresolved"


def paired(col: dict, base: dict, noise: dict | None = None) -> dict:
    """Per rung, `col`'s ratio to `base` within each alternation pair, the
    wall ratio's sign-test interval and its verdict against `noise`, the
    A/A column's paired entry."""
    out = {}
    for rung, entry in col.items():
        out[rung] = {}
        for key in ("wall_s", "cpu_s"):
            ratios = [a / b for a, b in zip(entry[f"{key}_runs"],
                                            base[rung][f"{key}_runs"])]
            out[rung] |= {f"{key}_ratio_runs": ratios,
                          f"{key}_ratio_median": statistics.median(ratios),
                          f"{key}_pairs_won": sum(r < 1.0 for r in ratios)}
        interval, cover = sign_interval(out[rung]["wall_s_ratio_runs"])
        out[rung] |= {"wall_s_ratio_interval": interval,
                      "wall_s_ratio_coverage": cover,
                      "verdict": verdict(interval, noise and noise[rung][
                          "wall_s_ratio_interval"])}
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
    cols = {name: column(p) for name, p in passes.items()}
    (base, base_root), rest = columns[0], columns[1:]
    # The first A/A column measures the noise the others are judged against.
    same = [name for name, root in rest if root == base_root]
    noise = paired(cols[same[0]], cols[base]) if same else None
    pairs = {name: paired(cols[name], cols[base],
                          None if name in same else noise)
             for name, _ in rest}
    doc = {"setup": {"python": platform.python_version(),
                     "cpus": os.cpu_count(), "processes": 1,
                     "blas_threads": 1, "repeats": REPEATS,
                     "plans_per_pass": PLANS_PER_PASS,
                     "statistic": "median wall (and CPU) seconds per plan"},
           "columns": cols,
           "paired": {"against": base, "columns": pairs}}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--pass"]:
        json.dump(one_pass(Path(sys.argv[2])), sys.stdout)
    else:
        raise SystemExit(main())
