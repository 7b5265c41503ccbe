"""Print every benchmark metric: one end-to-end row per workload, then the
per-layer table from the traced runs.

    python3 perfbench/report.py [--seconds S] [--seed N] [--workloads a,b]

Run from the repository root. Each workload runs twice as its own process
(`perfbench/run.py --trace 0`, then `--trace 1`), one after the other, so
every number is from a single process doing one CLI invocation at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
RUN_TIMEOUT_S = 600


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stderr}")
    for line in lines[:-1]:
        print(f"  {line}")
    return json.loads(lines[-1])


def fmt(entry: dict) -> str:
    value = entry["value"]
    return "absent" if value is None else f"{value:.7g}"


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    args = p.parse_args(argv)
    names = [n for n in args.workloads.split(",") if n]

    results = {}
    for name in names:
        for trace in (0, 1):
            print(f"running {name} --trace {trace} ...", flush=True)
            results[(name, trace)] = run_workload(name, args.seed,
                                                  args.seconds, trace)

    print(f"\nAll numbers: single process, one `uavplan` invocation at a "
          f"time (--workers 1, 1 BLAS thread), {os.cpu_count()}-CPU "
          f"machine, {args.seconds} s per run, seed {args.seed}.")
    e2e = bench["end_to_end"]
    header = ["workload"] + [f"{m['name']} [{m['unit']}]" for m in e2e] \
        + ["fail_ratio [failed/attempted]", "correct"]
    rows = []
    for name in names:
        r = results[(name, 0)]
        rows.append([name] + [fmt(r["metrics"][m["name"]]) for m in e2e]
                    + [f"{r['failed'] / r['attempted']:.4g} "
                       f"({r['failed']}/{r['attempted']})", str(r["correct"])])
    print_table(header, rows)

    print("\nPer-layer metrics, per CLI invocation (traced runs):")
    header = ["metric [unit]"] + names
    rows = []
    for m in bench["per_layer"]:
        rows.append([f"{m['name']} [{m['unit']}]"]
                    + [fmt(results[(n, 1)]["metrics"][m["name"]])
                       for n in names])
    rows.append(["traced runs correct"]
                + [str(results[(n, 1)]["correct"]) for n in names])
    print_table(header, rows)
    return 0


def print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(r[i]) for r in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                        for i, (c, w) in enumerate(zip(row, widths))))


if __name__ == "__main__":
    raise SystemExit(main())
