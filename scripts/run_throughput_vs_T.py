#!/usr/bin/env python3
"""Sweep mission duration for every scheme and export the summary table.

Reproduces the throughput-versus-duration comparison on the built-in
scenario. Output: <out>/summary.csv with one row per (scheme, T) and a
non-decreasing-in-T marker column.
"""

import sys

from uav_ic_planner.harness import main

if __name__ == "__main__":
    # Extra flags come last, so they add to the defaults or override them.
    raise SystemExit(main(["sweep", "--param", "mission_T",
                           "--scenario", "default",
                           "--values", "40,60,80,100,120,150,200",
                           "--out", "out/throughput_vs_T"] + sys.argv[1:]))
