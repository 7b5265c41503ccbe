#!/usr/bin/env python3
"""Locate the feasibility boundaries of the built-in scenario.

Runs two sweeps: mission duration around the straight-line minimum
(infeasible points are marked in the summary), and the per-user rate
guarantee up to the level where even maximum ground-user power cannot
meet it. `--out DIR` (default `out`) receives one subdirectory per sweep,
DIR/boundary_T and DIR/boundary_gamma; other extra flags go to both sweeps.
"""

import argparse
from pathlib import Path

from uav_ic_planner.harness import main

if __name__ == "__main__":
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--out", default="out")
    args, extra = parser.parse_known_args()
    out = Path(args.out)
    rc = main(["sweep", "--param", "mission_T",
               "--values", "20,25,28,28.284,30,35,36,37,40",
               "--schemes", "straight_fly,successive_hover_fly",
               "--out", str(out / "boundary_T")] + extra)
    rc |= main(["sweep", "--param", "gamma_all_sites",
                "--values", "1,2,3,4,4.9,5,5.1,6",
                "--schemes", "straight_fly",
                "--out", str(out / "boundary_gamma")] + extra)
    raise SystemExit(rc)
