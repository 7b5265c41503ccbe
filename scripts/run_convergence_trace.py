#!/usr/bin/env python3
"""Export the outer-iteration objective trace of the iterative schemes.

Output: <out>/trace.csv in long format (scheme, outer_iter,
objective_bpshz); each scheme's column is non-decreasing by construction.
"""

import sys

from uav_ic_planner.harness import main

if __name__ == "__main__":
    # Extra flags come last, so they add to the defaults or override them.
    raise SystemExit(main(["trace", "--scenario", "default",
                           "--schemes", "proposed,egoistic,altruistic",
                           "--out", "out/convergence"] + sys.argv[1:]))
