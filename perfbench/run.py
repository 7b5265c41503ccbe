"""Closed-loop benchmark of the `uavplan` CLI, run in-process.

    python3 perfbench/run.py --workload fine-grid --seed 0 --seconds 38 --trace 0

Run from the repository root: the planner is imported from ./src. One
invocation of `uav_ic_planner.harness.main` runs at a time, with
`--workers 1` and BLAS/OpenMP threads capped at 1. Set-up writes the
workload's scenario YAML and makes one untimed warm-up invocation; the timed
loop then starts a new invocation while the next one is expected to finish
within --seconds. Every invocation's outputs are re-read and checked.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced invocations and prints the per-layer metrics (see tracing.py). The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
WORK_DIR = ".perfbench_work"
END_TO_END_UNITS = {"plans_per_s": "1/s", "wall_s_p50": "s",
                    "throughput_bpshz": "bps/Hz", "setup_s": "s",
                    "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    seconds: float                    # wall time of the CLI call alone
    throughputs: list[float] | None   # per plan; None when the call failed
    error: str = ""
    bytes_written: int = 0

    @property
    def ok(self) -> bool:
        return self.throughputs is not None


# ---------------------------------------------------------------------------
# Arithmetic (kept free of planner imports so it is unit-testable alone)

def fail_ratio(outcomes: list[Outcome]) -> float:
    return sum(not o.ok for o in outcomes) / len(outcomes)


def end_to_end(outcomes: list[Outcome], plans_per_invocation: int,
               setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics over the timed invocations. Failed invocations
    count in the median wall time but complete no plan. `plans_per_s` is
    the completed plans per invocation over the median invocation time, so
    one slow phase of a shared machine does not move it the way a mean
    would."""
    p50 = statistics.median(o.seconds for o in outcomes)
    ok = [o for o in outcomes if o.ok]
    plans = [x for o in ok for x in o.throughputs]
    return {
        "plans_per_s": len(ok) * plans_per_invocation / (len(outcomes) * p50),
        "wall_s_p50": p50,
        "throughput_bpshz": statistics.fmean(plans) if plans else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def overhead_ratio(untraced: list[Outcome], traced: list[Outcome]) -> float:
    return (statistics.median(o.seconds for o in traced)
            / statistics.median(o.seconds for o in untraced))


def result_line(outcomes: list[Outcome], metrics: dict[str, dict]) -> str:
    failed = sum(not o.ok for o in outcomes)
    return json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                       "failed": failed, "metrics": metrics})


# ---------------------------------------------------------------------------
# Invocation

def invoke(main, argv: list[str]) -> tuple[object, float, str]:
    """Call the CLI entry point in-process; returns (exit code, s, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # noqa: BLE001 - a crash is a failed invocation
        rc = "exception"
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - start, err.getvalue()


def attempt(workload, scenario: Path, out: Path, main,
            around=nullcontext) -> Outcome:
    """One invocation into a fresh output directory, then its output check."""
    from workloads import CheckFailed

    shutil.rmtree(out, ignore_errors=True)
    gc.collect()  # every invocation starts from a collected heap
    with around():
        rc, seconds, err = invoke(main, workload.argv(scenario, out))
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    if rc != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return Outcome(seconds, None, f"exit {rc}: {tail[0]}", written)
    try:
        return Outcome(seconds, workload.check(scenario, out), "", written)
    except CheckFailed as exc:
        return Outcome(seconds, None, f"check failed: {exc}", written)
    except Exception as exc:  # noqa: BLE001 - unreadable output is a failure
        return Outcome(seconds, None, f"check crashed: {exc!r}", written)


def timed_loop(seconds: float, estimate: float, step) -> list:
    """Closed loop: start the next step while it is expected to end within
    `seconds`; always at least one step. `step()` returns (result, s)."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start + estimate <= seconds:
        result, estimate = step()
        results.append(result)
    return results


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="unused: every workload's inputs are fixed")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path.cwd()
    src = root / "src"
    if not (src / "uav_ic_planner" / "__init__.py").is_file():
        print(f"error: no planner sources under {src}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    from uav_ic_planner import harness
    import tracing
    import workloads
    import_s = time.perf_counter() - t0
    if Path(harness.__file__).resolve().parent.parent != src.resolve():
        print(f"error: imported the planner from {harness.__file__}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    work = root / WORK_DIR / wl.name
    scenario, out = work / "scenario.yaml", work / "out"
    gen = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workloads.write_scenario(wl, scenario)
        gen.append(time.perf_counter() - t)
    warm = attempt(wl, scenario, out, harness.main)
    setup_s = import_s + statistics.median(gen) + warm.seconds

    def run_untraced():
        return attempt(wl, scenario, out, harness.main)

    if args.trace:
        tracer = tracing.Tracer()
        traced_main = tracer.wrap(tracing.ROOT, harness.main)
        inv_ids = itertools.count()

        def pair():
            inv = next(inv_ids)

            def run_traced():
                return attempt(wl, scenario, out, traced_main,
                               lambda: tracer.recording(inv))
            # Alternate which side runs first, so position effects cancel.
            if inv % 2:
                t = run_traced()
                u = run_untraced()
            else:
                u = run_untraced()
                t = run_traced()
            return (u, t), u.seconds + t.seconds

        pairs = timed_loop(args.seconds, 2 * warm.seconds, pair)
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        outcomes = [warm] + untraced + traced
        values, absent = tracing.layer_metrics(
            tracer, len(traced), len(traced) * wl.plans_per_invocation,
            sum(t.bytes_written for t in traced))
        values[tracing.OVERHEAD] = overhead_ratio(untraced, traced)
        metrics = {}
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": tracing.unit_of(name)}
            if value is None:
                metrics[name]["absent"] = True
        samples = traced
        if absent:
            print(f"absent per-layer metrics: {', '.join(absent)}")
            print("missing hooks: "
                  f"{', '.join(sorted(tracer.missing | tracer.broken))}")
    else:
        def step():
            o = run_untraced()
            return o, o.seconds

        samples = timed_loop(args.seconds, warm.seconds, step)
        outcomes = [warm] + samples
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = end_to_end(samples, wl.plans_per_invocation, setup_s, rss_mb)
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]}
                   for n, v in values.items()}

    for o in outcomes:
        if not o.ok:
            print(f"FAILED invocation: {o.error}", file=sys.stderr)
    kind = "traced" if args.trace else "timed"
    print(f"{wl.name}: {len(samples)} {kind} invocation(s) after 1 warm-up, "
          f"wall s: {', '.join(f'{o.seconds:.3f}' for o in samples)}; "
          f"fail_ratio {fail_ratio(outcomes):.4f} "
          f"({sum(not o.ok for o in outcomes)}/{len(outcomes)}); "
          f"single process, 1 BLAS thread, {os.cpu_count()} CPUs")
    print(result_line(outcomes, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
