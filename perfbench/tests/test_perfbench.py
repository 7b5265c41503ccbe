"""Tests of the benchmark's own arithmetic, output checks and tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402
from uav_ic_planner import benchmarks, harness  # noqa: E402
from uav_ic_planner.planner import ResidualReport  # noqa: E402

SMALL_N = 20


def ok(seconds, *throughputs):
    return run.Outcome(seconds, list(throughputs))


def failed(seconds):
    return run.Outcome(seconds, None, "failed")


# ---------------------------------------------------------------------------
# Arithmetic

def test_end_to_end_arithmetic():
    outcomes = [ok(1.0, 2.0), ok(3.0, 4.0), failed(2.0), ok(10.0, 6.0)]
    m = run.end_to_end(outcomes, plans_per_invocation=1, setup_s=0.5,
                       peak_rss_mb=64.0)
    assert m["wall_s_p50"] == 2.5            # median of 1, 2, 3, 10
    assert m["plans_per_s"] == 3 / (4 * 2.5)  # failed call completes none
    assert m["throughput_bpshz"] == 4.0      # mean over completed plans
    assert m["setup_s"] == 0.5 and m["peak_rss_mb"] == 64.0
    assert run.fail_ratio(outcomes) == 0.25


def test_sweep_plans_counted_per_point():
    m = run.end_to_end([ok(2.0, 1.0, 2.0, 3.0)], plans_per_invocation=3,
                       setup_s=1.0, peak_rss_mb=1.0)
    assert m["plans_per_s"] == 1.5
    assert m["throughput_bpshz"] == 2.0


def test_overhead_ratio_uses_medians():
    untraced = [ok(1.0), ok(2.0), ok(9.0)]
    traced = [ok(3.0), ok(2.2), ok(2.4)]
    assert run.overhead_ratio(untraced, traced) == pytest.approx(1.2)


def test_self_time_and_outermost_total():
    spans = [Span(0, "root", 0.0, 10.0, None, 0),
             Span(1, "a", 1.0, 4.0, 0, 0),
             Span(2, "b", 2.0, 3.0, 1, 0),
             Span(3, "a", 5.0, 6.0, 0, 0),
             Span(4, "a", 5.2, 5.7, 3, 0)]
    self_t = tracing.self_times(spans)
    assert self_t[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_t[1] == pytest.approx(2.0)
    assert self_t[3] == pytest.approx(0.5)
    # Span 4 is nested in span 3 of the same group and is not double-counted.
    assert tracing.outermost_total(spans, ("a",)) == pytest.approx(4.0)
    assert tracing.outermost_total(spans, ("a", "b")) == pytest.approx(4.0)
    assert tracing.outermost_total(spans, ("b",)) == pytest.approx(1.0)


def test_timed_loop_runs_at_least_once_and_stops_on_estimate():
    steps = []

    def step():
        steps.append(len(steps))
        return steps[-1], 0.2 * len(steps)
    # Starts a step only while elapsed + last step's estimate fits.
    assert run.timed_loop(0.0, 5.0, step) == [0]
    steps.clear()
    assert run.timed_loop(0.5, 0.0, step) == [0, 1, 2]


# ---------------------------------------------------------------------------
# Output checks fail closed

@pytest.fixture()
def small_plan_scenario(tmp_path):
    doc = workloads.default_doc()
    doc["uav"]["N"] = SMALL_N
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


FINE_GRID = workloads.WORKLOADS["fine-grid"]


def test_valid_plan_passes(small_plan_scenario, tmp_path):
    o = run.attempt(FINE_GRID, small_plan_scenario, tmp_path / "out",
                    harness.main)
    assert o.ok, o.error
    assert len(o.throughputs) == 1 and math.isfinite(o.throughputs[0])
    assert o.bytes_written > 0


@pytest.mark.parametrize("exit_how", ["return", "system_exit", "raise"])
def test_nonzero_exit_counts_as_failure(small_plan_scenario, tmp_path,
                                        exit_how):
    def broken_main(argv):
        harness.main(argv)   # writes valid tables, then reports failure
        if exit_how == "return":
            return 1
        if exit_how == "system_exit":
            raise SystemExit(2)
        raise RuntimeError("crash")

    o = run.attempt(FINE_GRID, small_plan_scenario, tmp_path / "out",
                    broken_main)
    assert not o.ok
    assert run.fail_ratio([o, ok(1.0, 1.0)]) == 0.5


def test_nan_residual_counts_as_failure(small_plan_scenario, tmp_path,
                                        monkeypatch):
    real = workloads.evaluate_plan

    def nan_audit(plan, scenario):
        rep = real(plan, scenario)
        # ResidualReport.all_satisfied would still pass this report.
        residuals = dict(rep.residuals, gu_rate=math.nan)
        return ResidualReport(residuals, rep.recomputed_objective,
                              rep.objective_matches)

    monkeypatch.setattr(workloads, "evaluate_plan", nan_audit)
    o = run.attempt(FINE_GRID, small_plan_scenario, tmp_path / "out",
                    harness.main)
    assert not o.ok and "residual" in o.error
    assert run.fail_ratio([o]) == 1.0


def test_nan_in_tables_counts_as_failure(small_plan_scenario, tmp_path):
    def nan_main(argv):
        rc = harness.main(argv)
        alloc = Path(argv[argv.index("--out") + 1]) / "allocation.csv"
        lines = alloc.read_text().splitlines()
        cells = lines[2].split(",")
        cells[-1] = "nan"
        lines[2] = ",".join(cells)
        alloc.write_text("\n".join(lines) + "\n")
        return rc

    o = run.attempt(FINE_GRID, small_plan_scenario, tmp_path / "out",
                    nan_main)
    assert not o.ok and "non-finite" in o.error


def test_nan_altitude_plan_counts_as_failure(tmp_path):
    """A NaN scenario field that the planner accepts must not pass."""
    doc = workloads.default_doc()
    doc["uav"]["N"] = 5
    doc["uav"]["altitude_m"] = math.nan
    path = tmp_path / "nan.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    o = run.attempt(FINE_GRID, path, tmp_path / "out", harness.main)
    assert not o.ok


def test_sweep_check_rejects_broken_ordering(tmp_path):
    rows = []
    for scheme in workloads.SWEEP_SCHEMES:
        for i, t in enumerate(workloads.SWEEP_VALUES):
            value = {"upper_bound": 2.0, "proposed": 1.5, "egoistic": 1.4,
                     "straight_fly": 0.6, "successive_hover_fly": 1.0,
                     "altruistic": 0.2}[scheme] + 0.001 * i
            rows.append([scheme, "mission_T", str(t), repr(value), 1, "OK",
                         "" if i == 0 else "yes"])
    harness.write_summary_table(tmp_path, rows, sweep_param="mission_T")
    assert len(workloads.check_sweep(Path("unused"), tmp_path)) == len(rows)
    last = len(workloads.SWEEP_VALUES) - 1
    rows[last][3] = repr(0.1)   # proposed drops below the baselines at the
    rows[last][6] = "no"        # last T
    harness.write_summary_table(tmp_path, rows, sweep_param="mission_T")
    with pytest.raises(workloads.CheckFailed):
        workloads.check_sweep(Path("unused"), tmp_path)


# ---------------------------------------------------------------------------
# Traced run

EXACT_COUNTS = ("ra_solver.slots", "ra_solver.modes_evaluated",
                "channel.scalar_calls", "sca_trajectory.inner_iters",
                "planner.outer_iters")


def traced_metrics(workload, scenario, out, invocations=2):
    tracer = tracing.Tracer()
    main = tracer.wrap(tracing.ROOT, harness.main)
    outcomes = [run.attempt(workload, scenario, out, main,
                            lambda i=i: tracer.recording(i))
                for i in range(invocations)]
    assert all(o.ok for o in outcomes), [o.error for o in outcomes]
    values, absent = tracing.layer_metrics(
        tracer, invocations, invocations * workload.plans_per_invocation,
        sum(o.bytes_written for o in outcomes))
    return values, absent, tracer


def test_exact_counts_repeat_across_traced_runs(small_plan_scenario,
                                                tmp_path):
    first, absent, tracer = traced_metrics(
        FINE_GRID, small_plan_scenario, tmp_path / "a")
    second, _, _ = traced_metrics(
        FINE_GRID, small_plan_scenario, tmp_path / "b")
    assert absent == [] and not tracer.missing and not tracer.broken
    for name in EXACT_COUNTS:
        assert first[name] == second[name] > 0, name
    assert first["ra_solver.slots"] == SMALL_N * first["ra_solver.passes"]
    assert 0.0 < first["ra_solver.share"] < 1.0
    assert first["harness.bytes_written"] > 0
    # Hooks are removed after each traced invocation.
    assert harness.run_scheme is benchmarks.run_scheme


def test_sweep_layers_traced(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_VALUES", (40, 80))
    doc = workloads.default_doc()
    doc["uav"]["N"] = SMALL_N
    scenario = tmp_path / "s.yaml"
    scenario.write_text(yaml.safe_dump(doc, sort_keys=False))
    wl = workloads.Workload("mini-sweep", dict, workloads._sweep_argv,
                            workloads.check_sweep, plans_per_invocation=12)
    values, absent, _ = traced_metrics(wl, scenario, tmp_path / "out", 1)
    assert absent == []
    for name in ("benchmarks.upper_bound_s", "benchmarks.tour_s",
                 "benchmarks.baselines_s", "harness.export_s"):
        assert values[name] > 0.0, name


def test_missing_hook_marks_metric_absent(small_plan_scenario, tmp_path,
                                          monkeypatch):
    # Simulate a refactor that removed the upper-bound entry point; a
    # proposed plan never calls it.
    monkeypatch.delattr(benchmarks, "upper_bound")
    values, absent, tracer = traced_metrics(
        FINE_GRID, small_plan_scenario, tmp_path / "out", 1)
    assert absent == ["benchmarks.upper_bound_s"]
    assert values["benchmarks.upper_bound_s"] is None
    assert tracer.missing == {"benchmarks.upper_bound"}
    assert values["ra_solver.passes"] > 0
