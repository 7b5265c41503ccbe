"""CLI entry point, experiment sweeps, and table export.

Outputs are comma-separated tables with a leading schema-version comment
line, directly plottable with any external tool:
  trajectory.csv  slot,t_s,x_m,y_m
  allocation.csv  slot,tau_bitmask,p_w,q_1..q_K_w,r_bpshz
  trace.csv       scheme,outer_iter,objective_bpshz
  summary.csv     scheme,param,value,throughput_bpshz,iters,status[,nondecreasing_in_T]
  hover_point.csv x_m,y_m,throughput_bpshz   (upper bound only)

Exit codes: 0 success, 1 internal/config error, 2 infeasible, 3 I/O error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .benchmarks import (DEFAULT_GRID_STEP_M, SCHEME_NAMES, InsufficientDuration,
                         UpperBoundResult, run_scheme)
from .planner import (SCHEME_MODES, ConvergenceTrace, InfeasibleScenario,
                      Plan, PlannerConfig, make_plan)
from .ra_solver import Allocation, InfeasibleSite
from .sca_trajectory import Trajectory
from .scenario import (DEFAULT_SCENARIO_YAML, Scenario, ScenarioError,
                       check_feasibility, default_scenario, parse_scenario)

SCHEMA_LINE = "# uav-ic-planner tables v1"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3

_INFEASIBLE_ERRORS = (InfeasibleScenario, InsufficientDuration, InfeasibleSite)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def load_scenario(path: str) -> Scenario:
    if path == "default":
        return default_scenario()
    return parse_scenario(Path(path).read_text())


# ---------------------------------------------------------------------------
# Table writers / readers

def _write_table(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(SCHEMA_LINE + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open() as fh:
        first = fh.readline().rstrip("\n")
        if first != SCHEMA_LINE:
            raise ValueError(f"{path}: unexpected schema line {first!r}")
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def write_plan_tables(out_dir: Path, plan: Plan, scenario: Scenario,
                      trace: ConvergenceTrace | None = None) -> None:
    uav = scenario.uav
    _write_table(
        out_dir / "trajectory.csv",
        ["slot", "t_s", "x_m", "y_m"],
        [[n, _fmt(n * uav.delta_t), _fmt(x), _fmt(y)]
         for n, (x, y) in enumerate(plan.trajectory.waypoints)])
    k = scenario.n_sites
    a = plan.allocations
    # Python ints keep the bit mask exact for any K (no 64-bit overflow).
    masks = [sum(1 << j for j, t in enumerate(tau) if t)
             for tau in a.tau.tolist()]
    nums = np.column_stack([a.p, a.q, a.r]).tolist()
    _write_table(
        out_dir / "allocation.csv",
        ["slot", "tau_bitmask", "p_w"] + [f"q_{j + 1}_w" for j in range(k)]
        + ["r_bpshz"],
        [[n, mask] + [_fmt(v) for v in row]
         for n, (mask, row) in enumerate(zip(masks, nums), start=1)])
    if trace is not None:
        write_trace_table(out_dir, {plan.scheme_tag: trace.outer})


def write_trace_table(out_dir: Path, traces: dict[str, list[float]]) -> None:
    rows = []
    for scheme, values in traces.items():
        rows.extend([scheme, i, _fmt(v)] for i, v in enumerate(values, start=1))
    _write_table(out_dir / "trace.csv",
                 ["scheme", "outer_iter", "objective_bpshz"], rows)


def write_summary_table(out_dir: Path, rows: list[list],
                        sweep_param: str | None = None) -> None:
    header = ["scheme", "param", "value", "throughput_bpshz", "iters", "status"]
    if sweep_param == "mission_T":
        header.append("nondecreasing_in_T")
    _write_table(out_dir / "summary.csv", header, rows)


def load_plan(out_dir: Path, scenario: Scenario, scheme_tag: str) -> Plan:
    """Rebuild a Plan from exported tables; the inverse of write_plan_tables."""
    _, traj_rows = _read_table(out_dir / "trajectory.csv")
    waypoints = np.array([[float(r[2]), float(r[3])] for r in traj_rows])
    _, alloc_rows = _read_table(out_dir / "allocation.csv")
    k = scenario.n_sites
    masks = [int(row[1]) for row in alloc_rows]
    if any(not 0 < mask < 1 << k for mask in masks):
        raise ValueError(f"allocation.csv: tau_bitmask outside 1..2^{k}-1")
    tau = [[mask >> j & 1 for j in range(k)] for mask in masks]
    num = np.array([[float(v) for v in row[2:k + 4]] for row in alloc_rows])
    num = num.reshape(-1, k + 2)  # p_w, q_1..q_K_w, r_bpshz
    allocs = Allocation(tau=np.array(tau, dtype=bool).reshape(-1, k),
                        p=num[:, 0], q=num[:, 1:-1], r=num[:, -1])
    avg = float(np.mean(allocs.r))
    return make_plan(Trajectory(waypoints), allocs, avg, scheme_tag, scenario)


# ---------------------------------------------------------------------------
# Commands

def _normalize_scheme(name: str) -> str:
    key = name.lower().replace("-", "").replace("_", "")
    for known in SCHEME_NAMES:
        if key == known.replace("_", ""):
            return known
    raise ValueError(
        f"unknown scheme {name!r}; expected one of {', '.join(SCHEME_NAMES)}")


def _planner_cfg(args) -> PlannerConfig:
    return PlannerConfig(outer_max_iters=args.outer_max_iters,
                         rel_tol=args.rel_tol)


def cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario)
    scheme = _normalize_scheme(args.scheme)
    out_dir = Path(args.out)
    result, trace = run_scheme(scheme, scenario, _planner_cfg(args),
                               grid_step=args.grid_step)
    if isinstance(result, UpperBoundResult):
        _write_table(out_dir / "hover_point.csv",
                     ["x_m", "y_m", "throughput_bpshz"],
                     [[_fmt(result.hover_point[0]), _fmt(result.hover_point[1]),
                       _fmt(result.throughput)]])
        write_summary_table(out_dir, [[scheme, "", "", _fmt(result.throughput),
                                       1, "OK"]])
        print(f"{scheme}: throughput {result.throughput:.6f} bps/Hz at hover "
              f"point ({result.hover_point[0]:.1f}, {result.hover_point[1]:.1f}) m")
        return EXIT_OK
    plan = result
    iters = trace.iterations if trace is not None else 1
    write_plan_tables(out_dir, plan, scenario, trace)
    write_summary_table(out_dir, [[scheme, "", "", _fmt(plan.avg_throughput),
                                   iters, "OK"]])
    print(f"{scheme}: throughput {plan.avg_throughput:.6f} bps/Hz "
          f"in {iters} outer iteration(s)")
    return EXIT_OK


def apply_sweep_value(scenario: Scenario, param: str, value: float) -> Scenario:
    if param == "mission_T":
        return dataclasses.replace(
            scenario, uav=dataclasses.replace(scenario.uav, mission_t=value))
    if param == "gamma_all_sites":
        sites = tuple(dataclasses.replace(s, gamma=value) for s in scenario.sites)
        return dataclasses.replace(scenario, sites=sites)
    raise ValueError(f"unknown sweep parameter {param!r}")


def _sweep_point(task):
    scheme, param, value, scenario, cfg, grid_step = task
    point = apply_sweep_value(scenario, param, value)
    try:
        result, trace = run_scheme(scheme, point, cfg, grid_step=grid_step)
    except _INFEASIBLE_ERRORS:
        return [scheme, param, _fmt(value), "", "", "INFEASIBLE"]
    if isinstance(result, UpperBoundResult):
        return [scheme, param, _fmt(value), _fmt(result.throughput), 1, "OK"]
    iters = trace.iterations if trace is not None else 1
    return [scheme, param, _fmt(value), _fmt(result.avg_throughput), iters,
            "OK"]


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    schemes = [_normalize_scheme(s) for s in args.schemes.split(",") if s]
    values = [float(v) for v in args.values.split(",") if v]
    if sorted(values) != values or len(set(values)) != len(values):
        raise ValueError("sweep values must be strictly increasing")
    if not schemes:
        raise ValueError("at least one scheme is required")
    cfg = _planner_cfg(args)
    tasks = [(scheme, args.param, value, scenario, cfg, args.grid_step)
             for scheme in schemes for value in values]
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(args.workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(task) for task in tasks]

    if args.param == "mission_T":
        last: dict[str, float] = {}
        for row in rows:
            scheme, status = row[0], row[5]
            if status != "OK":
                row.append("")
                continue
            value = float(row[3])
            if scheme in last:
                row.append("yes" if value >= last[scheme] - 1e-12 else "no")
            else:
                row.append("")
            last[scheme] = value
    write_summary_table(Path(args.out), rows, sweep_param=args.param)
    for row in rows:
        print(",".join(str(c) for c in row))
    return EXIT_OK


def cmd_trace(args) -> int:
    scenario = load_scenario(args.scenario)
    schemes = [_normalize_scheme(s) for s in args.schemes.split(",") if s]
    traces: dict[str, list[float]] = {}
    cfg = _planner_cfg(args)
    for scheme in schemes:
        if scheme not in SCHEME_MODES:
            raise ValueError(f"scheme {scheme!r} has no iteration trace")
        _, trace = run_scheme(scheme, scenario, cfg)
        traces[scheme] = trace.outer
    write_trace_table(Path(args.out), traces)
    for scheme, values in traces.items():
        print(f"{scheme}: {len(values)} outer iterations, "
              f"final {values[-1]:.6f} bps/Hz")
    return EXIT_OK


def cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    report = check_feasibility(scenario)
    print(f"reachable: {report.reach_ok} "
          f"(minimum mission duration {report.min_mission_t:.4f} s)")
    for k, rate in enumerate(report.ic_rate_at_max):
        gamma = scenario.sites[k].gamma
        mark = "ok" if k not in report.failing_sites else "FAIL"
        print(f"site {k}: IC rate at max GU power {rate:.6f} bps/Hz, "
              f"guarantee {gamma:.6f} bps/Hz [{mark}]")
    print(f"gamma_max: {report.gamma_max:.6f} bps/Hz")
    print(f"feasible: {report.feasible}")
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_dump_default(args) -> int:
    sys.stdout.write(DEFAULT_SCENARIO_YAML)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavplan",
        description="Offline planner for a cellular-connected UAV sharing "
                    "uplink spectrum with ground users")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scheme_flags=True):
        p.add_argument("--scenario", default="default",
                       help="scenario file path, or 'default'")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--outer-max-iters", type=int, default=30)
        p.add_argument("--rel-tol", type=float, default=1e-4)
        if scheme_flags:
            p.add_argument("--grid-step", type=float,
                           default=DEFAULT_GRID_STEP_M,
                           help="upper-bound search grid step, m")
            p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("plan", help="run one scheme and export its tables")
    add_common(p)
    p.add_argument("--scheme", default="proposed")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", help="sweep a parameter over several schemes")
    add_common(p)
    p.add_argument("--param", choices=["mission_T", "gamma_all_sites"],
                   required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated increasing values")
    p.add_argument("--schemes", default=",".join(SCHEME_NAMES))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trace", help="export outer-iteration objective traces")
    add_common(p, scheme_flags=False)
    p.add_argument("--schemes", default="proposed,egoistic,altruistic")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("check", help="print the feasibility report")
    p.add_argument("--scenario", default="default")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dump-default-scenario",
                       help="print the built-in scenario document")
    p.set_defaults(func=cmd_dump_default)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INFEASIBLE_ERRORS as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
