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
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .benchmarks import (SCHEME_NAMES, BenchmarkError, InsufficientDuration,
                         UpperBoundResult, run_scheme, run_schemes)
from .planner import (SCHEME_MODES, ConvergenceTrace, InfeasibleScenario,
                      Plan, make_plan)
from .ra_solver import Allocation
from .sca_trajectory import Trajectory
from .scenario import (DEFAULT_SCENARIO_YAML, InfeasibleSite, Scenario,
                       ScenarioError, check_feasibility, default_scenario,
                       parse_scenario)

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

def _write_table(path: Path, header: list[str], fmt: str, rows) -> None:
    """Write the schema line, the header and `fmt % row` for each row (a
    tuple), each row ended with CRLF as by the csv module. No cell holds a
    comma, a quote or a line break, so none needs quoting."""
    body = "".join(map((fmt + "\r\n").__mod__, rows))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(f"{SCHEMA_LINE}\n{','.join(header)}\r\n{body}")


def _read_table(path: Path, parse=list) -> tuple[list[str], list]:
    """(header, rows) of a table, each row read by `parse`. A row of another
    width than the header, or one `parse` rejects, raises ValueError."""
    with path.open() as fh:
        first = fh.readline().rstrip("\n")
        if first != SCHEMA_LINE:
            raise ValueError(f"{path}: unexpected schema line {first!r}")
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: no header row")
    header, parsed = rows[0], []
    for i, row in enumerate(rows[1:], start=1):  # row i after the header
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} cells, the header {len(header)}")
            parsed.append(parse(row))
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
    return header, parsed


def _plan_headers(k: int) -> dict[str, list[str]]:
    """The header row of each plan table, for K sites."""
    return {"trajectory.csv": ["slot", "t_s", "x_m", "y_m"],
            "allocation.csv": ["slot", "tau_bitmask", "p_w"]
            + [f"q_{j + 1}_w" for j in range(k)] + ["r_bpshz"]}


def write_plan_tables(out_dir: Path, plan: Plan, scenario: Scenario,
                      trace: ConvergenceTrace | None = None) -> None:
    dt, k = scenario.uav.delta_t, scenario.n_sites
    headers = _plan_headers(k)
    x, y = plan.trajectory.waypoints.T.tolist()
    _write_table(out_dir / "trajectory.csv", headers["trajectory.csv"],
                 "%d,%.12g,%.12g,%.12g",
                 zip(range(len(x)), [n * dt for n in range(len(x))], x, y))
    a = plan.allocations
    # Python ints keep the bit mask exact for any K (no 64-bit overflow);
    # site j is bit j of a row's little-endian packed bytes.
    masks = [int.from_bytes(row, "little")
             for row in np.packbits(a.tau, axis=1, bitorder="little")]
    nums = np.column_stack([a.p, a.q, a.r]).tolist()
    _write_table(
        out_dir / "allocation.csv", headers["allocation.csv"],
        "%d,%d" + ",%.12g" * (k + 2),
        [(n, mask, *row)
         for n, (mask, row) in enumerate(zip(masks, nums), start=1)])
    if trace is not None:
        write_trace_table(out_dir, {plan.scheme_tag: trace.outer})


def write_trace_table(out_dir: Path, traces: dict[str, list[float]]) -> None:
    rows = [(scheme, i, v) for scheme, values in traces.items()
            for i, v in enumerate(values, start=1)]
    _write_table(out_dir / "trace.csv",
                 ["scheme", "outer_iter", "objective_bpshz"], "%s,%d,%.12g",
                 rows)


def write_summary_table(out_dir: Path, rows: list[list],
                        sweep_param: str | None = None) -> None:
    header = ["scheme", "param", "value", "throughput_bpshz", "iters", "status"]
    if sweep_param == "mission_T":
        header.append("nondecreasing_in_T")
    _write_table(out_dir / "summary.csv", header,
                 ",".join(["%s"] * len(header)), map(tuple, rows))


def load_plan(out_dir: Path, scenario: Scenario, scheme_tag: str) -> Plan:
    """Rebuild a Plan from exported tables; the inverse of write_plan_tables.
    A header that is not the one for the scenario's K, a row count other
    than N + 1 waypoints and N slots, or a malformed row raises ValueError."""
    k, n = scenario.n_sites, scenario.uav.n_slots
    rows = {}
    for (name, want), count, ints in zip(_plan_headers(k).items(),
                                         (n + 1, n), (1, 2)):
        # The first `ints` cells (the slot, and the bit mask) are exact ints.
        header, rows[name] = _read_table(out_dir / name, lambda row: [
            *map(int, row[:ints]), *map(float, row[ints:])])
        if header != want:
            raise ValueError(f"{out_dir / name}: expected the {k}-site "
                             f"header {','.join(want)}")
        if len(rows[name]) != count:
            raise ValueError(f"{out_dir / name}: expected {count} rows for "
                             f"N={n}, found {len(rows[name])}")
    traj_rows, alloc_rows = rows.values()
    waypoints = np.array([row[2:] for row in traj_rows], dtype=float)
    masks = [row[1] for row in alloc_rows]
    if any(not 0 < mask < 1 << k for mask in masks):
        raise ValueError(f"allocation.csv: tau_bitmask outside 1..2^{k}-1")
    tau = [[mask >> j & 1 for j in range(k)] for mask in masks]
    num = np.array([row[2:] for row in alloc_rows], dtype=float)
    allocs = Allocation(tau=np.array(tau, dtype=bool), p=num[:, 0],
                        q=num[:, 1:-1], r=num[:, -1])
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


def _schemes(text: str) -> list[str]:
    schemes = [_normalize_scheme(s) for s in text.split(",") if s]
    if not schemes:
        raise ValueError("at least one scheme is required")
    for i, scheme in enumerate(schemes):
        if scheme in schemes[:i]:
            raise ValueError(f"duplicate scheme {scheme!r}")
    return schemes


def cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario)
    scheme = _normalize_scheme(args.scheme)
    out_dir = Path(args.out)
    result, trace = run_scheme(scheme, scenario)
    row = _summary_row([scheme, "", ""], (result, trace))
    if isinstance(result, UpperBoundResult):
        _write_table(out_dir / "hover_point.csv",
                     ["x_m", "y_m", "throughput_bpshz"], "%.12g,%.12g,%.12g",
                     [(*result.hover_point, result.throughput)])
        print(f"{scheme}: throughput {result.throughput:.6f} bps/Hz at hover "
              f"point ({result.hover_point[0]:.1f}, {result.hover_point[1]:.1f}) m")
    else:
        write_plan_tables(out_dir, result, scenario, trace)
        print(f"{scheme}: throughput {result.avg_throughput:.6f} bps/Hz "
              f"in {row[4]} outer iteration(s)")
    write_summary_table(out_dir, [row])
    return EXIT_OK


def apply_sweep_value(scenario: Scenario, param: str, value: float) -> Scenario:
    if param == "mission_T":
        return dataclasses.replace(
            scenario, uav=dataclasses.replace(scenario.uav, mission_t=value))
    if param == "gamma_all_sites":
        sites = tuple(dataclasses.replace(s, gamma=value) for s in scenario.sites)
        return dataclasses.replace(scenario, sites=sites)
    raise ValueError(f"unknown sweep parameter {param!r}")


def _summary_row(row: list[str], outcome) -> list:
    """`row` completed from the scheme's (result, trace) or exception."""
    if isinstance(outcome, Exception):
        return row + ["", "", "INFEASIBLE" if isinstance(
            outcome, _INFEASIBLE_ERRORS) else "REFUSED"]
    result, trace = outcome
    if isinstance(result, UpperBoundResult):
        return row + [_fmt(result.throughput), 1, "OK"]
    return row + [_fmt(result.avg_throughput),
                  trace.iterations if trace is not None else 1, "OK"]


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    schemes = _schemes(args.schemes)
    values = [float(v) for v in args.values.split(",") if v]
    if not values:
        raise ValueError("at least one sweep value is required")
    if sorted(values) != values or len(set(values)) != len(values):
        raise ValueError("sweep values must be strictly increasing")
    points = [(scheme, value) for scheme in schemes for value in values]
    outcomes = run_schemes([
        (scheme, apply_sweep_value(scenario, args.param, value))
        for scheme, value in points])
    rows = [_summary_row([scheme, args.param, _fmt(value)], outcome)
            for (scheme, value), outcome in zip(points, outcomes)]

    if args.param == "mission_T":
        last: dict[str, float] = {}
        for row in rows:
            scheme, mark = row[0], ""
            if row[5] == "OK":
                value = float(row[3])
                if scheme in last:
                    mark = "yes" if value >= last[scheme] - 1e-12 else "no"
                last[scheme] = value
            row.append(mark)
    write_summary_table(Path(args.out), rows, sweep_param=args.param)
    for row in rows:
        print(",".join(str(c) for c in row))
    return EXIT_OK


def cmd_trace(args) -> int:
    scenario = load_scenario(args.scenario)
    schemes = _schemes(args.schemes)
    for scheme in schemes:
        if scheme not in SCHEME_MODES:
            raise ValueError(f"scheme {scheme!r} has no iteration trace")
    outcomes = run_schemes([(scheme, scenario) for scheme in schemes])
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    traces = {s: trace.outer for s, (_, trace) in zip(schemes, outcomes)}
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

    def add_common(p, workers=True):
        p.add_argument("--scenario", default="default",
                       help="scenario file path, or 'default'")
        p.add_argument("--out", default="out", help="output directory")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="must be at least 1; has no effect")

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
    add_common(p, workers=False)
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
        if getattr(args, "workers", 1) < 1:
            raise ValueError(
                f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except _INFEASIBLE_ERRORS as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ScenarioError, ValueError, BenchmarkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
