import csv
import dataclasses
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import uav_ic_planner
from uav_ic_planner import harness
from uav_ic_planner.benchmarks import SCHEME_NAMES, run_scheme
from uav_ic_planner.harness import (EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_IO,
                                    EXIT_OK, SCHEMA_LINE, load_plan, main)
from uav_ic_planner.planner import (ConvergenceTrace, Plan, evaluate_plan,
                                    make_plan, solve)
from uav_ic_planner.ra_solver import Allocation, solve_resource_allocation
from uav_ic_planner.sca_trajectory import Trajectory, straight_line_trajectory
from uav_ic_planner.scenario import (DEFAULT_SCENARIO_YAML, Scenario,
                                     ScenarioError, default_scenario,
                                     parse_scenario)

from conftest import (EDGE_SCENARIO_YAML, dense_diagonal_scenario,
                      make_channel, make_site, make_uav,
                      random_feasible_scenario, scenario_yaml)

ROOT = Path(__file__).resolve().parents[1]


def read(path: Path) -> str:
    return path.read_text()


def test_dump_default_scenario_round_trips(capsys):
    assert main(["dump-default-scenario"]) == EXIT_OK
    text = capsys.readouterr().out
    sc = harness.parse_scenario(text)
    assert sc.n_sites == 3


def test_check_default(capsys):
    assert main(["check"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "feasible: True" in out
    assert "gamma_max: 5.0" in out


def test_check_infeasible_exit_code(tmp_path, capsys):
    sc = default_scenario()
    sites = tuple(dataclasses.replace(s, gamma=6.0) for s in sc.sites)
    bad = dataclasses.replace(sc, sites=sites)
    path = tmp_path / "bad.yaml"
    path.write_text(scenario_yaml(bad))
    assert main(["check", "--scenario", str(path)]) == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_plans_the_edge_document(tmp_path, capsys):
    """`check` accepts site 3's guarantee at 1e-11 bps/Hz above its IC rate
    at q_max, so every scheme plans it and every sweep row is OK."""
    path = tmp_path / "edge.yaml"
    path.write_text(EDGE_SCENARIO_YAML)
    assert main(["check", "--scenario", str(path)]) == EXIT_OK
    for scheme in SCHEME_NAMES:
        assert main(["plan", "--scenario", str(path), "--scheme", scheme,
                     "--out", str(tmp_path / scheme)]) == EXIT_OK, scheme
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(path), "--param", "mission_T",
                 "--values", "100,150", "--out", str(out)]) == EXIT_OK
    _, rows = harness._read_table(out / "summary.csv")
    assert len(rows) == 2 * len(SCHEME_NAMES)
    assert all(row[5] == "OK" for row in rows)


def test_plan_infeasible_names_failing_site(tmp_path, capsys):
    sc = default_scenario()
    sites = tuple(dataclasses.replace(s, gamma=6.0) for s in sc.sites)
    bad = dataclasses.replace(sc, sites=sites)
    path = tmp_path / "bad.yaml"
    path.write_text(scenario_yaml(bad))
    code = main(["plan", "--scenario", str(path), "--scheme", "proposed",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "site" in err


def test_plan_straight_fly_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["plan", "--scheme", "straight_fly", "--out", str(out)])
    assert code == EXIT_OK
    for name in ("trajectory.csv", "allocation.csv", "summary.csv"):
        content = read(out / name)
        assert content.startswith(SCHEMA_LINE + "\n")
    traj_lines = read(out / "trajectory.csv").strip().splitlines()
    assert len(traj_lines) == 2 + 201  # schema + header + N+1 waypoints
    alloc_lines = read(out / "allocation.csv").strip().splitlines()
    assert len(alloc_lines) == 2 + 200
    assert "straight_fly: throughput" in capsys.readouterr().out


def test_plan_runs_without_scipy(tmp_path):
    """The package does not need scipy: a hover-fly plan succeeds in a fresh
    interpreter where importing scipy fails."""
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from uav_ic_planner.harness import main\n"
            "raise SystemExit(main(['plan', '--scheme', "
            f"'successive_hover_fly', '--out', {str(tmp_path)!r}]))\n")
    src = str(Path(uav_ic_planner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "summary.csv").exists()


def test_plan_round_trip_matches_summary(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["plan", "--scheme", "proposed", "--out", str(out)]) == EXIT_OK
    sc = default_scenario()
    plan = load_plan(out, sc, "proposed")
    report = evaluate_plan(plan, sc)
    assert report.all_satisfied
    summary = read(out / "summary.csv").strip().splitlines()[-1].split(",")
    assert float(summary[3]) == pytest.approx(report.recomputed_objective,
                                              abs=1e-9)


def test_load_plan_checks_headers_against_site_count(tmp_path):
    """The tables of the K=8 dense-sites plan do not load under 7 or 9 of
    its sites. Under the first 7 its masks alone would pass, since no slot
    decodes at site 8, and the 8th GU power would be read as the rate; the
    header check names the table and the header it expects."""
    sc = dense_diagonal_scenario(np.random.default_rng(3))
    plan, trace = solve(sc)
    harness.write_plan_tables(tmp_path, plan, sc, trace)
    assert not plan.allocations.tau[:, 7].any()
    extra = dataclasses.replace(sc.sites[0], pos=(500.0, 0.0))
    for sites in (sc.sites[:7], sc.sites + (extra,)):
        k = len(sites)
        want = ",".join(["slot", "tau_bitmask", "p_w"]
                        + [f"q_{j + 1}_w" for j in range(k)] + ["r_bpshz"])
        with pytest.raises(ValueError, match=f"allocation.csv: expected "
                           f"the {k}-site header {want}$"):
            load_plan(tmp_path, dataclasses.replace(sc, sites=sites),
                      "proposed")
    back = load_plan(tmp_path, sc, "proposed")
    assert back.avg_throughput == pytest.approx(plan.avg_throughput, abs=1e-9)


@pytest.mark.parametrize("name, lines, message", [
    ("trajectory.csv", 1, "no header row"),
    ("allocation.csv", 1, "no header row"),
    ("allocation.csv", 2, "expected 200 rows for N=200, found 0"),
    ("trajectory.csv", 201, "expected 201 rows for N=200, found 199"),
    ("allocation.csv", 201, "expected 200 rows for N=200, found 199"),
])
def test_load_plan_rejects_truncated_tables(tmp_path, name, lines, message):
    """A plan table cut after its schema line, after its header row or
    one row short fails with ValueError naming the table, not with a bare
    StopIteration, a mean of no rows or an audit of mismatched shapes."""
    sc = default_scenario()
    plan, trace = solve(sc)
    harness.write_plan_tables(tmp_path, plan, sc, trace)
    path = tmp_path / name
    path.write_text("".join(path.read_text().splitlines(True)[:lines]))
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: {message}$"):
        load_plan(tmp_path, sc, "proposed")


@pytest.mark.parametrize("name, width", [("trajectory.csv", 4),
                                         ("allocation.csv", 7)])
@pytest.mark.parametrize("edit", ["short", "long", "non_numeric"])
def test_load_plan_rejects_malformed_rows(tmp_path, name, width, edit):
    """A row with a cell missing, an extra cell or a non-numeric cell fails
    with ValueError naming the table and the row, not with a bare
    IndexError, numpy's shape error or a silent load."""
    sc = default_scenario()
    plan, trace = run_scheme("straight_fly", sc)
    harness.write_plan_tables(tmp_path, plan, sc, trace)
    path = tmp_path / name
    lines = path.read_text().splitlines(True)
    cells = lines[4].rstrip().split(",")
    cells, message = {
        "short": (cells[:-1], f"{width - 1} cells, the header {width}"),
        "long": (cells + ["0"], f"{width + 1} cells, the header {width}"),
        "non_numeric": (cells[:-1] + ["abc"],
                        "could not convert string to float: 'abc'"),
    }[edit]
    lines[4] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=re.escape(f"{path}: row 3: {message}")
                       + "$"):
        load_plan(tmp_path, sc, "straight_fly")


def test_plan_upper_bound_writes_hover_point(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["plan", "--scheme", "upperbound", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "hover_point.csv").exists()
    assert not (out / "trajectory.csv").exists()


def test_trace_command(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["trace", "--schemes", "proposed,altruistic",
                 "--out", str(out)])
    assert code == EXIT_OK
    header, rows = harness._read_table(out / "trace.csv")
    assert header == ["scheme", "outer_iter", "objective_bpshz"]
    for scheme in ("proposed", "altruistic"):
        vals = [float(r[2]) for r in rows if r[0] == scheme]
        assert vals and all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--grid-step", "10"]])
def test_trace_has_no_plan_only_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--out", str(tmp_path)] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


SWEEP_ARGS = ["sweep", "--param", "mission_T", "--values", "40"]


@pytest.mark.parametrize("flag", [["--outer-max-iters", "1"],
                                  ["--rel-tol", "0.1"], ["--grid-step", "10"]])
@pytest.mark.parametrize("command", [["plan"], SWEEP_ARGS, ["trace"]])
def test_tuning_flags_are_unrecognized(tmp_path, capsys, command, flag):
    """The stop rule and the upper-bound grid are fixed, not options."""
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", str(tmp_path / "out")] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["trace", "--schemes", ","], "at least one scheme is required"),
    (SWEEP_ARGS + ["--schemes", ","], "at least one scheme is required"),
    (["sweep", "--param", "mission_T", "--values", ","],
     "at least one sweep value is required"),
    (SWEEP_ARGS + ["--workers", "0"], "--workers must be at least 1, got 0"),
    (SWEEP_ARGS + ["--workers", "-2"], "--workers must be at least 1, got -2"),
    (["plan", "--workers", "0"], "--workers must be at least 1, got 0"),
    (["plan", "--workers", "-2"], "--workers must be at least 1, got -2"),
    (SWEEP_ARGS + ["--schemes", "upperbound,upper_bound"],
     "duplicate scheme 'upper_bound'"),
    (["trace", "--schemes", "proposed,proposed"],
     "duplicate scheme 'proposed'"),
])
def test_empty_lists_and_non_positive_workers_rejected(tmp_path, capsys,
                                                       argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_INTERNAL
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["straight_fly", "successive_hover_fly",
                                    "upper_bound"])
def test_trace_rejects_non_iterative_scheme(scheme, tmp_path, capsys):
    code = main(["trace", "--schemes", scheme, "--out", str(tmp_path)])
    assert code == EXIT_INTERNAL
    assert "has no iteration trace" in capsys.readouterr().err


def test_sweep_marks_infeasible_points(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", "--param", "mission_T", "--values", "20,40",
                 "--schemes", "straight_fly", "--out", str(out)])
    assert code == EXIT_OK
    _, rows = harness._read_table(out / "summary.csv")
    by_value = {r[2]: r[5] for r in rows}
    assert by_value["20"] == "INFEASIBLE"
    assert by_value["40"] == "OK"


def test_sweep_marks_refused_points(tmp_path, capsys):
    """Hover-fly refuses K > 8 sites (exhaustive tour search); the sweep
    keeps the other scheme's rows and marks the refused ones, and `plan`
    reports the refusal as a user error."""
    sc = random_feasible_scenario(np.random.default_rng(10), k=10,
                                  n_slots=20)
    path = tmp_path / "k10.yaml"
    path.write_text(scenario_yaml(sc))
    out = tmp_path / "out"
    code = main(["sweep", "--scenario", str(path), "--param", "mission_T",
                 "--values", "40,100",
                 "--schemes", "straight_fly,successive_hover_fly",
                 "--out", str(out)])
    assert code == EXIT_OK
    _, rows = harness._read_table(out / "summary.csv")
    status = {(r[0], r[2]): r[5] for r in rows}
    assert status == {("straight_fly", "40"): "OK",
                      ("straight_fly", "100"): "OK",
                      ("successive_hover_fly", "40"): "REFUSED",
                      ("successive_hover_fly", "100"): "REFUSED"}
    capsys.readouterr()
    code = main(["plan", "--scenario", str(path),
                 "--scheme", "successive_hover_fly",
                 "--out", str(tmp_path / "plan")])
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("error: exhaustive tour search refused for K=10")


def test_sweep_gamma_boundary(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", "--param", "gamma_all_sites",
                 "--values", "1,3,5,6,2000",
                 "--schemes", "straight_fly,upper_bound", "--out", str(out)])
    assert code == EXIT_OK
    _, rows = harness._read_table(out / "summary.csv")
    for scheme in ("straight_fly", "upper_bound"):
        status = {r[2]: r[5] for r in rows if r[0] == scheme}
        assert status["1"] == status["3"] == status["5"] == "OK"
        # 2^2000 overflows a float: the feasibility check must reject the
        # guarantee before any closed form evaluates it.
        assert status["6"] == status["2000"] == "INFEASIBLE"
        # Throughput falls as the guarantee tightens.
        vals = [float(r[3]) for r in rows if r[0] == scheme and r[5] == "OK"]
        assert vals == sorted(vals, reverse=True)
    path = tmp_path / "huge_gamma.yaml"
    path.write_text(DEFAULT_SCENARIO_YAML.replace("gamma_bpshz: 2.0",
                                                  "gamma_bpshz: 2000.0", 1))
    for scheme in ("upper_bound", "successive_hover_fly", "proposed"):
        assert main(["plan", "--scenario", str(path), "--scheme", scheme,
                     "--out", str(tmp_path / scheme)]) == EXIT_INFEASIBLE


def test_sweep_rejects_unsorted_values(tmp_path, capsys):
    code = main(["sweep", "--param", "mission_T", "--values", "80,40",
                 "--schemes", "straight_fly", "--out", str(tmp_path)])
    assert code == EXIT_INTERNAL


def test_sweep_workers_bit_identical(tmp_path, capsys):
    """The sweep solves the planner's schemes at all values in one lock-step
    stack; its rows are bit for bit those of `run_scheme` on each point
    alone, on both sweep parameters, and an infeasible point (gamma 6)
    keeps its row."""
    schemes = ["straight_fly", "successive_hover_fly", "proposed",
               "egoistic", "altruistic"]
    for param, values in (("mission_T", ["40", "80"]),
                          ("gamma_all_sites", ["2", "6"])):
        out = tmp_path / param
        assert main(["sweep", "--param", param, "--values", ",".join(values),
                     "--schemes", ",".join(schemes),
                     "--out", str(out)]) == EXIT_OK
        _, rows = harness._read_table(out / "summary.csv")
        expected = []
        for scheme in schemes:
            for value in values:
                point = harness.apply_sweep_value(default_scenario(), param,
                                                  float(value))
                try:
                    outcome = run_scheme(scheme, point)
                except harness._INFEASIBLE_ERRORS as exc:
                    outcome = exc
                expected.append([str(c) for c in harness._summary_row(
                    [scheme, param, value], outcome)])
        assert [row[:6] for row in rows] == expected
        status = {(r[0], r[2]): r[5] for r in rows}
        assert status["proposed", values[0]] == "OK"
    assert status["proposed", "6"] == "INFEASIBLE"


def test_plan_accepts_one_worker(tmp_path, capsys):
    assert main(["plan", "--workers", "1", "--out", str(tmp_path)]) == EXIT_OK


def test_unknown_scheme_exit_code(tmp_path, capsys):
    assert main(["plan", "--scheme", "warp_drive",
                 "--out", str(tmp_path)]) == EXIT_INTERNAL


def test_missing_scenario_file_is_io_error(tmp_path, capsys):
    code = main(["plan", "--scenario", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path)])
    assert code == EXIT_IO


def test_malformed_scenario_is_internal_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("channel: {beta0_db: -30.0}\n")
    code = main(["plan", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == EXIT_INTERNAL


def test_plan_rejects_non_finite_scenario(tmp_path, capsys):
    path = tmp_path / "nan.yaml"
    path.write_text(DEFAULT_SCENARIO_YAML.replace("altitude_m: 100.0",
                                                  "altitude_m: .nan"))
    code = main(["plan", "--scenario", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_INTERNAL
    assert "uav.altitude_m" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("altitude, parses", [
    ("1.0e-300", False), ("1.0e-150", False), ("1.0e-77", False),
    ("1.0e-76", True)])
def test_altitude_whose_geometry_underflows_is_rejected(tmp_path, capsys,
                                                        altitude, parses):
    """A waypoint above a site divides by altitude ** (alpha + 2) (the
    gain's slope in the squared distance), so an altitude at which that
    power underflows must not parse: at alpha = 2 the boundary lies between
    1e-77 m and 1e-76 m. Above it, the plan meets no numpy warning."""
    text = DEFAULT_SCENARIO_YAML.replace("altitude_m: 100.0",
                                         f"altitude_m: {altitude}")
    path, out = tmp_path / "low.yaml", tmp_path / "o"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        check = main(["check", "--scenario", str(path)])
        code = main(["plan", "--scenario", str(path), "--out", str(out)])
    if parses:
        assert parse_scenario(text).uav.altitude == float(altitude)
        assert (check, code) == (EXIT_OK, EXIT_OK)
        return
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert exc.value.path == "uav.altitude_m"
    assert (check, code) == (EXIT_INTERNAL, EXIT_INTERNAL)
    assert "uav.altitude_m" in capsys.readouterr().err
    assert not out.exists()


def test_plan_tables_round_trip_k64(tmp_path):
    """The tau bit mask stays exact past bit 62 (site 64 is bit 63)."""
    sc = random_feasible_scenario(np.random.default_rng(64), k=64, n_slots=20)
    traj = straight_line_trajectory(sc.uav)
    for mc in ("any", "altruistic"):
        allocs, avg = solve_resource_allocation(traj, sc, mc)
        plan = make_plan(traj, allocs, avg, mc, sc)
        out = tmp_path / mc
        harness.write_plan_tables(out, plan, sc)
        masks = [int(line.split(",")[1]) for line in
                 read(out / "allocation.csv").splitlines()[2:]]
        assert masks == [sum(1 << j for j in range(64) if row[j])
                         for row in allocs.tau.tolist()]
        back = load_plan(out, sc, mc)
        assert np.array_equal(back.allocations.tau, allocs.tau)
        assert np.allclose(back.trajectory.waypoints, traj.waypoints,
                           rtol=1e-11, atol=0.0)  # 12 significant digits
        assert evaluate_plan(back, sc).all_satisfied
    assert masks == [(1 << 64) - 1] * 20  # altruistic: every bit set


def _csv_module_table(header: list[str], rows) -> bytes:
    """A table as the csv module writes it, float cells as "%.12g"."""
    buf = io.StringIO(newline="")
    buf.write(SCHEMA_LINE + "\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row]
                     for row in rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("k", [1, 3, 64])
def test_tables_match_csv_module_bytes(tmp_path, k):
    """At N=2001 every table is byte for byte what csv.writer writes: floats
    from the subnormal range to 1e300, negative zero, integral floats, and
    tau bit masks with the lowest bit, the highest bit or all K bits set
    (2^64 - 1 at K=64) as exact Python ints."""
    rng = np.random.default_rng(k)
    n = 2001

    def values(*shape):
        v = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-300, 300,
                                                                 shape)
        v.flat[::7] = -0.0
        v.flat[3::11] = rng.integers(-5, 5, v.flat[3::11].size)
        v.flat[:3] = (5e-324, 1.7976931348623157e308, 123456789012.5)
        return v

    sc = Scenario(channel=make_channel(),
                  sites=tuple(make_site(pos=(10.0 * j, 0.0)) for j in range(k)),
                  uav=make_uav(n_slots=n))
    tau = rng.random((n, k)) < 0.5
    tau[0], tau[1], tau[2] = True, np.arange(k) == 0, np.arange(k) == k - 1
    allocs = Allocation(tau=tau, q=values(n, k), p=values(n), r=values(n))
    trace = ConvergenceTrace(outer=values(4).tolist(), inner_per_outer=[],
                             converged=True)
    plan = Plan(trajectory=Trajectory(values(n + 1, 2)), allocations=allocs,
                avg_throughput=1.0, scheme_tag="proposed")
    harness.write_plan_tables(tmp_path, plan, sc, trace)
    rows = [["proposed", "mission_T", "40", "1.5", 3, "OK", ""],
            ["egoistic", "mission_T", "100", "", "", "INFEASIBLE", "no"]]
    harness.write_summary_table(tmp_path, rows, sweep_param="mission_T")

    dt = sc.uav.delta_t
    want = {
        "trajectory.csv": _csv_module_table(
            ["slot", "t_s", "x_m", "y_m"],
            [[i, i * dt, x, y]
             for i, (x, y) in enumerate(plan.trajectory.waypoints.tolist())]),
        "allocation.csv": _csv_module_table(
            ["slot", "tau_bitmask", "p_w"]
            + [f"q_{j + 1}_w" for j in range(k)] + ["r_bpshz"],
            [[i, sum(1 << j for j, t in enumerate(bits) if t), p, *q, r]
             for i, (bits, p, q, r) in enumerate(
                 zip(tau.tolist(), allocs.p.tolist(), allocs.q.tolist(),
                     allocs.r.tolist()), start=1)]),
        "trace.csv": _csv_module_table(
            ["scheme", "outer_iter", "objective_bpshz"],
            [["proposed", i, v] for i, v in enumerate(trace.outer, start=1)]),
        "summary.csv": _csv_module_table(
            ["scheme", "param", "value", "throughput_bpshz", "iters",
             "status", "nondecreasing_in_T"], rows),
    }
    for name, data in want.items():
        assert (tmp_path / name).read_bytes() == data, name
    masks = [int(line.split(",")[1]) for line in
             read(tmp_path / "allocation.csv").splitlines()[2:5]]
    assert masks == [(1 << k) - 1, 1, 1 << (k - 1)]


def _run_script(name: str, *args: str) -> None:
    """Run scripts/<name> with this package importable; assert exit 0."""
    src = str(Path(uav_ic_planner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr


def test_throughput_script_keeps_defaults_with_extra_flags(tmp_path):
    """Extra flags add to the script's defaults instead of replacing them:
    --out and --schemes alone still sweep the default mission durations."""
    _run_script("run_throughput_vs_T.py", "--out", str(tmp_path),
                "--schemes", "straight_fly")
    rows = read(tmp_path / "summary.csv").splitlines()[2:]
    assert [row.split(",")[:3] for row in rows] == [
        ["straight_fly", "mission_T", t]
        for t in ("40", "60", "80", "100", "120", "150", "200")]
    assert all(row.split(",")[5] == "OK" for row in rows)


def test_boundary_script_writes_each_sweep_under_out(tmp_path):
    """--out DIR puts the duration sweep in DIR/boundary_T and the guarantee
    sweep in DIR/boundary_gamma, so neither summary overwrites the other."""
    _run_script("run_feasibility_boundaries.py", "--out", str(tmp_path))
    for sub, param in (("boundary_T", "mission_T"),
                       ("boundary_gamma", "gamma_all_sites")):
        _, rows = harness._read_table(tmp_path / sub / "summary.csv")
        assert rows and {row[1] for row in rows} == {param}, sub
