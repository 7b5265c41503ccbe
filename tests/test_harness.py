import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uav_ic_planner
from uav_ic_planner import harness
from uav_ic_planner.harness import (EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_IO,
                                    EXIT_OK, SCHEMA_LINE, load_plan, main)
from uav_ic_planner.planner import evaluate_plan, make_plan
from uav_ic_planner.ra_solver import solve_resource_allocation
from uav_ic_planner.sca_trajectory import straight_line_trajectory
from uav_ic_planner.scenario import (DEFAULT_SCENARIO_YAML, default_scenario,
                                     serialize_scenario)

from conftest import random_feasible_scenario


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
    path.write_text(serialize_scenario(bad))
    assert main(["check", "--scenario", str(path)]) == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_plan_infeasible_names_failing_site(tmp_path, capsys):
    sc = default_scenario()
    sites = tuple(dataclasses.replace(s, gamma=6.0) for s in sc.sites)
    bad = dataclasses.replace(sc, sites=sites)
    path = tmp_path / "bad.yaml"
    path.write_text(serialize_scenario(bad))
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


def test_plan_upper_bound_writes_hover_point(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["plan", "--scheme", "upperbound", "--out", str(out),
                 "--grid-step", "10"])
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
    args = ["sweep", "--param", "mission_T", "--values", "40,80",
            "--schemes", "straight_fly,successive_hover_fly"]
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(args + ["--out", str(out1), "--workers", "1"]) == EXIT_OK
    assert main(args + ["--out", str(out2), "--workers", "2"]) == EXIT_OK
    assert read(out1 / "summary.csv") == read(out2 / "summary.csv")


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
