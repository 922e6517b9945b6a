import csv
import subprocess
import sys

import numpy as np
import pytest

from masec import audit, cli, harness, optimizer
from masec.cli import (
    EXIT_AUDIT, EXIT_INFEASIBLE, EXIT_OK, EXIT_OPTIMIZER, EXIT_USAGE, dump_config, load_config, main, parse_grid,
)
from masec.geometry import InfeasibleRegionError
from masec.harness import ScenarioConfig, SweepResult, build_scenario
from masec.optimizer import TraceRecord, sa_pga
from test_optimizer import NanAfter

LITE = [
    "--set", "i_ter=3", "--set", "m_w=2", "--set", "m_t=2",
    "--set", "inner_iter_w=8", "--set", "inner_iter_t=8",
]
DESK = [
    "--set", "i_ter=8", "--set", "m_w=2", "--set", "m_t=2",
    "--set", "inner_iter_w=40", "--set", "inner_iter_t=60",
]


class TestConfigHandling:
    def test_load_defaults(self):
        cfg = load_config(None, [])
        assert cfg.num_bobs == 5

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nnum_bobs = 3\nnoise = 0.001\narray_kind = ULA\n")
        cfg = load_config(str(path), ["noise=0.002", "freeze_gains=true"])
        assert cfg.num_bobs == 3
        assert cfg.noise == 0.002  # override wins over the file
        assert cfg.array_kind == "ULA"
        assert cfg.freeze_gains is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bandwidth = 10\n")
        from masec.cli import UsageError

        with pytest.raises(UsageError, match="bandwidth"):
            load_config(str(path), [])
        with pytest.raises(UsageError, match="nope"):
            load_config(None, ["nope=1"])

    def test_missing_file_names_path(self):
        from masec.cli import UsageError

        with pytest.raises(UsageError, match="no/such/file.cfg"):
            load_config("no/such/file.cfg", [])

    def test_optional_fields(self):
        cfg = load_config(None, ["d_min=none", "inner_iter_w=25", "inner_iter_t=", "movable="])
        assert cfg.d_min is None and cfg.inner_iter_t is None and cfg.movable is None
        assert cfg.inner_iter_w == 25

    def test_movable_none_reaches_the_layout(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("movable = none\n")
        for cfg in (load_config(None, ["movable=none"]), load_config(str(path), [])):
            assert cfg.movable == "none"
            assert build_scenario(cfg, np.random.default_rng(0)).layout.movable_indices().size == 0

    def test_defaults_yield_to_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("num_antennas = 4\n")
        assert load_config(None, [], num_antennas=6).num_antennas == 6
        assert load_config(str(path), [], num_antennas=6).num_antennas == 4
        assert load_config(str(path), ["num_antennas=9"], num_antennas=6).num_antennas == 9

    @pytest.mark.parametrize("movable", [None, "none", "all", "corners", "0,2"])
    @pytest.mark.parametrize("optional", [{}, {"move_range": 0.05, "d_min": 0.02, "inner_iter_w": 3, "inner_iter_t": 7}])
    def test_dump_load_round_trip(self, tmp_path, movable, optional):
        cfg = ScenarioConfig(movable=movable, freeze_gains=True, seed=3, wavelength=0.1 / 3, **optional)
        path = tmp_path / "config_used.txt"
        dump_config(cfg, path)
        assert load_config(str(path), []) == cfg


class TestParseGrid:
    def test_comma_list(self):
        assert parse_grid("1,2,3,4") == [1.0, 2.0, 3.0, 4.0]

    def test_range_syntax(self):
        grid = parse_grid("2.0:3.5:0.1")
        assert len(grid) == 16
        assert grid[0] == pytest.approx(2.0)
        assert grid[-1] == pytest.approx(3.5) and max(grid) <= 3.5

    @pytest.mark.parametrize(
        "spec, want",
        [
            ("0:1:0.6", [0.0, 0.6]),
            ("0.00025:0.002:0.0005", [0.00025, 0.00075, 0.00125, 0.00175]),
            ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),  # 3 * 0.1 rounds past 0.3
            ("3:3:1", [3.0]),
        ],
    )
    def test_range_stops_at_stop(self, spec, want):
        # A step that does not divide the range ends below stop, never past it.
        grid = parse_grid(spec)
        assert grid == pytest.approx(want, rel=1e-12)
        assert max(grid) <= float(spec.split(":")[1])

    def test_bad_grid(self):
        from masec.cli import UsageError

        with pytest.raises(UsageError):
            parse_grid("2.0:3.5")
        with pytest.raises(UsageError):
            parse_grid("a,b")
        for spec in (",", "", "nan", "1,inf", "-inf", "0:nan:1", "0:inf:1", "0:1:inf"):
            with pytest.raises(UsageError):
                parse_grid(spec)


class TestOptimizeCommand:
    def test_writes_outputs_and_exit_zero(self, tmp_path, capsys):
        rc = main(["optimize", "--seed", "42", "--out", str(tmp_path)] + LITE)
        assert rc == EXIT_OK
        assert (tmp_path / "trace.csv").is_file()
        assert (tmp_path / "summary.txt").is_file()
        assert (tmp_path / "config_used.txt").is_file()
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,objective,accepted,temperature"
        assert len(trace) == 4  # header + i_ter rows

    def test_deterministic_summary(self, tmp_path):
        main(["optimize", "--seed", "42", "--out", str(tmp_path / "a")] + LITE)
        main(["optimize", "--seed", "42", "--out", str(tmp_path / "b")] + LITE)
        assert (tmp_path / "a" / "summary.txt").read_bytes() == (
            tmp_path / "b" / "summary.txt"
        ).read_bytes()

    def test_greedy_trace_nondecreasing(self, tmp_path):
        rc = main(
            ["optimize", "--seed", "3", "--out", str(tmp_path), "--set", "t0=0", "--set", "i_ter=8",
             "--set", "m_w=2", "--set", "m_t=2", "--set", "inner_iter_w=8",
             "--set", "inner_iter_t=8"]
        )
        assert rc == EXIT_OK
        rows = (tmp_path / "trace.csv").read_text().strip().splitlines()[1:]
        accepted_r = [float(r.split(",")[1]) for r in rows if r.split(",")[2] == "1"]
        assert all(b >= a - 1e-12 for a, b in zip(accepted_r, accepted_r[1:]))
        assert all(r.split(",")[3] == "0.0" for r in rows)  # t0 = 0 hill-climbs

    @pytest.mark.parametrize("kind", ["ULA", "UPA"])
    def test_all_movable_arrays_run_feasibly(self, tmp_path, monkeypatch, kind):
        # Every position step keeps every pair of movable antennas d_min
        # apart, so an all-movable array never builds an infeasible layout.
        runs = []

        def recording(scenario, *args):
            runs.append((scenario, sa_pga(scenario, *args)))
            return runs[-1][1]

        monkeypatch.setattr(cli, "sa_pga", recording)
        spec = ["--set", f"array_kind={kind}", "--set", "movable=all"]
        assert main(["optimize", "--seed", "0", "--out", str(tmp_path)] + spec + DESK) == EXIT_OK
        scenario, (best, trace, _) = runs[0]
        assert all(rec.feasible for rec in trace)
        if kind == "ULA":
            # Nine antennas at wavelength/2 fill the 4-wavelength segment: no
            # antenna has room to move beyond the spacing check's slack.
            np.testing.assert_allclose(best.layout.positions, scenario.layout.positions, rtol=0, atol=1e-9)

    def test_summary_names_the_best_solutions_own_pair(self, tmp_path, monkeypatch):
        # On seed 6 the best solution's own worst user is 3, while the stage
        # that produced it optimized user 1, the incumbent's worst user.
        runs = []

        def recording(*args):
            runs.append(sa_pga(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "sa_pga", recording)
        assert main(["optimize", "--seed", "6", "--out", str(tmp_path)] + DESK) == EXIT_OK
        best = runs[0][0]
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        summary = dict(line.split(" = ") for line in lines if " = " in line)
        assert summary["best_worst_user"] == str(best.report.worst_k) == "3"
        assert summary["best_eve_position"] == str(best.report.best_m)

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rc = main(["optimize", "--config", "nowhere.cfg", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "nowhere.cfg" in capsys.readouterr().err

    def test_infeasible_scenario_exit_two(self, tmp_path, capsys):
        rc = main(
            ["optimize", "--out", str(tmp_path), "--set", "eve_half_length=60"] + LITE
        )
        assert rc == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        ["delta_w=-0.01", "delta_w=inf", "inner_iter_w=0", "inner_iter_t=-3", "beta=2.5", "delta_t=0",
         "tau_t=-0.0001", "t0=-1", "move_range=-0.01"],
    )
    def test_bad_tunable_exit_two(self, tmp_path, capsys, bad):
        rc = main(
            ["optimize", "--seed", "0", "--out", str(tmp_path), "--set", "i_ter=3",
             "--set", "inner_iter_w=20", "--set", "inner_iter_t=20", "--set", bad]
        )
        assert rc == EXIT_INFEASIBLE
        assert bad.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_infeasible_iterate_exit_four(self, tmp_path, capsys, monkeypatch):
        # The scenario builds fine; an infeasibility raised inside the
        # optimizer is its own fault, not an infeasible scenario.
        def broken(*args, **kwargs):
            raise InfeasibleRegionError("antenna pair (0, 1) closer than d_min")

        monkeypatch.setattr(optimizer, "pga_t", broken)
        rc = main(["optimize", "--out", str(tmp_path)] + LITE)
        assert rc == EXIT_OPTIMIZER
        err = capsys.readouterr().err
        assert "optimizer broke an invariant" in err
        assert "infeasible scenario" not in err

    def test_beam_stage_value_error_exit_four(self, tmp_path, capsys, monkeypatch):
        # A plain ValueError from a stage, such as Beamformer's power check,
        # is the optimizer's fault too, not a usage error with a traceback.
        def broken(*args, **kwargs):
            raise ValueError("power 1e+09 exceeds budget 1e+09")

        monkeypatch.setattr(optimizer, "pga_w", broken)
        rc = main(["optimize", "--out", str(tmp_path)] + LITE)
        assert rc == EXIT_OPTIMIZER
        err = capsys.readouterr().err
        assert err.startswith("optimizer broke an invariant: power")
        assert not (tmp_path / "trace.csv").exists()

    def test_large_power_budget_runs(self, tmp_path, monkeypatch):
        # At p_max = 1e9 an absolute slack of 1e-9 W lies below the float
        # spacing of the budget, so a projection that lands on it by rounding failed.
        runs = []

        def recording(*args):
            runs.append(sa_pga(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "sa_pga", recording)
        spec = ["--set", "p_max=1e9", "--set", "noise=1e9"]
        assert main(["optimize", "--seed", "0", "--out", str(tmp_path)] + spec + DESK) == EXIT_OK
        _, trace, _ = runs[0]
        assert len(trace) == 8 and all(rec.feasible for rec in trace)

    def test_config_round_trip(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        main(["optimize", "--seed", "5", "--out", str(out1)] + LITE)
        rc = main(["optimize", "--config", str(out1 / "config_used.txt"), "--out", str(out2)])
        assert rc == EXIT_OK
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()


PHYSICS = (
    "wavelength", "bob_dist_min", "bob_dist_max", "eve_distance", "eve_half_length",
    "p_max", "noise", "g0_db", "alpha", "move_range", "d_min",
)


class TestStagesCsv:
    # stages.csv: per iteration the beam stage's row, then one row per
    # movable antenna in visiting order, each with its steps and stop.
    def _optimize(self, tmp_path, monkeypatch, *extra):
        runs = []

        def recording(*args):
            runs.append(sa_pga(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "sa_pga", recording)
        assert main(["optimize", "--seed", "1", "--out", str(tmp_path)] + LITE + list(extra)) == EXIT_OK
        text = (tmp_path / "stages.csv").read_text()
        assert text.splitlines()[0] == "iter,user,eve,stage,antenna,steps,stop"
        with open(tmp_path / "stages.csv", newline="") as fh:
            return list(csv.DictReader(fh)), runs[0][1]

    def test_one_beam_row_then_one_row_per_movable_antenna(self, tmp_path, monkeypatch):
        rows, trace = self._optimize(tmp_path, monkeypatch)
        assert len(rows) == 3 * (1 + 4)  # i_ter x (beam + the MA grid's four corners)
        for rec, block in zip(trace, (rows[i:i + 5] for i in range(0, len(rows), 5))):
            assert {(r["iter"], r["user"], r["eve"]) for r in block} == {(str(rec.iteration), str(rec.user), str(rec.eve))}
            assert [(r["stage"], r["antenna"]) for r in block] == [("w", ""), ("t", "0"), ("t", "2"), ("t", "6"), ("t", "8")]
            assert [int(r["steps"]) for r in block] == [rec.w_steps, *rec.t_steps]
            assert [r["stop"] for r in block] == [rec.w_stop, *rec.t_stops]
            assert {r["stop"] for r in block} <= {"tau", "cap"}

    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        self._optimize(tmp_path / "a", monkeypatch)
        self._optimize(tmp_path / "b", monkeypatch)
        assert (tmp_path / "a" / "stages.csv").read_bytes() == (tmp_path / "b" / "stages.csv").read_bytes()

    def test_cap_bound_stages_read_cap(self, tmp_path, monkeypatch):
        rows, _ = self._optimize(tmp_path, monkeypatch, "--set", "tau_w=0", "--set", "tau_t=0")
        assert len(rows) == 15
        assert all((r["steps"], r["stop"]) == ("8", "cap") for r in rows)

    def test_movable_none_has_beam_rows_only(self, tmp_path, monkeypatch):
        rows, _ = self._optimize(tmp_path, monkeypatch, "--set", "movable=none")
        assert [(r["iter"], r["stage"], r["antenna"]) for r in rows] == [(str(i), "w", "") for i in range(3)]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_gains_read_nonfinite(self, tmp_path, monkeypatch):
        # NaN gains from the 20th draw on: every later stage stops at its first draw.
        make = harness.Scenario.gain_sampler
        monkeypatch.setattr(harness.Scenario, "gain_sampler", lambda self, rng: NanAfter(make(self, rng), 20))
        rows, _ = self._optimize(tmp_path, monkeypatch)
        stops = [r["stop"] for r in rows]
        first = stops.index("nonfinite")
        assert first > 0 and set(stops[first:]) == {"nonfinite"}
        assert all(r["steps"] == "0" for r in rows[first + 1:])


class TestNonFinitePhysics:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("name", PHYSICS)
    def test_exit_two_without_traceback(self, tmp_path, capsys, name, value):
        rc = main(["optimize", "--out", str(tmp_path), "--set", f"{name}={value}"] + LITE)
        err = capsys.readouterr().err
        assert rc == EXIT_INFEASIBLE
        assert err.startswith("infeasible scenario:")
        assert "Traceback" not in err
        assert not (tmp_path / "trace.csv").exists()


class TestUsageErrors:
    def assert_usage_error(self, argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [["optimize"], ["check-grad"], ["onedsearch"], ["sweep", "--var", "paths", "--grid", "1"]],
    )
    def test_negative_seed_option(self, capsys, command):
        rc = main(command + ["--seed", "-1"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: seed must be nonnegative")
        assert "Traceback" not in err

    def test_negative_seed_in_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed = -3\n")
        self.assert_usage_error(["optimize", "--config", str(path), "--out", str(tmp_path)], capsys)

    @pytest.mark.parametrize("grid", [",", "nan", "inf"])
    def test_empty_or_non_finite_grid(self, tmp_path, capsys, grid):
        argv = ["sweep", "--var", "paths", "--grid", grid, "--reps", "1", "--out", str(tmp_path)]
        self.assert_usage_error(argv, capsys)
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("grid", ["1.5,2.5", "2,2.5", "0.5"])
    def test_fractional_paths(self, tmp_path, capsys, monkeypatch, grid):
        # 1.5 and 2.5 both used to run with two paths under their own labels.
        reps = []
        monkeypatch.setattr(cli, "run_sweep", lambda *args: reps.append(args))
        argv = ["sweep", "--var", "paths", "--grid", grid, "--reps", "1", "--out", str(tmp_path)]
        self.assert_usage_error(argv, capsys)
        assert reps == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_check_grad_refuses_out(self, tmp_path, capsys):
        # The audit writes no file, so it offers no output directory.
        self.assert_usage_error(["check-grad", "--instances", "1", "--out", str(tmp_path / "x")], capsys)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf", "-inf"])
    def test_check_grad_tolerance_not_positive_finite(self, capsys, tolerance):
        self.assert_usage_error(["check-grad", "--instances", "1", "--tolerance", tolerance], capsys)

    @pytest.mark.parametrize(
        "command",
        [["optimize"], ["onedsearch"], ["sweep", "--var", "paths", "--grid", "1", "--reps", "1"]],
    )
    def test_out_under_a_file_fails_before_any_solve(self, tmp_path, capsys, monkeypatch, command):
        def solver(*args, **kwargs):
            raise AssertionError("solver ran before the output directory was made")

        for name in ("build_scenario", "sa_pga", "run_sweep", "one_dim_search"):
            monkeypatch.setattr(cli, name, solver)
        (tmp_path / "file").write_text("")
        self.assert_usage_error(command + ["--out", str(tmp_path / "file" / "sub")], capsys)


class TestCheckGradCommand:
    def test_single_instance_report(self, capsys):
        rc = main(["check-grad", "--instances", "1", "--seed", "7"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "instances: 1" in out
        assert "PASS" in out

    def test_tiny_tolerance_fails(self, capsys):
        rc = main(["check-grad", "--instances", "1", "--seed", "7", "--tolerance", "1e-300"])
        assert rc == EXIT_AUDIT
        assert "FAIL" in capsys.readouterr().out

    def test_audits_instances_of_the_config(self, monkeypatch, capsys):
        # Every audited instance has the overridden shapes: N antennas, K users,
        # M virtual Eves and L paths per link, and its audit passes.
        shapes = []
        make = audit.random_instance

        def spy(*args, **kwargs):
            ws, W = make(*args, **kwargs)
            shapes.append((ws.num_antennas, W.w.shape[1], len(ws.eve_rx), ws.bob_sigma.shape[1]))
            return ws, W

        monkeypatch.setattr(audit, "random_instance", spy)
        overrides = ["--set", "num_bobs=1", "--set", "num_paths=1", "--set", "num_antennas=4", "--set", "num_eves=1"]
        assert main(["check-grad", "--instances", "5", *overrides]) == EXIT_OK
        assert shapes == [(4, 1, 1, 1)] * 5
        assert capsys.readouterr().out.count("PASS") == 2

    @pytest.mark.parametrize("key", ["array_kind=ULA", "movable=all", "move_range=0.5", "d_min=0.01"])
    def test_layout_keys_are_refused(self, monkeypatch, capsys, key):
        # The audit places its antennas at random, so a layout key would change nothing.
        calls = []
        monkeypatch.setattr(cli, "run_fd_audit", lambda **kwargs: calls.append(kwargs))
        assert main(["check-grad", "--instances", "3", "--set", key]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and key.split("=")[0] in captured.err
        assert calls == [] and captured.out == ""

    def test_solver_keys_are_accepted(self, capsys):
        # Solver tunables do not enter a gradient, so they are no reason to refuse.
        assert main(["check-grad", "--instances", "3", "--set", "i_ter=1", "--set", "delta_w=0.5"]) == EXIT_OK
        assert capsys.readouterr().out.count("PASS") == 2

    def test_nan_error_fails(self, monkeypatch, capsys):
        # One NaN position gradient among five instances fails the audit.
        kernel, calls = audit.grad_t_batch, []

        def nan_on_third(*args):
            calls.append(None)
            return kernel(*args) * (np.nan if len(calls) == 3 else 1.0)

        monkeypatch.setattr(audit, "grad_t_batch", nan_on_third)
        assert main(["check-grad", "--instances", "5", "--seed", "0"]) == EXIT_AUDIT
        beam, position = capsys.readouterr().out.splitlines()[1:]
        assert beam.endswith("PASS")
        assert "error nan " in position and position.endswith("FAIL")


class TestSweepCommand:
    def test_row_count_and_determinism(self, tmp_path):
        args = ["sweep", "--var", "paths", "--grid", "1,2", "--reps", "2", "--seed", "9"] + LITE
        rc = main(args + ["--out", str(tmp_path / "a")])
        assert rc == EXIT_OK
        rows = (tmp_path / "a" / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 3
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    def test_gnuplot_stub(self, tmp_path):
        rc = main(
            ["sweep", "--var", "noise", "--grid", "0.0005", "--reps", "1", "--gnuplot",
             "--out", str(tmp_path)] + LITE
        )
        assert rc == EXIT_OK
        assert "plot" in (tmp_path / "sweep.gp").read_text()

    def test_gnuplot_stub_stands_alone(self, tmp_path, monkeypatch):
        # The stub sits beside sweep.csv and names it by file name alone, so
        # every output directory gets the same stub.
        monkeypatch.setattr(cli, "run_sweep", lambda *args: [])
        stubs = []
        for out in (tmp_path / "a", tmp_path / "deeper" / "b"):
            argv = ["sweep", "--var", "paths", "--grid", "2", "--reps", "1", "--gnuplot", "--out", str(out)]
            assert main(argv) == EXIT_OK
            stubs.append((out / "sweep.gp").read_bytes())
        assert stubs[0] == stubs[1]
        assert b"'sweep.csv'" in stubs[0] and str(tmp_path).encode() not in stubs[0]

    @pytest.mark.parametrize("key", ["array_kind=ULA", "array_kind=UPA", "movable=all", "movable=0,2"])
    def test_keys_each_method_sets_are_refused(self, tmp_path, capsys, monkeypatch, key):
        # Each method runs its own array kind and movable set, so another
        # value would be recorded in config_used.txt without being run.
        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda *args: calls.append(args) or [])
        out = tmp_path / "out"
        rc = main(["sweep", "--var", "paths", "--grid", "2", "--reps", "2", "--set", key, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error:") and key.split("=")[0] in err
        assert calls == [] and not out.exists()

    def test_default_array_kind_is_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", lambda *args: [])
        argv = ["sweep", "--var", "paths", "--grid", "2", "--reps", "1", "--set", "array_kind=MA"]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
        assert "array_kind = MA" in (tmp_path / "config_used.txt").read_text()

    def test_infeasible_scenario_exit_two(self, tmp_path, capsys):
        rc = main(["sweep", "--var", "paths", "--grid", "1", "--reps", "1",
                   "--out", str(tmp_path), "--set", "eve_half_length=60"] + LITE)
        assert rc == EXIT_INFEASIBLE
        assert "infeasible scenario" in capsys.readouterr().err

    def test_infeasible_iterate_exit_four(self, tmp_path, capsys, monkeypatch):
        # The scenarios build fine; an infeasibility raised inside the
        # optimizer during a sweep is its own fault, as for `optimize`.
        def broken(*args, **kwargs):
            raise InfeasibleRegionError("antenna pair (0, 1) closer than d_min")

        monkeypatch.setattr(optimizer, "pga_t", broken)
        rc = main(["sweep", "--var", "paths", "--grid", "1", "--reps", "1",
                   "--out", str(tmp_path)] + LITE)
        assert rc == EXIT_OPTIMIZER
        err = capsys.readouterr().err
        assert "optimizer broke an invariant" in err
        assert "infeasible scenario" not in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "case",
        [["--var", "distance", "--grid", "50,1.5"],  # the second point breaks the patch rule
         ["--var", "paths", "--grid", "1,2", "--set", "move_range=0.01"]],  # the ULA does not fit
        ids=["patch", "layout"],
    )
    def test_bad_point_or_layout_refused_before_any_solve(self, tmp_path, capsys, monkeypatch, case):
        calls = []

        def spy(*args):
            calls.append(args)
            return sa_pga(*args)

        monkeypatch.setattr(harness, "sa_pga", spy)
        rc = main(["sweep", "--reps", "2", "--out", str(tmp_path)] + case + LITE)
        assert rc == EXIT_INFEASIBLE
        assert "infeasible scenario" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_bad_reps_usage_error(self, tmp_path):
        rc = main(["sweep", "--var", "paths", "--grid", "1", "--reps", "0",
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE


class TestOneDimSearchCommand:
    def test_table_shape_and_dominance(self, tmp_path):
        rc = main(["onedsearch", "--seed", "11", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = (tmp_path / "onedsearch.csv").read_text().strip().splitlines()
        assert rows[0] == "mode,antennas_moved,secrecy,baseline"
        body = [r.split(",") for r in rows[1:]]
        assert len(body) == 12  # 6 move-all rows + 6 move-parts rows
        all_rows = {int(r[1]): float(r[2]) for r in body if r[0] == "move_all"}
        parts_rows = {int(r[1]): float(r[2]) for r in body if r[0] == "move_parts"}
        baseline = float(body[0][3])
        for c in range(1, 7):
            assert parts_rows[c] >= all_rows[c]
            assert all_rows[c] >= baseline

    def test_config_round_trip(self, tmp_path):
        # The dump records the six-antenna default and the seed, so the rerun needs neither.
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["onedsearch", "--seed", "11", "--out", str(out1)]) == EXIT_OK
        config = (out1 / "config_used.txt").read_text().splitlines()
        assert "num_antennas = 6" in config and "seed = 11" in config
        # It records the all-movable ULA the search ran, not the config's default array.
        assert "array_kind = ULA" in config and "movable = all" in config
        assert main(["onedsearch", "--config", str(out1 / "config_used.txt"), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "onedsearch.csv").read_bytes() == (out2 / "onedsearch.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["MA", "ULA", "UPA"])
    def test_d_min_the_slots_cannot_keep_exits_two(self, tmp_path, capsys, kind):
        argv = ["onedsearch", "--seed", "11", "--set", "d_min=0.01", "--set", f"array_kind={kind}"]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_INFEASIBLE
        assert "d_min" in capsys.readouterr().err


class TestSerialization:
    """The CSV files, written from hand-made records through ``main``."""

    def sweep(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(cli, "run_sweep", lambda *args: rows)
        rc = main(["sweep", "--var", "alpha", "--grid", "2.1", "--reps", "7", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        return tmp_path / "sweep.csv"

    def test_empty_results_header_only(self, tmp_path, monkeypatch):
        text = self.sweep(tmp_path, monkeypatch, []).read_text()
        assert text.strip() == (
            "sweep_var,sweep_value,method,rep_count,mean_secrecy,"
            "mean_bob_capacity,mean_eve_capacity,seed_base"
        )

    def test_single_row(self, tmp_path, monkeypatch):
        row = SweepResult("paths", 3.0, "MA", 5, 0.123, 1.5, 0.9, 42)
        lines = self.sweep(tmp_path, monkeypatch, [row]).read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1] == "paths,3.0,MA,5,0.123,1.5,0.9,42"

    def test_round_trip(self, tmp_path, monkeypatch):
        rows = [
            SweepResult("alpha", 2.1, "MA", 7, 0.1234567890123, 1.1, 0.2, 3),
            SweepResult("alpha", 2.1, "ULA", 7, 0.0333333333333333, 1.0, 0.5, 3),
        ]
        path = self.sweep(tmp_path, monkeypatch, rows)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == cli.SWEEP_CSV_HEADER.split(",")
            parsed = [
                SweepResult(
                    row[0], float(row[1]), row[2], int(row[3]),
                    float(row[4]), float(row[5]), float(row[6]), int(row[7]),
                )
                for row in reader
            ]
        assert parsed == rows  # every float parses back exactly

    def test_trace_schema(self, tmp_path, monkeypatch):
        trace = [
            TraceRecord(0, 0.5, True, 1.0, 0.01, True, 0.0, True),
            TraceRecord(1, 0.4, False, 0.9, 0.01, False, 0.0, True, nonfinite=True),
        ]
        monkeypatch.setattr(cli, "sa_pga", lambda scenario, *args: (scenario.initial, trace, 0.9))
        assert main(["optimize", "--out", str(tmp_path)] + LITE) == EXIT_OK
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,objective,accepted,temperature"
        assert lines[1] == "0,0.5,1,1.0"
        assert lines[2] == "1,0.4,0,0.9"

    def test_write_error_names_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", lambda *args: [])
        (tmp_path / "sweep.csv").mkdir()
        rc = main(["sweep", "--var", "paths", "--grid", "1", "--reps", "1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error:") and "sweep.csv" in err
        assert "Traceback" not in err

    def test_every_csv_line_ends_in_crlf(self, tmp_path):
        runs = {
            "trace.csv": ["optimize", "--seed", "1"] + LITE,
            "sweep.csv": ["sweep", "--var", "paths", "--grid", "1", "--reps", "1"] + LITE,
            "onedsearch.csv": ["onedsearch", "--seed", "11"],
        }
        for name, argv in runs.items():
            out = tmp_path / name.split(".")[0]
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            data = (out / name).read_bytes()
            assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n") > 1, name


class TestEntryPoints:
    def test_usage_error_exit_code(self):
        assert main(["sweep", "--grid", "1"]) == EXIT_USAGE  # --var missing
        assert main(["optimize", "--set", "oops"]) == EXIT_USAGE

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "masec", "check-grad", "--instances", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
