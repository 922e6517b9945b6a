import subprocess
import sys

import numpy as np
import pytest

from masec import cli, harness
from masec.cli import (
    EXIT_AUDIT, EXIT_INFEASIBLE, EXIT_OK, EXIT_OPTIMIZER, EXIT_USAGE, load_config, main, parse_grid,
)
from masec.geometry import InfeasibleRegionError
from masec.optimizer import sa_pga

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
        cfg = load_config(None, ["d_min=none", "inner_iter_w=25"])
        assert cfg.d_min is None
        assert cfg.inner_iter_w == 25


class TestParseGrid:
    def test_comma_list(self):
        assert parse_grid("1,2,3,4") == [1.0, 2.0, 3.0, 4.0]

    def test_range_syntax(self):
        grid = parse_grid("2.0:3.5:0.1")
        assert len(grid) == 16
        assert grid[0] == pytest.approx(2.0)
        assert grid[-1] == pytest.approx(3.5)

    def test_bad_grid(self):
        from masec.cli import UsageError

        with pytest.raises(UsageError):
            parse_grid("2.0:3.5")
        with pytest.raises(UsageError):
            parse_grid("a,b")


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
        # Every position step keeps d_min from both spacing neighbours, so an
        # all-movable array never builds an infeasible layout.
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
        # On seed 0 the best solution's own worst user is 2, while the stage
        # that produced it optimized user 0, the incumbent's worst user.
        runs = []

        def recording(*args):
            runs.append(sa_pga(*args))
            return runs[-1]

        monkeypatch.setattr(cli, "sa_pga", recording)
        assert main(["optimize", "--seed", "0", "--out", str(tmp_path)] + DESK) == EXIT_OK
        best = runs[0][0]
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        summary = dict(line.split(" = ") for line in lines if " = " in line)
        assert summary["best_worst_user"] == str(best.report.worst_k) == "2"
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
        ["delta_w=-0.01", "inner_iter_w=0", "inner_iter_t=-3", "beta=2.5", "delta_t=0",
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

        monkeypatch.setattr(cli, "sa_pga", broken)
        rc = main(["optimize", "--out", str(tmp_path)] + LITE)
        assert rc == EXIT_OPTIMIZER
        err = capsys.readouterr().err
        assert "optimizer broke an invariant" in err
        assert "infeasible scenario" not in err

    def test_config_round_trip(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        main(["optimize", "--seed", "5", "--out", str(out1)] + LITE)
        rc = main(["optimize", "--config", str(out1 / "config_used.txt"), "--out", str(out2)])
        assert rc == EXIT_OK
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()


class TestCheckGradCommand:
    def test_single_instance_report(self, capsys):
        rc = main(["check-grad", "--instances", "1", "--seed", "7"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "instances: 1" in out
        assert "PASS" in out

    def test_zero_tolerance_fails(self, capsys):
        rc = main(["check-grad", "--instances", "1", "--seed", "7", "--tolerance", "0"])
        assert rc == EXIT_AUDIT
        assert "FAIL" in capsys.readouterr().out


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

        monkeypatch.setattr(harness, "sa_pga", broken)
        rc = main(["sweep", "--var", "paths", "--grid", "1", "--reps", "1",
                   "--out", str(tmp_path)] + LITE)
        assert rc == EXIT_OPTIMIZER
        err = capsys.readouterr().err
        assert "optimizer broke an invariant" in err
        assert "infeasible scenario" not in err
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
