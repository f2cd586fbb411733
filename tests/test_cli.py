"""End-to-end command line behavior on the bundled toy scenarios."""
import csv
import json
import os
import signal
from importlib import resources

import numpy as np
import pytest

from meoflow import allocation
from meoflow.cli import EXIT_SOLVER_FAILED, main
from meoflow.simplex import STATUS_UNBOUNDED, LpSolution, SimplexIterationError


def read_csv(path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


class TestRunCommand:
    def test_toy3_writes_all_outputs(self, tmp_path):
        code = main(["run", "toy3", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "results.csv")
        assert len(rows) == 3  # 1 slot x 3 satellites
        assert set(rows[0]) == {
            "slot",
            "time_utc",
            "satellite",
            "rate_bps",
            "t_star_bps",
            "serving_gs",
            "direct_bps",
            "relayed_bps",
            "degenerate",
        }
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["scenario_name"] == "toy3"
        assert doc["isl_enabled"] is True
        assert len(doc["series"]["rates_bps"]) == 1
        allocs = json.loads((tmp_path / "allocations.json").read_text())
        assert len(allocs) == 1
        assert allocs[0]["slot"] == 0

    def test_bundled_name_with_extension(self, tmp_path):
        assert main(["run", "toy3.json", "--out", str(tmp_path)]) == 0

    def test_no_isl_flag_empties_isl_fractions(self, tmp_path):
        assert main(["run", "toy3", "--no-isl", "--out", str(tmp_path)]) == 0
        allocs = json.loads((tmp_path / "allocations.json").read_text())
        assert all(a["isl_fractions"] == [] for a in allocs)

    def test_degenerate_scenario_exits_3_but_writes(self, tmp_path, capsys):
        code = main(["run", "toy2", "--out", str(tmp_path)])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err
        rows = read_csv(tmp_path / "results.csv")
        assert len(rows) == 8  # 4 slots x 2 satellites
        assert all(r["degenerate"] == "1" for r in rows)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["series"]["degenerate_slots"] == [0, 1, 2, 3]

    def test_seedless_deterministic_degenerate_exits_3(self, tmp_path):
        # the rerun check also covers slots with isolated satellites
        assert main(["run", "toy2", "--seedless-deterministic", "--out", str(tmp_path)]) == 3

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        assert main(["run", "no_such_scenario", "--out", str(tmp_path)]) == 2
        assert "no such scenario" in capsys.readouterr().err

    def test_malformed_scenario_exits_2_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"constellation": {"satellite_count": 2}}))
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "altitude_km" in err or "required" in err

    def test_seedless_deterministic_passes(self, tmp_path):
        assert main(["run", "toy3", "--seedless-deterministic", "--out", str(tmp_path)]) == 0

    def test_summary_reproducible_from_series(self, tmp_path):
        main(["run", "toy3", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "summary.json").read_text())
        import numpy as np

        rates = np.asarray(doc["series"]["rates_bps"], dtype=float)
        for sat in doc["summary"]["per_satellite"]:
            col = rates[:, sat["satellite"]]
            assert sat["mean_bps"] == float(col.mean())
            assert sat["std_bps"] == float(col.std())


class TestCompareCommand:
    def test_toy3_compare_outputs(self, tmp_path):
        code = main(["compare", "toy3", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "compare.json").read_text())
        assert "min_rate_improvement_pct" in doc["comparison"]
        assert doc["comparison"]["min_rate_improvement_pct"] >= -1e-6
        assert len(doc["comparison"]["per_satellite"]) == 3
        rows = read_csv(tmp_path / "compare.csv")
        assert len(rows) == 3
        assert set(rows[0]) == {
            "slot",
            "time_utc",
            "satellite",
            "baseline_bps",
            "treatment_bps",
            "delta_bps",
        }

    def test_compare_deltas_consistent_with_csv(self, tmp_path):
        main(["compare", "toy3", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "compare.json").read_text())
        rows = read_csv(tmp_path / "compare.csv")
        base_min = min(float(r["baseline_bps"]) for r in rows)
        assert doc["comparison"]["baseline_min_bps"] == base_min

    def test_seedless_deterministic_compare(self, tmp_path):
        assert main(["compare", "toy3", "--seedless-deterministic", "--out", str(tmp_path)]) == 0


class TestSolverFailure:
    def test_run_stage1_failure_exits_4_naming_slot_arm_stage(self, tmp_path, capsys, monkeypatch):
        def give_up(problem, max_iterations=None):
            raise SimplexIterationError("simplex exceeded 1 iterations")

        monkeypatch.setattr(allocation, "solve", give_up)
        assert main(["run", "toy3", "--out", str(tmp_path)]) == EXIT_SOLVER_FAILED == 4
        err = capsys.readouterr().err
        assert "slot 0 of the ISL arm, LP stage 1: simplex exceeded 1 iterations" in err
        assert "Traceback" not in err
        assert not (tmp_path / "results.csv").exists()

    def test_compare_stage2_failure_exits_4_naming_slot_arm_stage(self, tmp_path, capsys, monkeypatch):
        cold = allocation.solve

        def unbounded_stage2(problem, max_iterations=None, *, base=None):
            if base is None:
                return cold(problem, max_iterations)
            return LpSolution(STATUS_UNBOUNDED, float("inf"), np.full(problem.n_variables, np.nan), 0)

        monkeypatch.setattr(allocation, "solve", unbounded_stage2)
        assert main(["compare", "toy3", "--out", str(tmp_path)]) == EXIT_SOLVER_FAILED
        err = capsys.readouterr().err
        # the no-ISL baseline arm is solved first
        assert "slot 0 of the no-ISL arm, LP stage 2: LP unbounded" in err
        assert not (tmp_path / "compare.json").exists()

    @pytest.mark.parametrize("command, arm", [("run", "ISL"), ("compare", "no-ISL")])
    def test_stage2_value_error_exits_4_not_2(self, tmp_path, capsys, monkeypatch, command, arm):
        cold = allocation.solve

        def refuse_stage2(problem, max_iterations=None, *, base=None):
            if base is None:
                return cold(problem, max_iterations)
            raise ValueError("the appended row cuts off the base optimum")

        monkeypatch.setattr(allocation, "solve", refuse_stage2)
        assert main([command, "toy3", "--out", str(tmp_path)]) == EXIT_SOLVER_FAILED
        err = capsys.readouterr().err
        assert f"slot 0 of the {arm} arm, LP stage 2: the appended row cuts off" in err
        assert "Traceback" not in err


@pytest.fixture()
def deadline():
    """Fail the test, instead of hanging the suite, after 60 s."""

    def expire(signum, frame):
        raise TimeoutError("no result within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestSolverFailureInWorker:
    """A slot LP failing in a forked worker reports like one failing here."""

    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("command, arm", [("run", "ISL"), ("compare", "no-ISL")])
    def test_exits_4_naming_slot_arm_stage(self, tmp_path, capsys, monkeypatch, deadline, command, arm, stage):
        # four toy3 slots on two cores: this process solves 0-1, a worker 2-3
        data = json.loads((resources.files("meoflow") / "scenarios" / "toy3.json").read_text())
        data["time"]["duration_s"] = 1200
        scenario = tmp_path / "toy3.json"
        scenario.write_text(json.dumps(data))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        build_problem, solve = allocation.build_problem, allocation.solve
        slot = {}

        def note_slot(graph):
            slot["index"] = graph.slot_index
            return build_problem(graph)

        def fail_on_slot_3(problem, max_iterations=None, *, base=None):
            if slot["index"] == 3 and (base is None) == (stage == 1):
                raise SimplexIterationError("simplex exceeded 1 iterations")
            return solve(problem, max_iterations, base=base)

        monkeypatch.setattr(allocation, "build_problem", note_slot)
        monkeypatch.setattr(allocation, "solve", fail_on_slot_3)
        out = tmp_path / "out"
        assert main([command, str(scenario), "--out", str(out)]) == EXIT_SOLVER_FAILED
        err = capsys.readouterr().err
        assert f"error: solver failed on slot 3 of the {arm} arm, LP stage {stage}: simplex exceeded 1 iterations" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestPlotCommand:
    @pytest.fixture()
    def compare_dir(self, tmp_path):
        d = tmp_path / "cmp"
        assert main(["compare", "toy3", "--out", str(d)]) == 0
        return d

    @pytest.fixture()
    def run_dir(self, tmp_path):
        d = tmp_path / "run"
        assert main(["run", "toy3", "--out", str(d)]) == 0
        return d

    def test_timeseries_one_file_per_satellite(self, compare_dir):
        assert main(["plot", str(compare_dir), "timeseries"]) == 0
        files = sorted(compare_dir.glob("timeseries_sat*.svg"))
        assert len(files) == 3
        text = files[0].read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_timeseries_shades_rain_windows(self, compare_dir):
        main(["plot", str(compare_dir), "timeseries"])
        text = (compare_dir / "timeseries_sat0.svg").read_text()
        assert "<rect" in text and "equator0" in text

    def test_histogram_one_file_per_satellite(self, compare_dir):
        assert main(["plot", str(compare_dir), "histogram"]) == 0
        assert len(sorted(compare_dir.glob("histogram_sat*.svg"))) == 3

    def test_rain_attenuation_single_file(self, compare_dir):
        assert main(["plot", str(compare_dir), "rain-attenuation"]) == 0
        text = (compare_dir / "rain_attenuation.svg").read_text()
        assert text.count("<polyline") == 3

    def test_plot_from_single_run_dir(self, run_dir):
        assert main(["plot", str(run_dir), "timeseries"]) == 0
        assert len(sorted(run_dir.glob("timeseries_sat*.svg"))) == 3

    def test_plot_out_redirect(self, compare_dir, tmp_path):
        target = tmp_path / "charts"
        assert main(["plot", str(compare_dir), "histogram", "--out", str(target)]) == 0
        assert len(sorted(target.glob("histogram_sat*.svg"))) == 3

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["plot", str(tmp_path / "empty"), "timeseries"]) == 2

    def test_deterministic_bytes(self, compare_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["plot", str(compare_dir), "timeseries", "--out", str(a)])
        main(["plot", str(compare_dir), "timeseries", "--out", str(b)])
        for f in sorted(a.glob("*.svg")):
            assert f.read_bytes() == (b / f.name).read_bytes()
