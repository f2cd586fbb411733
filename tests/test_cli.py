"""End-to-end command line behavior on the bundled toy scenarios."""
import csv
import hashlib
import json
import os
import signal
import subprocess
import sys
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import meoflow
from meoflow import allocation, cli, engine
from meoflow.cli import EXIT_SOLVER_FAILED, main
from meoflow.engine import run_arms
from meoflow.simplex import SimplexIterationError
from test_slot_range import bundled


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

    @pytest.mark.parametrize("change", ["w", "v", "split"])
    def test_seedless_deterministic_rerun_that_differs_exits_1(self, tmp_path, capsys, monkeypatch, change):
        # the rerun halves one relayed fraction of satellite 0 (w or v), or
        # moves 1 bit/s of its rate from direct to relayed; summary.json is
        # the same either way, allocations.json or results.csv is not
        results = []

        def rerun_differs(scenario, arms):
            results.extend(run_arms(scenario, arms))
            if len(results) == 2:
                if change == "split":
                    results[1].direct_bps[0, 0] += 1.0
                    results[1].relayed_bps[0, 0] -= 1.0
                else:
                    getattr(results[1].allocations[0], change)[0, 1, 1] /= 2
            return results[-1:]

        monkeypatch.setattr(cli, "run_arms", rerun_differs)
        out = tmp_path / "out"
        assert main(["run", "toy3", "--seedless-deterministic", "--out", str(out)]) == 1
        assert "rerun produced different results" in capsys.readouterr().err
        assert len(results) == 2 and not out.exists()

    def test_summary_reproducible_from_series(self, tmp_path):
        main(["run", "toy3", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "summary.json").read_text())
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

    def test_no_usable_slot_exits_2_writing_nothing(self, tmp_path, capsys):
        # every toy2 slot is degenerate, so there is no baseline minimum to compare against
        out = tmp_path / "out"
        assert main(["compare", "toy2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: no non-degenerate slots to compare\n"
        assert not out.exists()


class TestSolverFailure:
    def test_run_stage1_failure_exits_4_naming_slot_arm_stage(self, tmp_path, capsys, monkeypatch):
        def give_up(problems, max_iterations=None, *, bases=None):
            return [SimplexIterationError("simplex exceeded 1 iterations") for _ in problems]

        monkeypatch.setattr(allocation, "solve_batch", give_up)
        assert main(["run", "toy3", "--out", str(tmp_path)]) == EXIT_SOLVER_FAILED == 4
        err = capsys.readouterr().err
        assert "slot 0 of the ISL arm, LP stage 1: simplex exceeded 1 iterations" in err
        assert "Traceback" not in err
        assert not (tmp_path / "results.csv").exists()

    def test_compare_stage2_failure_exits_4_naming_slot_arm_stage(self, tmp_path, capsys, monkeypatch):
        cold = allocation.solve_batch

        def unbounded_stage2(problems, max_iterations=None, *, bases=None):
            if bases is None:
                return cold(problems, max_iterations)
            return [ValueError("LP unbounded") for _ in problems]

        monkeypatch.setattr(allocation, "solve_batch", unbounded_stage2)
        assert main(["compare", "toy3", "--out", str(tmp_path)]) == EXIT_SOLVER_FAILED
        err = capsys.readouterr().err
        # the no-ISL baseline arm is solved first
        assert "slot 0 of the no-ISL arm, LP stage 2: LP unbounded" in err
        assert not (tmp_path / "compare.json").exists()

    @pytest.mark.parametrize("command, arm", [("run", "ISL"), ("compare", "no-ISL")])
    def test_stage2_value_error_exits_4_not_2(self, tmp_path, capsys, monkeypatch, command, arm):
        cold = allocation.solve_batch

        def refuse_stage2(problems, max_iterations=None, *, bases=None):
            if bases is None:
                return cold(problems, max_iterations)
            return [ValueError("the appended row cuts off the base optimum") for _ in problems]

        monkeypatch.setattr(allocation, "solve_batch", refuse_stage2)
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


def four_toy3_slots_on_two_cores(tmp_path, monkeypatch):
    """A toy3 file of four slots, run as on two cores: this process solves
    slots 0-1, a forked worker 2-3."""
    data = bundled("toy3")
    data["time"]["duration_s"] = 1200
    scenario = tmp_path / "toy3.json"
    scenario.write_text(json.dumps(data))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return scenario


class TestSolverFailureInWorker:
    """A slot LP failing in a forked worker reports like one failing here."""

    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("command, arm", [("run", "ISL"), ("compare", "no-ISL")])
    def test_exits_4_naming_slot_arm_stage(self, tmp_path, capsys, monkeypatch, deadline, command, arm, stage):
        scenario = four_toy3_slots_on_two_cores(tmp_path, monkeypatch)
        build_chunks, solve_batch = allocation.build_chunks, allocation.solve_batch
        slot_of = {}  # by the id of a problem's tags, which stage 2's problem shares with stage 1's

        def note_slot(graphs):
            for group in build_chunks(graphs):
                for graph, problem, _ in group:
                    slot_of[id(problem.variable_tags)] = graph.slot_index
                yield group

        def fail_on_slot_3(problems, max_iterations=None, *, bases=None):
            outcomes = solve_batch(problems, max_iterations, bases=bases)
            if (bases is None) == (stage == 1):
                for i, problem in enumerate(problems):
                    if slot_of[id(problem.variable_tags)] == 3:
                        outcomes[i] = SimplexIterationError("simplex exceeded 1 iterations")
            return outcomes

        monkeypatch.setattr(allocation, "build_chunks", note_slot)
        monkeypatch.setattr(allocation, "solve_batch", fail_on_slot_3)
        out = tmp_path / "out"
        assert main([command, str(scenario), "--out", str(out)]) == EXIT_SOLVER_FAILED
        err = capsys.readouterr().err
        assert f"error: solver failed on slot 3 of the {arm} arm, LP stage {stage}: simplex exceeded 1 iterations" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, arm", [("run", "ISL"), ("compare", "no-ISL")])
    def test_worker_that_dies_exits_4_naming_slots_and_arm(self, tmp_path, capsys, monkeypatch, deadline, command, arm):
        scenario = four_toy3_slots_on_two_cores(tmp_path, monkeypatch)
        parent = os.getpid()
        solve_slots = engine._solve_slots

        def dies_in_worker(scenario, isl_enabled, slots):
            if os.getpid() != parent:
                os._exit(7)
            return solve_slots(scenario, isl_enabled, slots)

        monkeypatch.setattr(engine, "_solve_slots", dies_in_worker)
        out = tmp_path / "out"
        assert main([command, str(scenario), "--out", str(out)]) == EXIT_SOLVER_FAILED
        err = capsys.readouterr().err
        assert f"error: worker for slots 2-3 exited with code 7 and no result, in the {arm} arm" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestOneForkPerCommand:
    """compare forks its workers once for both arms: every process solves
    its slot range for the no-ISL arm, then for the ISL arm."""

    @staticmethod
    def count_forks(monkeypatch):
        fork, forks = os.fork, []

        def counted():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return forks

    @pytest.mark.parametrize("rerun", [False, True])
    def test_two_core_compare_forks_once_and_writes_what_one_process_does(self, tmp_path, monkeypatch, deadline, rerun):
        flags = ["--seedless-deterministic"] if rerun else []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["compare", "o3b_rain", "--out", str(tmp_path / "one"), *flags]) == 0
        forks = self.count_forks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert main(["compare", "o3b_rain", "--out", str(tmp_path / "two"), *flags]) == 0
        assert len(forks) == (2 if rerun else 1)  # the rerun forks once more
        for name in ("compare.json", "compare.csv"):
            assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_worker_that_dies_in_the_second_arm_names_the_isl_arm(self, tmp_path, capsys, monkeypatch, deadline):
        scenario = four_toy3_slots_on_two_cores(tmp_path, monkeypatch)
        parent = os.getpid()
        solve_slots = engine._solve_slots

        def dies_in_isl_arm(scenario, isl_enabled, slots):
            if os.getpid() != parent and isl_enabled:
                os._exit(7)
            return solve_slots(scenario, isl_enabled, slots)

        monkeypatch.setattr(engine, "_solve_slots", dies_in_isl_arm)
        forks = self.count_forks(monkeypatch)
        out = tmp_path / "out"
        assert main(["compare", str(scenario), "--out", str(out)]) == EXIT_SOLVER_FAILED
        err = capsys.readouterr().err
        assert "error: worker for slots 2-3 exited with code 7 and no result, in the ISL arm" in err
        assert len(forks) == 1 and not out.exists()

    @pytest.mark.parametrize(
        "planted, reported",
        [
            ({(1, True), (3, False)}, "slot 3 of the no-ISL arm"),  # the first arm first, whatever the process
            ({(1, False), (3, False)}, "slot 1 of the no-ISL arm"),  # then the lowest slot
            ({(3, False), (1, True), (3, True)}, "slot 3 of the no-ISL arm"),
            ({(1, True), (3, True)}, "slot 1 of the ISL arm"),
        ],
    )
    def test_first_arm_then_lowest_slot_is_reported(self, tmp_path, capsys, monkeypatch, deadline, planted, reported):
        # slots 0-1 are solved here, 2-3 in the worker
        scenario = four_toy3_slots_on_two_cores(tmp_path, monkeypatch)
        solve_slots = engine._solve_slots

        def fails_where_planted(scenario, isl_enabled, slots):
            for slot in slots:
                if (slot, isl_enabled) in planted:
                    raise allocation.AllocationError(slot, 1, "planted")
            return solve_slots(scenario, isl_enabled, slots)

        monkeypatch.setattr(engine, "_solve_slots", fails_where_planted)
        assert main(["compare", str(scenario), "--out", str(tmp_path / "out")]) == EXIT_SOLVER_FAILED
        assert f"error: solver failed on {reported}, LP stage 1: planted" in capsys.readouterr().err


class TestHistogramBound:
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_rate_past_the_bin_bound_exits_2_writing_nothing(self, tmp_path, capsys, command):
        # an accepted 3 THz, 100 dBW budget gives 1.1e13 bit/s: 2.2 million
        # 5 Mbit/s bins per satellite, refused before any is allocated
        data = bundled("toy3")
        data["feeder_link"] = {"bandwidth_hz": 3e12, "eirp_dbw": 100.0}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: histogram top ")
        assert not out.exists()

    def test_plot_histogram_past_the_bin_bound_exits_2(self, tmp_path, capsys):
        results = tmp_path / "run"
        assert main(["run", "toy3", "--out", str(results)]) == 0
        doc = json.loads((results / "summary.json").read_text())
        doc["series"]["rates_bps"][0][0] = 1e15
        (results / "summary.json").write_text(json.dumps(doc))
        assert main(["plot", str(results), "histogram"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {results}: results unreadable: ValueError('histogram top ")
        assert not list(results.glob("*.svg"))

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_refusal_of_run_and_compare_names_bit_per_second(self, tmp_path, capsys, command):
        data = bundled("toy3")
        data["feeder_link"] = {"bandwidth_hz": 3e12, "eirp_dbw": 100.0}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
        assert " bit/s needs more than 100000 bins of 5e+06 bit/s\n" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [None, "charts"])
    def test_plot_refused_at_a_later_satellite_writes_nothing(self, tmp_path, capsys, out):
        # satellites 0 and 1 are drawn before satellite 2's rate is refused
        results = tmp_path / "run"
        assert main(["run", "toy3", "--out", str(results)]) == 0
        doc = json.loads((results / "summary.json").read_text())
        doc["series"]["rates_bps"][0][2] = 1e15
        (results / "summary.json").write_text(json.dumps(doc))
        redirect = ["--out", str(tmp_path / out)] if out else []
        assert main(["plot", str(results), "histogram", *redirect]) == 2
        assert "histogram top 1e+09 Mbit/s needs more than 100000 bins of 5 Mbit/s" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.svg"))
        assert out is None or not (tmp_path / out).exists()


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

    def test_every_chart_is_well_formed_xml_with_markup_in_a_station_id(self, tmp_path):
        # the rained station's id reaches the rain window's <title> as text
        text = (resources.files("meoflow") / "scenarios" / "toy3.json").read_text()
        scenario = tmp_path / "toy3.json"
        scenario.write_text(text.replace('"equator0"', json.dumps("A&B <1>")))
        assert main(["compare", str(scenario), "--out", str(tmp_path)]) == 0
        for kind in ("timeseries", "histogram", "rain-attenuation"):
            assert main(["plot", str(tmp_path), kind]) == 0
        charts = sorted(tmp_path.glob("*.svg"))
        assert len(charts) == 7
        titles = [el.text for chart in charts for el in ElementTree.parse(chart).iter("{http://www.w3.org/2000/svg}title")]
        assert "A&B <1> 16.5 mm/h" in titles

    def test_plot_from_single_run_dir(self, run_dir):
        assert main(["plot", str(run_dir), "timeseries"]) == 0
        assert len(sorted(run_dir.glob("timeseries_sat*.svg"))) == 3

    def test_plot_out_redirect(self, compare_dir, tmp_path):
        target = tmp_path / "charts"
        assert main(["plot", str(compare_dir), "histogram", "--out", str(target)]) == 0
        assert len(sorted(target.glob("histogram_sat*.svg"))) == 3

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["plot", str(tmp_path / "empty"), "timeseries"]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.pop("series"),
            lambda doc: doc["series"].update(degenerate_slots=[5]),
            lambda doc: doc["series"].update(rates_bps=[]),
            lambda doc: doc["series"].update(degenerate_slots=[-1]),
            lambda doc: doc["series"].update(degenerate_slots=[len(doc["series"]["times_s"])]),
            lambda doc: doc["series"].update(degenerate_slots=[True]),
        ],
        ids=[
            "no_series",
            "degenerate_slot_past_the_horizon",
            "no_rates",
            "negative_degenerate_slot",
            "degenerate_slot_at_slot_count",
            "bool_degenerate_slot",
        ],
    )
    def test_unreadable_results_exit_2(self, run_dir, capsys, edit):
        summary = run_dir / "summary.json"
        doc = json.loads(summary.read_text())
        assert len(doc["series"]["times_s"]) == 1  # toy3 is a one-slot run
        edit(doc)
        summary.write_text(json.dumps(doc))
        assert main(["plot", str(run_dir), "histogram"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {run_dir}: results unreadable: ")

    @pytest.mark.parametrize("kind", ["timeseries", "histogram"])
    @pytest.mark.parametrize("change", [lambda rows: rows[:-1], lambda rows: rows + rows[-1:]], ids=["shorter", "longer"])
    @pytest.mark.parametrize(
        "name, key",
        [
            ("summary.json", "times_s"),
            ("summary.json", "rates_bps"),
            ("summary.json", "t_star_bps"),
            ("compare.json", "times_s"),
            ("compare.json", "baseline_rates_bps"),
            ("compare.json", "treatment_rates_bps"),
            ("compare.json", "baseline_t_star_bps"),
            ("compare.json", "treatment_t_star_bps"),
        ],
    )
    def test_series_length_mismatch_exits_2(self, run_dir, compare_dir, capsys, kind, change, name, key):
        # a times_s cut short used to draw truncated polylines with exit 0
        results = run_dir if name == "summary.json" else compare_dir
        doc = json.loads((results / name).read_text())
        doc["series"][key] = change(doc["series"][key])
        (results / name).write_text(json.dumps(doc))
        assert main(["plot", str(results), kind]) == 2
        assert capsys.readouterr().err.startswith(f"error: {results}: results unreadable: ")
        assert not list(results.glob("*.svg"))

    @pytest.mark.parametrize("kind", ["timeseries", "histogram"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("key", ["times_s", "rates_bps", "t_star_bps", "baseline_rates_bps", "treatment_t_star_bps"])
    def test_non_finite_series_value_exits_2(self, run_dir, compare_dir, capsys, kind, value, key):
        # an Infinity rate used to end histogram in an OverflowError (exit 1)
        # and draw nan coordinates into a timeseries with exit 0
        results = run_dir if key in ("times_s", "rates_bps", "t_star_bps") else compare_dir
        name = "summary.json" if results == run_dir else "compare.json"
        doc = json.loads((results / name).read_text())
        rows = doc["series"][key]
        if isinstance(rows[0], list):
            rows[0][-1] = value
        else:
            rows[0] = value
        (results / name).write_text(json.dumps(doc))
        assert main(["plot", str(results), kind]) == 2
        assert capsys.readouterr().err.startswith(f"error: {results}: results unreadable: ")
        assert not list(results.glob("*.svg"))

    def test_corrupt_summary_exits_2(self, run_dir, capsys):
        summary = run_dir / "summary.json"
        summary.write_text(summary.read_text()[:-10])
        assert main(["plot", str(run_dir), "histogram"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {run_dir}: results unreadable: ")

    def test_corrupt_compare_beside_valid_summary_exits_2(self, compare_dir, run_dir, capsys):
        # a broken compare.json must not fall back to single-arm charts
        compare_json = compare_dir / "compare.json"
        compare_json.write_text(compare_json.read_text()[:-10])
        (compare_dir / "summary.json").write_bytes((run_dir / "summary.json").read_bytes())
        assert main(["plot", str(compare_dir), "histogram"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {compare_dir}: results unreadable: ")
        assert not list(compare_dir.glob("*.svg"))

    def test_results_file_that_cannot_be_read_exits_2_writing_nothing(self, run_dir, capsys, monkeypatch):
        summary = run_dir / "summary.json"
        read_text = Path.read_text

        def refused(path, *args, **kwargs):
            if path == summary:
                raise PermissionError(13, "Permission denied", str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", refused)
        before = sorted(run_dir.iterdir())
        assert main(["plot", str(run_dir), "timeseries"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir}: results unreadable: PermissionError(13, 'Permission denied')")
        assert sorted(run_dir.iterdir()) == before

    def test_embedded_scenario_with_an_unknown_key_exits_2_writing_nothing(self, run_dir, tmp_path, capsys):
        summary = run_dir / "summary.json"
        doc = json.loads(summary.read_text())
        doc["scenario"]["extra"] = 1
        summary.write_text(json.dumps(doc))
        out = tmp_path / "charts"
        assert main(["plot", str(run_dir), "timeseries", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: embedded scenario unreadable: toy3: unknown key 'extra'\n"
        assert not out.exists()

    def test_deterministic_bytes(self, compare_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["plot", str(compare_dir), "timeseries", "--out", str(a)])
        main(["plot", str(compare_dir), "timeseries", "--out", str(b)])
        for f in sorted(a.glob("*.svg")):
            assert f.read_bytes() == (b / f.name).read_bytes()


class TestUnusableOut:
    @pytest.mark.parametrize("command", ["run", "compare", "plot"])
    def test_out_naming_a_file_exits_2_without_traceback(self, tmp_path, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        args = [command, "toy3"]
        if command == "plot":
            assert main(["run", "toy3", "--out", str(tmp_path / "run")]) == 0
            args = [command, str(tmp_path / "run"), "timeseries"]
        env = dict(os.environ, PYTHONPATH=str(Path(meoflow.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-m", "meoflow.cli", *args, "--out", str(blocker)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 2, out.stderr
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith(f"error: {blocker}: ")

    def test_run_out_naming_a_file_exits_2_writing_nothing(self, tmp_path, capsys):
        # in this process, where the tests above run the command in a child
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["run", "toy3", "--out", str(blocker)]) == 2
        assert capsys.readouterr().err == f"error: {blocker}: File exists\n"
        assert blocker.read_text() == "" and list(tmp_path.iterdir()) == [blocker]


# sha256 of every file the commands below write: any change to an output byte
# of run, compare or plot fails here
OUTPUT_SHA256 = {
    "o3b_rain_compare/compare.csv": "81861ebacc3c7a46cc603a38e92f7f5065e26fa79be675027b9f7ae30a794d3c",
    "o3b_rain_compare/compare.json": "02aefca3cc3f47b2dba83eb5af946f5fdd4d3b750a4b310f7f607b81eb1e1eea",
    "o3b_rain_fractional_run/allocations.json": "93014c94237543e8ac3823c889c7c76e6c2b2fa8dea5ed9dc0a1c7c23adef471",
    "o3b_rain_fractional_run/results.csv": "e523c2af8d16e43f7491cef6f414eb10f75f3b9bb3d99b179b1bf6dbcd8f97dc",
    "o3b_rain_fractional_run/summary.json": "f6409068f4af3c1595fd74848ff8e385ff560e3ad9a3d70217a1f09b70e4d3b7",
    "o3b_rain_run/allocations.json": "373657235871d03ce24a4d0e3766eb8450224052bdafa907e4898ca57f8dead4",
    "o3b_rain_run/results.csv": "63dbe7486951ee8c3c6f58b9f01057a6a4f3ed0748df22cb2383b154af316dc6",
    "o3b_rain_run/summary.json": "9bce77ed7ef4c0988ace622f13da575121a496eac0704b5df84c8e0772e31aae",
    "toy2_run/allocations.json": "08bcbda8d7de93d55b79d3e84eabc8624f90eff11c511b4b0d05574b4cb8dbd5",
    "toy2_run/results.csv": "8cb1dbe72d384e0531fa7f3ed85959b9d1ad862509645a9f71d24acc4437cb1d",
    "toy2_run/summary.json": "b099b4136beda75435ad2966f8650c2962007581c42dfc1ae2491311654d17e7",
    "toy2_no_isl/allocations.json": "08bcbda8d7de93d55b79d3e84eabc8624f90eff11c511b4b0d05574b4cb8dbd5",
    "toy2_no_isl/results.csv": "8cb1dbe72d384e0531fa7f3ed85959b9d1ad862509645a9f71d24acc4437cb1d",
    "toy2_no_isl/summary.json": "b099b4136beda75435ad2966f8650c2962007581c42dfc1ae2491311654d17e7",
    "toy3_run/allocations.json": "256337e248e6ea50f2393c974e63f324b7eb938f4d10414159a6b095e999e142",
    "toy3_run/results.csv": "02ddbd91740f3e9d275376b40228d11868cedf0c4af37d6067c6e6755f228358",
    "toy3_run/summary.json": "88a44ec47ff2993c2666d9b7f45eb7382cb49a62f7cb410210948a555e6f0b76",
    "toy3_no_isl/allocations.json": "ab345a7b4deddb21248024f46da449a101c3c09d69182053dbc7f746c4924c09",
    "toy3_no_isl/results.csv": "78a45f26fe33c2ec6a4a102722700516f24ffa769fc9cf7907e86452f9022a7b",
    "toy3_no_isl/summary.json": "d0d651817a70f2602533435d5827b3c5a75a543851710e5f2d678ee35a2249eb",
    "toy3_compare/compare.csv": "d983cd24103537decddd6d393a402b2d18e60a21507a8f6e8405f4acf16c69a2",
    "toy3_compare/compare.json": "ab21f2abcdb8493739031ffd888633a95b21588593b8918a74f1ea9873c95e50",
    "timeseries/timeseries_sat0.svg": "d31f7cfd7b02515a32153af4fd3eb88030bbb3bba60c88b3bca41b31e6732014",
    "timeseries/timeseries_sat1.svg": "ff70aa567801b1af23d4f52d23f2dea4647e8add227516cd6b0fd6cf3538abbd",
    "timeseries/timeseries_sat2.svg": "3013883fb86e893e6319d97e2cb6ecc0c6df70f725d94736d221b2535be2f81d",
    "histogram/histogram_sat0.svg": "9cde9db74239071ee5104e6709d58832174ce8f72788a206a4b8865aad39b62f",
    "histogram/histogram_sat1.svg": "2ff60861fe91bf37b6edb41c02db9a8b6084f6eeb6d5606f6db41380324943ec",
    "histogram/histogram_sat2.svg": "a46655cb0e40ad3bd9bdc3a8ef1b755c69d4226db5676b11c8d3e4696060396a",
    "rain-attenuation/rain_attenuation.svg": "688165f95f92caf7c4ee2b05828b08e74697eeb1e92dc341e08a792782537b57",
    "toy3_run_timeseries/timeseries_sat0.svg": "6462662ad32954bf1f612c47a5be87c30856231d2d1bd753dda7f632b27b7556",
    "toy3_run_timeseries/timeseries_sat1.svg": "ea83033d37e7567021b07a648f1af40f1fd8d1a7ce758fcf81446b65c5812069",
    "toy3_run_timeseries/timeseries_sat2.svg": "7b8a6b2b37a82b003fa1477bb51497261b82fe20963d99751f8df6eb245064df",
    "toy3_run_histogram/histogram_sat0.svg": "1c7f42deffa8da028f8adcfdea4e5dcdadf1d723d59b439c774ecad40a0cd95b",
    "toy3_run_histogram/histogram_sat1.svg": "d069512ac23d8637fff393bd6e3fd3247d456f66f369d02acc77cae239e995ee",
    "toy3_run_histogram/histogram_sat2.svg": "9f348a5832d6e636cf6a22ae2ac34e9b44e8ecd03320a8640aa33fe891887b63",
    "toy2_run_timeseries/timeseries_sat0.svg": "a1882c2e53fb07c46487499c34003d986d7a6d19d393f22db1e081c7de4fca8f",
    "toy2_run_timeseries/timeseries_sat1.svg": "8da01f04bf5e498c5311e55f31658cfdd2288ae1c7ac3623b758c6a64f2671a8",
    "toy2_run_histogram/histogram_sat0.svg": "9ba3002f21ece1176bf5af99e4f76bf59fcea5f91bce88f7c37ef6cbbe978222",
    "toy2_run_histogram/histogram_sat1.svg": "a8f89a9ab85efa38c743d09999125ea5b73566ef4c8f28db9f0b0acb6f239f7b",
    "o3b_rain_compare_timeseries/timeseries_sat0.svg": "50519877584e4fc6ba7e04d208f4f6bddef8d95d4e18fd036934e1a45f1d9248",
    "o3b_rain_compare_timeseries/timeseries_sat1.svg": "39aa4eec853b3354f0a4393ee278d91b00b4a2dbc4a377375990fd12c4d31ba2",
    "o3b_rain_compare_timeseries/timeseries_sat2.svg": "61750cd58ac04a1c6e3dbd371f152495ea10eab811682852bba6142b0b51121a",
    "o3b_rain_compare_timeseries/timeseries_sat3.svg": "8453abdaca02bb29fa7915395a7a2a29bc6995bb709d07b04a3d24568b4ec127",
    "o3b_rain_compare_timeseries/timeseries_sat4.svg": "80ffa4bce8a3c2a2132b595f6982befebd56a1642936dc5000b3de155cf51426",
    "o3b_rain_compare_timeseries/timeseries_sat5.svg": "9a907bbdde38b45063ac9d6b5875cfdcaffc2613d230de703658a294466fdb2f",
    "o3b_rain_compare_histogram/histogram_sat0.svg": "efaa208ca2ebbc351bb13b5c689883cd5ea6c1cdf5795d7605c5435c611dfe30",
    "o3b_rain_compare_histogram/histogram_sat1.svg": "b7d851fe7fae9641d9078fa02cf652c13ec977dd55071ec98bf691f77409e6c4",
    "o3b_rain_compare_histogram/histogram_sat2.svg": "61e50ee7d4a0910878044dd4a31de90322b8579798b7ac46a2863a01b255b752",
    "o3b_rain_compare_histogram/histogram_sat3.svg": "29adea6efbbb8a58578cec0219060d96bb057902bb72f7610ccf012dddd74b7d",
    "o3b_rain_compare_histogram/histogram_sat4.svg": "8ad9551bcd4b37f427832a0325e51c80167de2fdd6c4c06d31f58e8f614b0b6c",
    "o3b_rain_compare_histogram/histogram_sat5.svg": "0da1eda9310201f41076bedfe320ce606f3135064ead4c00baab3310706979f9",
}


def test_command_outputs_are_byte_pinned(tmp_path, tmp_path_factory):
    codes = {}
    # 288 slots: o3b_rain's LPs cross the solver's block and chunk boundaries
    for sc in ("o3b_rain",):
        codes[f"{sc}_run"] = main(["run", sc, "--out", str(tmp_path / f"{sc}_run")])
        codes[f"{sc}_compare"] = main(["compare", sc, "--out", str(tmp_path / f"{sc}_compare")])
    # o3b_rain under lp-fractional, switched as the benchmark switches it: the
    # largest allocations.json and the only one whose relay fractions are not 0 or 1
    text = (resources.files("meoflow") / "scenarios" / "o3b_rain.json").read_text()
    assert text.count('"serving_gs": "best-capacity"') == 1
    fractional = tmp_path_factory.mktemp("scenario") / "o3b_rain.json"
    fractional.write_text(text.replace('"serving_gs": "best-capacity"', '"serving_gs": "lp-fractional"'))
    codes["o3b_rain_fractional_run"] = main(["run", str(fractional), "--out", str(tmp_path / "o3b_rain_fractional_run")])
    for sc in ("toy2", "toy3"):
        codes[f"{sc}_run"] = main(["run", sc, "--out", str(tmp_path / f"{sc}_run")])
        codes[f"{sc}_no_isl"] = main(["run", sc, "--no-isl", "--out", str(tmp_path / f"{sc}_no_isl")])
        codes[f"{sc}_compare"] = main(["compare", sc, "--out", str(tmp_path / f"{sc}_compare")])
    for kind in ("timeseries", "histogram", "rain-attenuation"):
        codes[kind] = main(["plot", str(tmp_path / "toy3_compare"), kind, "--out", str(tmp_path / kind)])
    # a run directory holds one arm: its charts draw no no-ISL arm; every toy2
    # slot is degenerate, so its rates are 0 and its histograms empty; o3b_rain
    # has three rain windows and full histograms
    for results in ("toy3_run", "toy2_run", "o3b_rain_compare"):
        for kind in ("timeseries", "histogram"):
            codes[f"{results}_{kind}"] = main(["plot", str(tmp_path / results), kind, "--out", str(tmp_path / f"{results}_{kind}")])
    assert codes == {
        "o3b_rain_run": 0,
        "o3b_rain_compare": 0,
        "o3b_rain_fractional_run": 0,
        "toy2_run": 3,
        "toy2_no_isl": 3,
        "toy2_compare": 2,  # every toy2 slot is degenerate: nothing to compare
        "toy3_run": 0,
        "toy3_no_isl": 0,
        "toy3_compare": 0,
        "timeseries": 0,
        "histogram": 0,
        "rain-attenuation": 0,
        "toy3_run_timeseries": 0,
        "toy3_run_histogram": 0,
        "toy2_run_timeseries": 0,
        "toy2_run_histogram": 0,
        "o3b_rain_compare_timeseries": 0,
        "o3b_rain_compare_histogram": 0,
    }
    written = {
        f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(tmp_path.rglob("*"))
        if f.is_file()
    }
    assert written == OUTPUT_SHA256
