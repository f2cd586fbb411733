"""Horizon runs, summaries, and arm comparison."""
import dataclasses
import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import meoflow
from meoflow import allocation, engine
from meoflow.engine import RunResult, compare, run, summarize
from meoflow.scenario import parse_scenario
from meoflow.topology import POLICY_BEST_CAPACITY, POLICY_LP_FRACTIONAL
from test_slot_range import bundled, wrapper_graph


def two_sat_scenario(phases=(0.0, 180.0), stations=None, isl_enabled=True, events=()):
    if stations is None:
        stations = [
            {"station_id": "a", "latitude_deg": 0.0, "longitude_deg": 0.0},
            {"station_id": "b", "latitude_deg": 0.0, "longitude_deg": 180.0},
        ]
    return parse_scenario(
        {
            "constellation": {
                "satellite_count": len(phases),
                "altitude_km": 8062.0,
                "phase_offsets_deg": list(phases),
            },
            "ground_stations": stations,
            "isl": {"fixed_capacity_override_bps": 600e6},
            "rain_model": {"rain_height_km": 2.0},
            "rain_events": list(events),
            "time": {"start": "2026-01-01T00:00:00Z", "duration_s": 1200, "slot_s": 300},
            "policies": {"isl_enabled": isl_enabled},
        }
    )


def mini_o3b(events=()):
    return parse_scenario(
        {
            "constellation": {"satellite_count": 6, "altitude_km": 8062.0},
            "ground_stations": [
                {"station_id": "dubbo", "latitude_deg": -32.24, "longitude_deg": 148.60, "altitude_m": 275.0},
                {"station_id": "santiago", "latitude_deg": -33.45, "longitude_deg": -70.66, "altitude_m": 520.0},
                {"station_id": "thermopylae", "latitude_deg": 38.80, "longitude_deg": 22.54, "altitude_m": 50.0},
            ],
            "isl": {"fixed_capacity_override_bps": 600e6},
            "rain_model": {"rain_height_km": 2.0},
            "rain_events": list(events),
            "time": {"start": "2026-01-01T00:00:00Z", "duration_s": 7200, "slot_s": 600},
            "policies": {},
        }
    )


class TestRun:
    def test_no_isl_identity_allocation(self):
        # every satellite sees its own station; without ISL the LP hands each
        # satellite its full serving capacity
        s = two_sat_scenario()
        res = run(s, isl_enabled=False)
        assert res.degenerate_slots == ()
        for n in range(s.slot_count):
            g = wrapper_graph(s, n, False)
            for k in range(2):
                j = g.serving_gs[k]
                assert res.rates_bps[n, k] == pytest.approx(g.fl_capacity_bps[k, j], abs=1e-3)
                assert res.allocations[n].w[(k, k, j)] == pytest.approx(1.0, abs=1e-9)
            assert res.serving[n] == g.serving_gs

    def test_symmetric_instance_does_not_relay(self):
        s = two_sat_scenario()
        res = run(s)
        assert res.isl_enabled
        for alloc in res.allocations:
            for frac in alloc.v.values():
                assert frac == pytest.approx(0.0, abs=1e-9)
            assert np.all(alloc.isl_rates_bps == pytest.approx(0.0, abs=1e-3))
        assert np.all(res.relayed_bps == pytest.approx(0.0, abs=1e-3))

    def test_direct_plus_relayed_decomposition(self):
        s = mini_o3b()
        res = run(s)
        total = res.direct_bps + res.relayed_bps
        assert np.allclose(total, res.rates_bps, atol=1e-3)

    @pytest.mark.parametrize(
        "policy, isl_enabled",
        [(POLICY_BEST_CAPACITY, True), (POLICY_BEST_CAPACITY, False), (POLICY_LP_FRACTIONAL, True)],
        ids=["isl", "no_isl", "lp_fractional_isl"],
    )
    def test_o3b_rain_split_is_the_fraction_sum_bit_for_bit(self, policy, isl_enabled):
        # direct: each own-feeder fraction times its feeder capacity; relayed:
        # each ISL fraction times its ISL capacity; both summed in dict order
        data = bundled("o3b_rain")
        data["policies"]["serving_gs"] = policy
        s = parse_scenario(data, name="o3b_rain")
        res = run(s, isl_enabled=isl_enabled)
        direct = np.zeros_like(res.rates_bps)
        relayed = np.zeros_like(res.rates_bps)
        for n, alloc in enumerate(res.allocations):
            g = wrapper_graph(s, n, isl_enabled)
            for (src, tx, j), frac in alloc.w.items():
                if src == tx:
                    direct[n, src] += frac * g.fl_capacity_bps[tx, j]
            for (src, relay, _), frac in alloc.v.items():
                relayed[n, src] += frac * g.isl_capacity_bps[src, relay]
        assert np.array_equal(res.direct_bps, direct)
        assert np.array_equal(res.relayed_bps, relayed)
        assert res.relayed_bps.any() == isl_enabled

    def test_isl_monotonicity_per_slot(self):
        events = [
            {
                "station_id": "santiago",
                "start": "2026-01-01T00:00:00Z",
                "end": "2026-01-01T01:00:00Z",
                "rain_class": "heavy",
            }
        ]
        s = mini_o3b(events)
        treatment = run(s, isl_enabled=True)
        baseline = run(s, isl_enabled=False)
        # a degenerate baseline slot scores only its reachable satellites, so
        # the comparison is meaningful where both arms cover the full fleet
        both = [
            n
            for n in range(s.slot_count)
            if n not in baseline.degenerate_slots and n not in treatment.degenerate_slots
        ]
        assert both
        assert np.all(treatment.t_star_bps[both] >= baseline.t_star_bps[both] - 1.0)

    def test_no_rate_manufactured_beyond_feeder_capacity(self):
        s = mini_o3b()
        res = run(s)
        for n in range(s.slot_count):
            g = wrapper_graph(s, n, True)
            assert res.rates_bps[n].sum() <= g.fl_capacity_bps.sum() + 1e-3

    def test_reproducible_bit_identical(self):
        s = mini_o3b()
        a = run(s)
        b = run(s)
        assert np.array_equal(a.rates_bps, b.rates_bps)
        assert np.array_equal(a.t_star_bps, b.t_star_bps)
        assert np.array_equal(a.iterations, b.iterations)
        assert json.dumps(summarize(a)) == json.dumps(summarize(b))

    def test_degenerate_slots_flagged_and_zeroed(self):
        # second satellite starts 150 degrees ahead and never sees the lone
        # station; without ISL every slot is degenerate
        s = two_sat_scenario(
            phases=(0.0, 150.0),
            stations=[{"station_id": "only", "latitude_deg": 0.0, "longitude_deg": 0.0}],
            isl_enabled=False,
        )
        res = run(s)
        assert res.degenerate_slots == (0, 1, 2, 3)
        assert np.all(res.rates_bps[:, 1] == 0.0)
        assert np.all(res.rates_bps[:, 0] > 0.0)
        for alloc in res.allocations:
            assert alloc.degenerate

    def test_degenerate_slot_still_serves_reachable_satellites(self):
        s = two_sat_scenario(
            phases=(0.0, 150.0),
            stations=[{"station_id": "only", "latitude_deg": 0.0, "longitude_deg": 0.0}],
            isl_enabled=False,
        )
        res = run(s)
        g = wrapper_graph(s, 0, False)
        assert res.rates_bps[0, 0] == pytest.approx(g.fl_capacity_bps[0, 0], abs=1e-3)

    def test_isl_rescues_otherwise_degenerate_slot(self):
        s = two_sat_scenario(
            phases=(0.0, 150.0),
            stations=[{"station_id": "only", "latitude_deg": 0.0, "longitude_deg": 0.0}],
            isl_enabled=True,
        )
        res = run(s)
        assert res.degenerate_slots == ()
        assert np.all(res.rates_bps > 0.0)


class TestPivotBudget:
    # Total simplex pivots over the o3b_rain horizon, as recorded in
    # CHANGES.md when the epigraph rows took in the rate definitions and
    # stage 1 lost its phase 1 (6 fewer pivots per slot).  Pivots do not
    # depend on the machine; a lost warm start of stage 2 roughly doubles
    # them.
    BUDGET = {True: 10_155, False: 3_456}

    @pytest.mark.parametrize("isl_enabled", [True, False])
    def test_o3b_rain_pivots_within_budget(self, isl_enabled):
        scenario = bundled_scenario("o3b_rain")
        assert run(scenario, isl_enabled=isl_enabled).iterations.sum() <= self.BUDGET[isl_enabled]

    # Exact totals: every change to the pivot loop must walk the same
    # pivot sequence (Bland's rule fixes it), so these stay put unless
    # the LPs or the pivoting rule change on purpose.
    @pytest.mark.parametrize(
        "policy,isl_enabled,total",
        [
            (POLICY_BEST_CAPACITY, True, 10_155),
            (POLICY_BEST_CAPACITY, False, 3_456),
            (POLICY_LP_FRACTIONAL, True, 22_461),
        ],
    )
    def test_o3b_rain_pivot_totals_exact(self, policy, isl_enabled, total):
        scenario = dataclasses.replace(
            bundled_scenario("o3b_rain"), serving_policy=policy
        )
        assert run(scenario, isl_enabled=isl_enabled).iterations.sum() == total

    # The same totals split by stage: stage 1 alone is the run without the
    # lexicographic refinement, stage 2 the rest of the full run.
    @pytest.mark.parametrize(
        "policy,isl_enabled,stage1,stage2",
        [
            (POLICY_BEST_CAPACITY, True, 10_155, 0),
            (POLICY_BEST_CAPACITY, False, 2_016, 1_440),
            (POLICY_LP_FRACTIONAL, True, 22_461, 0),
            (POLICY_LP_FRACTIONAL, False, 4_161, 1_664),
        ],
    )
    def test_o3b_rain_pivots_per_stage_exact(self, policy, isl_enabled, stage1, stage2):
        scenario = dataclasses.replace(
            bundled_scenario("o3b_rain"), serving_policy=policy
        )
        first = run(dataclasses.replace(scenario, lexicographic=False), isl_enabled=isl_enabled).iterations.sum()
        both = run(scenario, isl_enabled=isl_enabled).iterations.sum()
        assert (first, both - first) == (stage1, stage2)


class TestSolverBytes:
    # sha256 of every optimal LpSolution of the o3b_rain horizon, per stage,
    # in slot order: values, tableau, basis, nonbasic and pivot count.  The
    # stage-1 tableau is what stage 2 continues from, and no output file
    # holds it, so the output pins alone would not see it move.
    SHA256 = {
        (POLICY_BEST_CAPACITY, True, 1): "d5edee0d35d9c35695bd09bc7446cd4c6e73ff46562aae8c834963fdadcabeed",
        (POLICY_BEST_CAPACITY, True, 2): "235f48be18a0fd4ec97557f63f307a2d90c3df5a784aabb1343867f79222ec43",
        (POLICY_BEST_CAPACITY, False, 1): "8f323d996f6990e4878fcefcfa54257f165d74ebcb50af42203bb032f912ff44",
        (POLICY_BEST_CAPACITY, False, 2): "9acd27f4a07270c5fc95f6094488031da1d8de417a006f4881c026062838a90d",
        (POLICY_LP_FRACTIONAL, True, 1): "69ae2ed9413c273f1d9bcc237da7b57eb58451d2db2a2cec30807777c9461ea7",
        (POLICY_LP_FRACTIONAL, True, 2): "77539e178b70c0f2e8c09c409a1a62fe37250c3e45322fad5bd61d65d0cd9ccf",
        (POLICY_LP_FRACTIONAL, False, 1): "b27cbb70850fe463d8b40b0062a1cc9bf90ca2ca72c8adecf9b4e5758eaa8850",
        (POLICY_LP_FRACTIONAL, False, 2): "b203c9092e85cc6af0b312f0ceb93a7dc7fdeadd82a36b8287730a7b65bc0a0a",
    }

    @pytest.mark.parametrize("policy", [POLICY_BEST_CAPACITY, POLICY_LP_FRACTIONAL])
    @pytest.mark.parametrize("isl_enabled", [True, False], ids=["isl", "no_isl"])
    def test_o3b_rain_solutions_are_byte_pinned(self, monkeypatch, policy, isl_enabled):
        scenario = dataclasses.replace(
            bundled_scenario("o3b_rain"), serving_policy=policy
        )
        digests = {1: hashlib.sha256(), 2: hashlib.sha256()}
        solve_batch = allocation.solve_batch

        def recorded(problems, max_iterations=None, *, bases=None):
            outcomes = solve_batch(problems, max_iterations, bases=bases)
            digest = digests[1 if bases is None else 2]
            for solution in outcomes:
                digest.update(f"{solution.iteration_count} {solution.tableau.shape}".encode())
                for array in (solution.values, solution.tableau, solution.basis, solution.nonbasic):
                    digest.update(array.tobytes())
            return outcomes

        monkeypatch.setattr(allocation, "solve_batch", recorded)
        engine._solve_slots(scenario, isl_enabled, range(scenario.slot_count))
        got = {(policy, isl_enabled, stage): digest.hexdigest() for stage, digest in digests.items()}
        assert got == {key: pin for key, pin in self.SHA256.items() if key[:2] == (policy, isl_enabled)}


def manual_result(rates, degenerate=()):
    rates = np.asarray(rates, dtype=float)
    n, k = rates.shape
    return RunResult(
        scenario=bundled_scenario("toy3"),
        isl_enabled=True,
        rates_bps=rates,
        t_star_bps=rates.min(axis=1),
        direct_bps=rates.copy(),
        relayed_bps=np.zeros_like(rates),
        serving=tuple((None,) * k for _ in range(n)),
        allocations=[],
        degenerate_slots=tuple(degenerate),
        iterations=np.zeros(n, dtype=int),
    )


class TestSummarize:
    def test_two_point_series(self):
        res = manual_result([[600e6], [700e6]])
        s = summarize(res)
        sat = s["per_satellite"][0]
        assert sat["mean_bps"] == pytest.approx(650e6)
        assert sat["std_bps"] == pytest.approx(50e6)
        assert sat["min_bps"] == 600e6 and sat["max_bps"] == 700e6

    def test_constant_series(self):
        res = manual_result([[250e6], [250e6], [250e6]])
        s = summarize(res)
        assert s["per_satellite"][0]["mean_bps"] == 250e6
        assert s["per_satellite"][0]["std_bps"] == 0.0

    def test_histogram_bins(self):
        res = manual_result([[2e6], [7e6], [12e6]])
        s = summarize(res)
        hist = s["per_satellite"][0]["histogram"]
        assert hist["bin_width_bps"] == 5e6
        assert hist["counts"] == [1, 1, 1]

    @pytest.mark.parametrize("top", [float("inf"), float("nan"), (engine.MAX_HISTOGRAM_BINS + 1) * 5e6, 2.13e14])
    def test_histogram_refuses_a_top_before_allocating_its_bins(self, top):
        # 2.13e14 bit/s is the feeder capacity of an accepted 3 THz, 300 dBW
        # budget: 42.6 million bins, were they allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="histogram top"):
                engine._histogram(np.array([1e6, top]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_histogram_takes_up_to_the_bound(self):
        top = engine.MAX_HISTOGRAM_BINS * 5e6
        counts = summarize(manual_result([[1e6], [top]]))["per_satellite"][0]["histogram"]["counts"]
        assert len(counts) == engine.MAX_HISTOGRAM_BINS
        assert counts[0] == counts[-1] == 1 and sum(counts) == 2
        assert engine.histogram_edges(0.0, 5.0).tolist() == [0.0, 5.0]

    def test_degenerate_slots_excluded(self):
        res = manual_result([[100e6], [900e6]], degenerate=(1,))
        s = summarize(res)
        assert s["per_satellite"][0]["mean_bps"] == 100e6
        assert s["degenerate_slots"] == [1]

    def test_all_degenerate_yields_none_stats(self):
        res = manual_result([[0.0], [0.0]], degenerate=(0, 1))
        s = summarize(res)
        assert s["per_satellite"][0]["mean_bps"] is None
        assert s["constellation"]["min_bps"] is None

    def test_summary_recomputable_from_series(self):
        res = manual_result(np.random.RandomState(3).uniform(1e8, 5e8, size=(20, 4)))
        s = summarize(res)
        for k in range(4):
            col = res.rates_bps[:, k]
            assert s["per_satellite"][k]["mean_bps"] == float(col.mean())
            assert s["per_satellite"][k]["std_bps"] == float(col.std())


class TestCompare:
    def test_identical_runs_zero_deltas(self):
        res = manual_result([[100e6, 200e6], [150e6, 250e6]])
        rep = compare(res, res)
        assert rep["min_rate_improvement_pct"] == 0.0
        assert rep["mean_delta_pct"] == 0.0
        for sat in rep["per_satellite"]:
            assert sat["std_reduction_pct"] == pytest.approx(0.0)

    def test_improvement_sign(self):
        base = manual_result([[100e6], [300e6]])
        treat = manual_result([[150e6], [300e6]])
        rep = compare(base, treat)
        assert rep["min_rate_improvement_pct"] == pytest.approx(50.0)

    def test_mismatched_grids_rejected(self):
        a = manual_result([[1e8], [1e8]])
        b = manual_result([[1e8], [1e8], [1e8]])
        with pytest.raises(ValueError, match="time grids"):
            compare(a, b)
        # the same shape on slots of another length
        longer = dataclasses.replace(a, scenario=dataclasses.replace(a.scenario, slot_s=2 * a.scenario.slot_s))
        with pytest.raises(ValueError, match="time grids"):
            compare(a, longer)

    def test_zero_baseline_min_rejected(self):
        base = manual_result([[0.0], [1e8]])
        treat = manual_result([[1e8], [1e8]])
        with pytest.raises(ValueError, match="positive"):
            compare(base, treat)

    def test_union_of_degenerate_slots_excluded(self):
        base = manual_result([[1e8], [2e8], [3e8]], degenerate=(0,))
        treat = manual_result([[5e8], [2e8], [3e8]], degenerate=(2,))
        rep = compare(base, treat)
        assert rep["excluded_slots"] == [0, 2]
        assert rep["baseline_min_bps"] == 2e8

    def test_engine_arms_improvement_nonnegative(self):
        s = mini_o3b(
            [
                {
                    "station_id": "santiago",
                    "start": "2026-01-01T00:00:00Z",
                    "end": "2026-01-01T01:00:00Z",
                    "rain_class": "heavy",
                }
            ]
        )
        rep = compare(run(s, isl_enabled=False), run(s, isl_enabled=True))
        assert rep["min_rate_improvement_pct"] >= -1e-6
        assert rep["baseline_min_bps"] > 0


def bundled_scenario(name):
    return parse_scenario(bundled(name), name=name)


class TestWorkerProcesses:
    """run splits the horizon into one slot range per core and forks a
    worker for every range but the first; the result must be bit for bit
    the one a single process gives."""

    @staticmethod
    def run_on(cores, monkeypatch, scenario, isl_enabled=None):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        return run(scenario, isl_enabled=isl_enabled)

    @staticmethod
    def assert_identical(a, b):
        for field in ("rates_bps", "t_star_bps", "direct_bps", "relayed_bps", "iterations"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
        assert a.degenerate_slots == b.degenerate_slots
        assert a.serving == b.serving
        for x, y in zip(a.allocations, b.allocations, strict=True):
            assert x.slot_index == y.slot_index and x.degenerate == y.degenerate
            assert x.w == y.w and x.v == y.v

    @pytest.mark.parametrize("isl_enabled", [True, False])
    def test_o3b_rain_two_processes_match_one(self, monkeypatch, isl_enabled):
        scenario = bundled_scenario("o3b_rain")
        one = self.run_on(1, monkeypatch, scenario, isl_enabled)
        self.assert_identical(self.run_on(2, monkeypatch, scenario, isl_enabled), one)

    @pytest.mark.parametrize("cores", [2, 8])
    def test_degenerate_toy2_matches_one_process(self, monkeypatch, cores):
        # 8 cores: more workers than the 4 slots, so one process per slot
        scenario = bundled_scenario("toy2")
        one = self.run_on(1, monkeypatch, scenario)
        many = self.run_on(cores, monkeypatch, scenario)
        assert many.degenerate_slots == (0, 1, 2, 3)
        self.assert_identical(many, one)

    def test_fewer_slots_than_cores_solves_each_slot_in_its_own_process(self, monkeypatch, tmp_path):
        solve_slots = engine._solve_slots

        def logged(scenario, isl_enabled, slots):
            # a worker's appends never reach this process; its files do
            (tmp_path / f"{slots.start}-{slots.stop}.{os.getpid()}").touch()
            return solve_slots(scenario, isl_enabled, slots)

        monkeypatch.setattr(engine, "_solve_slots", logged)
        self.run_on(8, monkeypatch, bundled_scenario("toy2"))
        solved = sorted(path.name.split(".") for path in tmp_path.iterdir())
        assert [slots for slots, _ in solved] == ["0-1", "1-2", "2-3", "3-4"]
        assert solved[0][1] == str(os.getpid())
        assert len({pid for _, pid in solved}) == 4

    def test_worker_that_dies_without_a_result_raises(self, monkeypatch):
        parent = os.getpid()
        solve_slots = engine._solve_slots

        def dies_in_worker(scenario, isl_enabled, slots):
            if os.getpid() != parent:
                os._exit(7)
            return solve_slots(scenario, isl_enabled, slots)

        monkeypatch.setattr(engine, "_solve_slots", dies_in_worker)
        with pytest.raises(RuntimeError, match="worker for slots 2-3 exited with code 7"):
            self.run_on(2, monkeypatch, bundled_scenario("toy2"))

    @pytest.mark.parametrize("worker", ["succeeds", "raises", "exits 7", "is killed"])
    def test_workers_leave_no_descriptor_or_child_behind(self, monkeypatch, worker):
        parent = os.getpid()
        solve_slots = engine._solve_slots

        def in_worker(scenario, isl_enabled, slots):
            if os.getpid() != parent:
                if worker == "raises":
                    raise ValueError("no slots today")
                if worker == "exits 7":
                    os._exit(7)
                if worker == "is killed":
                    os.kill(os.getpid(), signal.SIGKILL)
            return solve_slots(scenario, isl_enabled, slots)

        monkeypatch.setattr(engine, "_solve_slots", in_worker)
        descriptors = sorted(os.listdir("/proc/self/fd"))
        raised = {"succeeds": None, "raises": ValueError, "exits 7": engine.WorkerDiedError, "is killed": engine.WorkerDiedError}
        if raised[worker] is None:
            self.run_on(2, monkeypatch, bundled_scenario("toy2"))
        else:
            with pytest.raises(raised[worker]) as excinfo:
                self.run_on(2, monkeypatch, bundled_scenario("toy2"))
            if worker == "is killed":
                assert "worker for slots 2-3 exited with code -9 and no result" in str(excinfo.value)
            del excinfo  # its traceback holds the frames of the run, in cycles
        self.assert_nothing_left(descriptors)

    def test_a_fork_that_fails_leaves_no_descriptor_or_child_behind(self, monkeypatch):
        # three processes: the second fork fails, after the first worker started
        fork, forks = os.fork, []

        def second_fails():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        descriptors = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            self.run_on(3, monkeypatch, bundled_scenario("toy2"))
        self.assert_nothing_left(descriptors)

    def test_a_failure_here_kills_the_workers_still_running(self, monkeypatch):
        parent = os.getpid()

        def fails_here_while_the_worker_sleeps(scenario, isl_enabled, slots):
            if os.getpid() != parent:
                time.sleep(60)
            raise ValueError("no slots here")

        monkeypatch.setattr(engine, "_solve_slots", fails_here_while_the_worker_sleeps)
        descriptors = sorted(os.listdir("/proc/self/fd"))
        start = time.monotonic()
        with pytest.raises(ValueError, match="no slots here"):
            self.run_on(2, monkeypatch, bundled_scenario("toy2"))
        assert time.monotonic() - start < 30
        self.assert_nothing_left(descriptors)

    @staticmethod
    def assert_nothing_left(descriptors):
        gc.collect()
        assert sorted(os.listdir("/proc/self/fd")) == descriptors
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no child, reaped or not, is left

    def test_two_process_compare_never_imports_multiprocessing(self, tmp_path):
        # workers are bare forks; the import would only cost start-up
        data = bundled("toy3")
        data["time"]["duration_s"] = 1200  # four slots, two per process
        scenario = tmp_path / "toy3.json"
        scenario.write_text(json.dumps(data))
        code = (
            "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; from meoflow.cli import main; "
            f"code = main(['compare', {str(scenario)!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "print(code, 'multiprocessing' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(meoflow.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.stdout.split() == ["0", "False"], out.stderr
