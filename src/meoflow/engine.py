"""Horizon orchestration: per-slot solves, summaries, arm comparison.

Slots are independent: each depends only on the scenario, its index and
the arm.  `run_arms` splits the horizon into one contiguous slot range per
core this process may run on (`os.sched_getaffinity`, which `taskset`
limits).  The calling process solves the first range and worker processes,
bare `os.fork`s each with one pipe, solve the others, each range for every
arm in turn, and send back their results pickled, put back in slot order.  Every slot runs
the same deterministic code in whichever process solves it, so the results
are bit-identical to a single-process run, and reruns are bit-identical.
Each process computes the geometry, link budgets and serving policy of its
own range at once, as arrays with a leading slot axis, in blocks of at
most `BLOCK_ENTRIES` entries, and solves each block's slot LPs together
(`allocation.solve_block`), so nothing but the results crosses a pipe.
A slot with isolated satellites (no feeder link and no usable neighbor)
comes back from the allocator flagged degenerate, with the isolated rates
at zero; it is excluded from rate statistics.
"""
from __future__ import annotations

import gc
import os
import pickle
import sys
from dataclasses import dataclass
from typing import NoReturn, Optional, Sequence

import numpy as np

from .allocation import AllocationResult, solve_block
from .geometry import range_geometry
from .scenario import Scenario
from .topology import range_graphs

HISTOGRAM_BIN_WIDTH_BPS = 5e6  # summary histograms and the histogram charts
# The most bins of one histogram: 100,000 bins of 5 Mbit/s reach 500 Gbit/s, far
# above any real feeder link, and write about 1.5 MB of summary.json per satellite.
MAX_HISTOGRAM_BINS = 100_000

# The most slot x satellite x (station + satellite) entries of the (N, K, I)
# feeder and (N, K, K) ISL arrays in one block, each entry a few times 8 bytes:
# tens of MB at most, even at 1,000 satellites.  A block holds at least one slot.
BLOCK_ENTRIES = 2**20


class WorkerDiedError(RuntimeError):
    """A forked worker that exited without sending its slots' result."""


@dataclass
class RunResult:
    scenario: Scenario
    isl_enabled: bool
    rates_bps: np.ndarray  # (slots, satellites)
    t_star_bps: np.ndarray  # (slots,)
    direct_bps: np.ndarray  # (slots, satellites)
    relayed_bps: np.ndarray  # (slots, satellites)
    serving: tuple  # per slot, per satellite station index or None
    allocations: list[AllocationResult]
    degenerate_slots: tuple[int, ...]
    iterations: np.ndarray  # (slots,)

    @property
    def slot_count(self) -> int:
        return self.rates_bps.shape[0]

    @property
    def satellite_count(self) -> int:
        return self.rates_bps.shape[1]

    def included_mask(self) -> np.ndarray:
        mask = np.ones(self.slot_count, dtype=bool)
        mask[list(self.degenerate_slots)] = False
        return mask


def run(scenario: Scenario, isl_enabled: Optional[bool] = None) -> RunResult:
    """Solve every slot of the horizon: `run_arms` of one arm.

    isl_enabled overrides the scenario policy; the baseline arm of a
    comparison is the same scenario with ISL capacities forced to zero.
    """
    return run_arms(scenario, [bool(scenario.isl_enabled if isl_enabled is None else isl_enabled)])[0]


def run_arms(scenario: Scenario, arms: Sequence[bool]) -> list[RunResult]:
    """The RunResult of each arm, given by its ISL switch, all solved by one set of processes.

    Raises the AllocationError of the first failing arm's first failing
    slot, or a WorkerDiedError, with that arm ("ISL" or "no-ISL") as `arm`.
    """
    results = []
    for enabled, allocations in zip(arms, _solve_horizon(scenario, arms)):
        results.append(RunResult(
            scenario=scenario,
            isl_enabled=enabled,
            rates_bps=np.array([a.rates_bps for a in allocations]),
            t_star_bps=np.array([a.t_star_bps for a in allocations]),
            direct_bps=np.array([a.direct_bps for a in allocations]),
            relayed_bps=np.array([a.relayed_bps for a in allocations]),
            serving=tuple(a.serving_gs for a in allocations),
            allocations=allocations,
            degenerate_slots=tuple(slot for slot, a in enumerate(allocations) if a.degenerate),
            iterations=np.array([a.iterations for a in allocations]),
        ))
    return results


def _solve_slots(scenario: Scenario, isl_enabled: bool, slots: range) -> list[AllocationResult]:
    """Solve the given slots in order and return their allocations.

    The slot graphs are built, and their LPs solved, a block of slots at a
    time; each allocation carries all that `run` reads of its slot.
    """
    altitudes = scenario.gs_altitudes_km()
    links = (scenario.feeder_link, scenario.isl, scenario.rain_model)
    k = scenario.constellation.satellite_count
    step = max(1, BLOCK_ENTRIES // (k * (len(scenario.stations) + k)))
    solved = []
    for first in range(0, len(slots), step):
        block = slots[first : first + step]
        times = [scenario.slot_midpoint_s(slot) for slot in block]
        geometry = range_geometry(scenario.constellation, scenario.stations, times)[2:]  # all but positions
        rates = [scenario.rain_rates_at(scenario.slot_midpoint(slot)) for slot in block]
        graphs = range_graphs(block, geometry, *links, rates, altitudes, scenario.serving_policy, isl_enabled)
        solved += solve_block(graphs, lexicographic=scenario.lexicographic)
    return solved


def _solve_horizon(scenario: Scenario, arms: list[bool]) -> list[list[AllocationResult]]:
    """`_solve_slots` of each arm over the whole horizon, one contiguous range per process.

    The workers are forked once for all arms.  Every process solves its
    range for each arm in order and stops at its first failure; a worker
    writes each arm's `_solve_arms` outcome, its allocations or the
    exception in their place, pickled to its own pipe as the arm finishes.
    This process reads the outcomes arm by arm, its own range first, so the
    first failure read is that of the first failing arm's lowest slot.  A
    worker that dies without sending shows up here as end-of-file, never as
    a wait, and is raised as a WorkerDiedError with its exit code.  At the
    end, raised or not, every worker not yet reaped is killed and reaped.
    Fork, not spawn: a worker starts with the parsed scenario and the
    imported modules, where spawn would import numpy and meoflow again.
    """
    n = scenario.slot_count
    # one process per core this one may run on, at most one per slot
    workers = min(len(os.sched_getaffinity(0)), n) if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1
    ranges = [range(n * i // workers, n * (i + 1) // workers) for i in range(workers)]
    forked = []  # (pid, read end of its pipe, slots) of each worker not yet reaped
    try:
        for slots in ranges[1:]:
            read, write = os.pipe()
            gc.freeze()  # no collection writes to the objects here now: fewer pages copied on write in a worker
            try:
                pid = os.fork()
            except OSError:  # say, out of processes: the pipe goes with it
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _send_arms(write, scenario, arms, slots)
            os.close(write)
            forked.append((pid, open(read, "rb"), slots))
        solved, own = [], _solve_arms(scenario, arms, ranges[0])  # own: this process's outcomes
        for enabled in arms:
            solved.append([])
            for worker in [None, *forked]:  # None: this process
                try:
                    outcome = next(own) if worker is None else pickle.load(worker[1])
                except (EOFError, pickle.UnpicklingError):  # a worker exits 0 only once all is sent
                    pid, pipe, slots = worker
                    forked.remove(worker)
                    pipe.close()
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    outcome = WorkerDiedError(f"worker for slots {slots[0]}-{slots[-1]} exited with code {code} and no result")
                if isinstance(outcome, Exception):
                    outcome.arm = "ISL" if enabled else "no-ISL"
                    raise outcome
                solved[-1] += outcome
    finally:
        gc.unfreeze()
        for pid, pipe, _ in forked:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL; importing signal would cost every run's start-up
            os.waitpid(pid, 0)
    return solved


def _solve_arms(scenario: Scenario, arms: list[bool], slots: range):
    """The allocations of `slots` for each arm in order, or the exception that ended them in their place."""
    for enabled in arms:
        try:
            yield _solve_slots(scenario, enabled, slots)
        except Exception as exc:  # raised in the parent, e.g. an AllocationError
            yield exc
            return


def _send_arms(write: int, scenario: Scenario, arms: list[bool], slots: range) -> NoReturn:
    """Worker process body: write each arm's `_solve_arms` outcome pickled to
    the pipe as it finishes, and leave through os._exit, 0 once all is written."""
    code = 1
    try:
        with open(write, "wb") as pipe:
            for outcome in _solve_arms(scenario, arms, slots):
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
                pipe.flush()
        code = 0
    except BaseException:  # not sent: reported as an uncaught exception would be, then exit 1
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(code)


def _series_stats(values: np.ndarray) -> dict:
    if values.size == 0:
        return {"mean_bps": None, "std_bps": None, "min_bps": None, "max_bps": None}
    return {
        "mean_bps": float(values.mean()),
        "std_bps": float(values.std()),
        "min_bps": float(values.min()),
        "max_bps": float(values.max()),
    }


def histogram_edges(top: float, width: float, unit: str = "bit/s") -> np.ndarray:
    """Edges of the bins of `width` from 0 past `top`, both in `unit`, at least one bin; a
    ValueError, before allocating, for a top that is not finite or needs over MAX_HISTOGRAM_BINS bins."""
    if not np.isfinite(top):
        raise ValueError(f"histogram top {top} is not finite")
    n_bins = max(1, int(np.ceil((top + 1e-9) / width)))
    if n_bins > MAX_HISTOGRAM_BINS:
        raise ValueError(f"histogram top {top:g} {unit} needs more than {MAX_HISTOGRAM_BINS} bins of {width:g} {unit}")
    return np.arange(n_bins + 1) * width


def _histogram(values: np.ndarray) -> dict:
    counts = []
    if values.size:
        counts = np.histogram(values, bins=histogram_edges(float(values.max()), HISTOGRAM_BIN_WIDTH_BPS))[0].tolist()
    return {"bin_width_bps": HISTOGRAM_BIN_WIDTH_BPS, "bin_start_bps": 0.0, "counts": counts}


def summarize(result: RunResult) -> dict:
    """Per-satellite and constellation statistics over non-degenerate slots.

    Standard deviations are population deviations.  Both spread notions are
    reported: per-satellite deviation over time, and the deviation of the
    per-satellite means across the fleet.
    """
    mask = result.included_mask()
    series = result.rates_bps[mask]
    per_satellite = []
    for k in range(result.satellite_count):
        stats = _series_stats(series[:, k])
        stats["satellite"] = k
        stats["histogram"] = _histogram(series[:, k])
        per_satellite.append(stats)
    sat_means = [s["mean_bps"] for s in per_satellite]
    constellation = _series_stats(series.reshape(-1))
    constellation["min_t_star_bps"] = float(result.t_star_bps[mask].min()) if mask.any() else None
    constellation["std_across_satellite_means_bps"] = (
        float(np.array(sat_means).std()) if series.size else None
    )
    return {
        "isl_enabled": result.isl_enabled,
        "slot_count": result.slot_count,
        "degenerate_slots": list(result.degenerate_slots),
        "per_satellite": per_satellite,
        "constellation": constellation,
    }


def compare(baseline: RunResult, treatment: RunResult) -> dict:
    """Deltas between the no-ISL arm and the ISL arm of one scenario.

    Percentages are (treatment − baseline) / baseline.  Slots degenerate in
    either arm are excluded from both so the statistics stay paired.
    """
    grids = [(arm.scenario.start, arm.scenario.slot_s) for arm in (baseline, treatment)]
    if baseline.rates_bps.shape != treatment.rates_bps.shape or grids[0] != grids[1]:
        raise ValueError("mismatched time grids")
    excluded = sorted(set(baseline.degenerate_slots) | set(treatment.degenerate_slots))
    mask = baseline.included_mask() & treatment.included_mask()
    if not mask.any():
        raise ValueError("no non-degenerate slots to compare")
    base = baseline.rates_bps[mask]
    treat = treatment.rates_bps[mask]
    base_min = float(base.min())
    if base_min <= 0.0:
        raise ValueError("baseline minimum rate must be positive")
    treat_min = float(treat.min())
    base_mean = float(base.mean())
    base_stds, treat_stds = ([float(x[:, k].std()) for k in range(baseline.satellite_count)] for x in (base, treat))
    per_satellite = [
        {
            "satellite": k,
            "baseline_mean_bps": float(base[:, k].mean()),
            "treatment_mean_bps": float(treat[:, k].mean()),
            "baseline_std_bps": b_std,
            "treatment_std_bps": t_std,
            "std_reduction_pct": (b_std - t_std) / b_std * 100.0 if b_std > 0 else None,
        }
        for k, (b_std, t_std) in enumerate(zip(base_stds, treat_stds))
    ]
    mean_base_std = float(np.mean(base_stds))
    return {
        "min_rate_improvement_pct": (treat_min - base_min) / base_min * 100.0,
        "mean_delta_pct": (float(treat.mean()) - base_mean) / base_mean * 100.0,
        "std_reduction_pct": (
            (mean_base_std - float(np.mean(treat_stds))) / mean_base_std * 100.0
            if mean_base_std > 0
            else None
        ),
        "baseline_min_bps": base_min,
        "treatment_min_bps": treat_min,
        "baseline_mean_bps": base_mean,
        "treatment_mean_bps": float(treat.mean()),
        "excluded_slots": excluded,
        "per_satellite": per_satellite,
    }
