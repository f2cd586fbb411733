"""Horizon orchestration: per-slot solves, summaries, arm comparison.

Slots are independent; they are solved sequentially in slot order so reruns
are bit-identical.  A slot with isolated satellites (no feeder link and no
usable neighbor) comes back from the allocator flagged degenerate, with the
isolated rates at zero; it is excluded from rate statistics.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .allocation import AllocationResult, solve_allocation
from .geometry import slot_geometry
from .scenario import Scenario
from .topology import build_slot_graph

DEFAULT_BIN_WIDTH_BPS = 5e6


@dataclass
class RunResult:
    scenario: Optional[Scenario]
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
    """Solve every slot of the horizon.

    isl_enabled overrides the scenario policy; the baseline arm of a
    comparison is the same scenario with ISL capacities forced to zero.
    """
    enabled = scenario.isl_enabled if isl_enabled is None else bool(isl_enabled)
    n = scenario.slot_count
    k = scenario.constellation.satellite_count
    rates = np.zeros((n, k))
    t_star = np.zeros(n)
    direct = np.zeros((n, k))
    relayed = np.zeros((n, k))
    iterations = np.zeros(n, dtype=int)
    serving = []
    allocations = []
    degenerate = []
    altitudes = scenario.gs_altitudes_km()
    stations = list(scenario.stations)
    for slot in range(n):
        geometry = slot_geometry(
            scenario.constellation, stations, scenario.slot_midpoint_s(slot), slot_index=slot
        )
        graph = build_slot_graph(
            geometry,
            scenario.feeder_link,
            scenario.isl,
            scenario.rain_model,
            rain_rates_mm_h=scenario.rain_rates_at(scenario.slot_midpoint(slot)),
            gs_altitudes_km=altitudes,
            policy=scenario.serving_policy,
            isl_enabled=enabled,
        )
        result = solve_allocation(graph, lexicographic=scenario.lexicographic)
        if result.degenerate:
            degenerate.append(slot)
        rates[slot] = result.rates_bps
        t_star[slot] = result.t_star_bps
        for (src, tx, j), frac in result.w.items():
            if src == tx:
                direct[slot, src] += frac * graph.fl_capacity_bps[tx, j]
        for (src, relay, _), frac in result.v.items():
            relayed[slot, src] += frac * graph.isl_capacity_bps[src, relay]
        iterations[slot] = result.iterations
        serving.append(graph.serving_gs)
        allocations.append(result)
    return RunResult(
        scenario=scenario,
        isl_enabled=enabled,
        rates_bps=rates,
        t_star_bps=t_star,
        direct_bps=direct,
        relayed_bps=relayed,
        serving=tuple(serving),
        allocations=allocations,
        degenerate_slots=tuple(degenerate),
        iterations=iterations,
    )


def _series_stats(values: np.ndarray) -> dict:
    if values.size == 0:
        return {"mean_bps": None, "std_bps": None, "min_bps": None, "max_bps": None}
    return {
        "mean_bps": float(values.mean()),
        "std_bps": float(values.std()),
        "min_bps": float(values.min()),
        "max_bps": float(values.max()),
    }


def _histogram(values: np.ndarray, bin_width_bps: float) -> dict:
    if values.size == 0:
        return {"bin_width_bps": bin_width_bps, "bin_start_bps": 0.0, "counts": []}
    top = float(values.max())
    n_bins = max(1, int(np.ceil((top + 1e-9) / bin_width_bps)))
    edges = np.arange(n_bins + 1) * bin_width_bps
    counts, _ = np.histogram(values, bins=edges)
    return {
        "bin_width_bps": bin_width_bps,
        "bin_start_bps": 0.0,
        "counts": [int(c) for c in counts],
    }


def summarize(result: RunResult, bin_width_bps: float = DEFAULT_BIN_WIDTH_BPS) -> dict:
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
        stats["histogram"] = _histogram(series[:, k], bin_width_bps)
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
    if baseline.rates_bps.shape != treatment.rates_bps.shape:
        raise ValueError("mismatched time grids")
    if baseline.scenario is not None and treatment.scenario is not None:
        same = (
            baseline.scenario.start == treatment.scenario.start
            and baseline.scenario.slot_s == treatment.scenario.slot_s
        )
        if not same:
            raise ValueError("mismatched time grids")
    excluded = sorted(set(baseline.degenerate_slots) | set(treatment.degenerate_slots))
    mask = np.ones(baseline.slot_count, dtype=bool)
    mask[excluded] = False
    if not mask.any():
        raise ValueError("no non-degenerate slots to compare")
    base = baseline.rates_bps[mask]
    treat = treatment.rates_bps[mask]
    base_min = float(base.min())
    if base_min <= 0.0:
        raise ValueError("baseline minimum rate must be positive")
    treat_min = float(treat.min())
    base_mean = float(base.mean())
    per_satellite = []
    base_stds = []
    treat_stds = []
    for k in range(baseline.satellite_count):
        b_std = float(base[:, k].std())
        t_std = float(treat[:, k].std())
        base_stds.append(b_std)
        treat_stds.append(t_std)
        per_satellite.append(
            {
                "satellite": k,
                "baseline_mean_bps": float(base[:, k].mean()),
                "treatment_mean_bps": float(treat[:, k].mean()),
                "baseline_std_bps": b_std,
                "treatment_std_bps": t_std,
                "std_reduction_pct": (b_std - t_std) / b_std * 100.0 if b_std > 0 else None,
            }
        )
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
