"""Output checks for the benchmark, with HiGHS as an independent LP oracle.

The oracle does not reuse ``meoflow.allocation``.  It takes the per-slot
capacities from meoflow's public ``SlotGraph`` and states the max-min
problem directly over link rates in Mbit/s:

    maximize t
    s.t.  t <= sum_j x[k,j] + sum_(l,j) y[k,l,j]     every non-isolated k
          x[l,j] + sum_k y[k,l,j] <= c_fl[l,j]        every feeder edge
          sum_j y[k,l,j] <= c_isl[k,l]                every directed ISL
          x, y >= 0

where x is a satellite's traffic on its own feeder links and y[k,l,j] is
k's traffic relayed over the ISL to l and down l's link to station j.  As
in the model, traffic is never relayed to the source's own serving
station.  The LP is solved with ``scipy.optimize.linprog(method="highs")``.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

T_STAR_RTOL = 1e-6
MBPS = 1e6


def oracle_t_star_bps(graph) -> float:
    from scipy.optimize import linprog

    fl = graph.fl_capacity_bps / MBPS
    isl = graph.isl_capacity_bps / MBPS
    k_count, i_count = fl.shape
    served = [k for k in range(k_count) if k not in graph.isolated]
    if not served:
        return 0.0
    direct = [(k, j) for k in range(k_count) for j in range(i_count) if fl[k, j] > 0.0]
    relay = [
        (k, l, j)
        for k in range(k_count)
        for l in range(k_count)
        if isl[k, l] > 0.0
        for j in range(i_count)
        if fl[l, j] > 0.0 and j != graph.serving_gs[k]
    ]
    feeder_edges = sorted(set(direct) | {(l, j) for _, l, j in relay})
    isl_edges = sorted({(k, l) for k, l, _ in relay})
    rate_row = {k: i for i, k in enumerate(served)}
    feeder_row = {e: len(served) + i for i, e in enumerate(feeder_edges)}
    isl_row = {e: len(served) + len(feeder_edges) + i for i, e in enumerate(isl_edges)}
    n_cols = 1 + len(direct) + len(relay)
    a = np.zeros((len(served) + len(feeder_edges) + len(isl_edges), n_cols))
    b = np.zeros(a.shape[0])
    a[: len(served), 0] = 1.0
    for c, (k, j) in enumerate(direct, start=1):
        a[rate_row[k], c] = -1.0
        a[feeder_row[(k, j)], c] = 1.0
    for c, (k, l, j) in enumerate(relay, start=1 + len(direct)):
        a[rate_row[k], c] = -1.0
        a[feeder_row[(l, j)], c] = 1.0
        a[isl_row[(k, l)], c] = 1.0
    for (l, j), r in feeder_row.items():
        b[r] = fl[l, j]
    for (k, l), r in isl_row.items():
        b[r] = isl[k, l]
    cost = np.zeros(n_cols)
    cost[0] = -1.0
    res = linprog(cost, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"slot {graph.slot_index}: HiGHS status {res.status} ({res.message})")
    return -res.fun * MBPS


def slot_graphs(scenario, isl_enabled: bool):
    """Every slot's capacity graph, through meoflow's public API."""
    import meoflow

    stations = list(scenario.stations)
    altitudes = scenario.gs_altitudes_km()
    for n in range(scenario.slot_count):
        geometry = meoflow.slot_geometry(
            scenario.constellation, stations, scenario.slot_midpoint_s(n), slot_index=n
        )
        yield meoflow.build_slot_graph(
            geometry,
            scenario.feeder_link,
            scenario.isl,
            scenario.rain_model,
            rain_rates_mm_h=scenario.rain_rates_at(scenario.slot_midpoint(n)),
            gs_altitudes_km=altitudes,
            policy=scenario.serving_policy,
            isl_enabled=isl_enabled,
        )


def oracle(scenario, isl_enabled: bool) -> tuple[list[float], list[int]]:
    """Oracle t* per slot in bit/s, and the slots with an isolated satellite."""
    t_star, isolated = [], []
    for graph in slot_graphs(scenario, isl_enabled):
        t_star.append(oracle_t_star_bps(graph))
        if graph.isolated:
            isolated.append(graph.slot_index)
    return t_star, isolated


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= T_STAR_RTOL * max(abs(reference), 1.0)


def check_arm(label, t_star, rates, flagged, oracle_t, oracle_isolated) -> list[str]:
    """t* against the oracle, rates against t*, flagged slots against isolation."""
    problems = []
    if len(t_star) != len(oracle_t):
        return [f"{label}: {len(t_star)} slots written, {len(oracle_t)} expected"]
    for n, (got, want) in enumerate(zip(t_star, oracle_t)):
        if not _close(got, want):
            problems.append(f"{label}: slot {n} t* {got!r} bps, HiGHS {want!r} bps")
    if sorted(flagged) != oracle_isolated:
        problems.append(f"{label}: flagged slots {sorted(flagged)}, isolated {oracle_isolated}")
    for n, row in enumerate(rates):
        if n in flagged:
            continue
        low = min(row)
        if low < t_star[n] - T_STAR_RTOL * abs(t_star[n]):
            problems.append(f"{label}: slot {n} rate {low!r} bps below t* {t_star[n]!r} bps")
    return problems


def _exit_problems(codes, flagged) -> list[str]:
    want = 3 if flagged else 0
    if codes[0] != want:
        return [f"exit code {codes[0]}, expected {want} with {len(flagged)} flagged slots"]
    if any(code != 0 for code in codes[1:]):
        return [f"plot exit codes {codes[1:]}"]
    return []


def check_compare(out: Path, codes, scenario) -> list[str]:
    doc = json.loads((out / "compare.json").read_text())
    series = doc["series"]
    flagged = set(series["degenerate_slots"])
    problems = _exit_problems(codes, flagged)
    base_t, base_iso = oracle(scenario, isl_enabled=False)
    treat_t, treat_iso = oracle(scenario, isl_enabled=True)
    both_iso = sorted(set(base_iso) | set(treat_iso))
    problems += check_arm(
        "no-ISL arm", series["baseline_t_star_bps"], series["baseline_rates_bps"], flagged, base_t, both_iso
    )
    problems += check_arm(
        "ISL arm", series["treatment_t_star_bps"], series["treatment_rates_bps"], flagged, treat_t, both_iso
    )
    for n, (b, t) in enumerate(zip(series["baseline_t_star_bps"], series["treatment_t_star_bps"])):
        if n not in flagged and t < b - T_STAR_RTOL * abs(b):
            problems.append(f"slot {n}: ISL arm t* {t!r} below no-ISL arm {b!r}")
    included = [n for n in range(len(series["times_s"])) if n not in flagged]
    base_min = min(min(series["baseline_rates_bps"][n]) for n in included)
    treat_min = min(min(series["treatment_rates_bps"][n]) for n in included)
    if treat_min < base_min:
        problems.append(f"ISL arm minimum rate {treat_min!r} below no-ISL arm {base_min!r}")
    for kind in ("timeseries", "histogram"):
        for k in range(scenario.constellation.satellite_count):
            if not (out / f"{kind}_sat{k}.svg").is_file():
                problems.append(f"{kind}_sat{k}.svg missing")
    return problems


def check_run(out: Path, codes, scenario, isl_enabled: bool) -> list[str]:
    flagged = set(json.loads((out / "summary.json").read_text())["summary"]["degenerate_slots"])
    problems = _exit_problems(codes, flagged)
    t_star: list[float] = []
    rates: list[list[float]] = []
    csv_flagged = set()
    with (out / "results.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            n = int(row["slot"])
            if n == len(t_star):
                t_star.append(float(row["t_star_bps"]))
                rates.append([])
            elif float(row["t_star_bps"]) != t_star[n]:
                problems.append(f"results.csv: slot {n} rows disagree on t*")
            rates[n].append(float(row["rate_bps"]))
            if row["degenerate"] == "1":
                csv_flagged.add(n)
    if csv_flagged != flagged:
        problems.append("results.csv and summary.json flag different slots")
    oracle_t, oracle_iso = oracle(scenario, isl_enabled)
    return problems + check_arm("run", t_star, rates, flagged, oracle_t, oracle_iso)
