"""The slot-range path against the per-slot wrappers, bit for bit.

`engine` builds the slot graphs of each process's range at once, in blocks,
through `range_geometry` and `range_graphs`.  `slot_geometry` and
`build_slot_graph` are the one-slot entry points of the same code.  Every
slot graph the engine builds must equal the one the wrappers build, and the
array link budgets must equal the scalar ones entry by entry.
"""
import dataclasses
import importlib.util
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from meoflow import engine
from meoflow.channel import fl_capacity_bps, isl_capacity_bps
from meoflow.geometry import range_geometry, ring_neighbors, slot_geometry
from meoflow.scenario import parse_scenario
from meoflow.topology import POLICIES, build_slot_graph

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_scenarios", ROOT / "perfbench" / "scenarios.py")
perfbench_scenarios = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_scenarios)


def bundled(name):
    return json.loads((resources.files("meoflow") / "scenarios" / f"{name}.json").read_text())


def toy3_physical_isl():
    data = bundled("toy3")
    data["isl"] = {"sensitivity_dbm": -200}  # the physical budget, every ring ISL usable
    return data


SCENARIOS = {
    **{name: lambda name=name: bundled(name) for name in ("o3b_clear", "o3b_rain", "toy2", "toy3")},
    "toy3_physical_isl": toy3_physical_isl,
    **{
        workload: lambda workload=workload: json.loads(perfbench_scenarios.generate(workload, 0, ROOT))
        for workload in ("rain_compare", "rain_fractional", "dense_ground")
    },
}


def scenario(name, policy):
    data = SCENARIOS[name]()
    data.setdefault("policies", {})["serving_gs"] = policy
    return parse_scenario(data, name=name)


def engine_graphs(monkeypatch, sc, isl_enabled):
    graphs = []
    monkeypatch.setattr(engine, "solve_allocation", lambda graph, lexicographic: graphs.append(graph))
    engine._solve_slots(sc, isl_enabled, range(sc.slot_count))
    return graphs


def wrapper_graph(sc, slot, isl_enabled):
    geometry = slot_geometry(sc.constellation, list(sc.stations), sc.slot_midpoint_s(slot), slot_index=slot)
    return build_slot_graph(
        geometry,
        sc.feeder_link,
        sc.isl,
        sc.rain_model,
        rain_rates_mm_h=sc.rain_rates_at(sc.slot_midpoint(slot)),
        gs_altitudes_km=sc.gs_altitudes_km(),
        policy=sc.serving_policy,
        isl_enabled=isl_enabled,
    )


@pytest.mark.parametrize("isl_enabled", [True, False], ids=["isl", "no_isl"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", SCENARIOS)
def test_engine_graphs_equal_the_per_slot_wrappers(monkeypatch, name, policy, isl_enabled):
    sc = scenario(name, policy)
    graphs = engine_graphs(monkeypatch, sc, isl_enabled)
    assert [g.slot_index for g in graphs] == list(range(sc.slot_count))
    for graph in graphs:
        one = wrapper_graph(sc, graph.slot_index, isl_enabled)
        assert np.array_equal(graph.fl_capacity_bps, one.fl_capacity_bps), graph.slot_index
        assert np.array_equal(graph.isl_capacity_bps, one.isl_capacity_bps), graph.slot_index
        assert graph.serving_gs == one.serving_gs
        assert graph.reachable_gs == one.reachable_gs
        assert graph.isolated == one.isolated
    if isl_enabled:
        assert any(g.isl_capacity_bps.any() for g in graphs)


@pytest.mark.parametrize("name", ["dense_ground", "rain_compare"])
def test_array_feeder_budget_equals_the_scalar_one_entry_by_entry(name):
    # numpy's own log10, power and log2 would move some of these in the last bit
    sc = scenario(name, POLICIES[0])
    n = sc.slot_count
    _, _, dist, elev, visible, _ = range_geometry(sc.constellation, sc.stations, [sc.slot_midpoint_s(s) for s in range(n)])
    rates = np.broadcast_to(np.array([sc.rain_rates_at(sc.slot_midpoint(s)) for s in range(n)])[:, None, :], dist.shape)
    alts = np.broadcast_to(np.array(sc.gs_altitudes_km()), dist.shape)
    entries = [a[visible] for a in (dist, elev, rates, alts)]
    assert (entries[2] > 0).any()
    got = fl_capacity_bps(entries[0], entries[1], entries[2], sc.feeder_link, sc.rain_model, entries[3])
    want = [fl_capacity_bps(d, e, r, sc.feeder_link, sc.rain_model, a) for d, e, r, a in zip(*(x.tolist() for x in entries))]
    assert np.array_equal(got, want)


def test_array_isl_budget_equals_the_scalar_one_entry_by_entry():
    sc = scenario("toy3_physical_isl", POLICIES[0])
    times = np.linspace(0.0, sc.constellation.orbital_period_s, 97)
    dist_isl = range_geometry(sc.constellation, sc.stations, times)[-1]
    pairs = [(s, n) for s, nbrs in enumerate(ring_neighbors(3)) for n in nbrs]
    ranges = np.array([[d[s, n] for s, n in pairs] for d in dist_isl])
    for params in (sc.isl, dataclasses.replace(sc.isl, sensitivity_dbm=-35.5, aperture_diameter_m=0.5)):
        got = isl_capacity_bps(ranges, params)
        assert got.shape == ranges.shape
        assert np.array_equal(got.ravel(), [isl_capacity_bps(d, params) for d in ranges.ravel().tolist()])


def run_arrays(result):
    return (
        result.rates_bps,
        result.t_star_bps,
        result.direct_bps,
        result.relayed_bps,
        np.array(result.serving, dtype=object),
        np.array(result.degenerate_slots),
        result.iterations,
    )


@pytest.mark.parametrize("slots_per_block", [1, 7])
def test_block_boundaries_leave_the_run_unchanged(monkeypatch, slots_per_block):
    # 7 slots per block puts block boundaries inside each process's range
    sc = scenario("o3b_rain", POLICIES[0])
    default = engine.run(sc)
    k, i = sc.constellation.satellite_count, len(sc.stations)
    monkeypatch.setattr(engine, "BLOCK_ENTRIES", slots_per_block * k * (i + k))
    blocks = []
    range_graphs = engine.range_graphs
    monkeypatch.setattr(engine, "range_graphs", lambda slots, *args: blocks.append(slots) or range_graphs(slots, *args))
    blocked = engine.run(sc)
    assert blocks and all(len(block) <= slots_per_block for block in blocks)
    for got, want in zip(run_arrays(blocked), run_arrays(default)):
        assert np.array_equal(got, want)
