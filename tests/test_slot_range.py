"""The slot-range path against the per-slot wrappers, bit for bit.

`engine` builds the slot graphs of each process's range at once, in blocks,
through `range_geometry` and `range_graphs`, and solves each block's LPs
together, in chunks.  `slot_geometry` and `build_slot_graph` are the
one-slot entry points of the same code.  Every slot graph the engine builds
must equal the one the wrappers build, the array link budgets must equal
the scalar ones entry by entry, block and chunk boundaries must not change
a run, and every no-ISL slot's t* must equal its closed form.
"""
import dataclasses
import hashlib
import importlib.util
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from meoflow import allocation, engine, simplex
from meoflow.allocation import build_problem
from meoflow.channel import fl_capacity_bps, isl_capacity_bps
from meoflow.geometry import range_geometry, ring_neighbors, slot_geometry
from meoflow.scenario import parse_scenario
from meoflow.topology import POLICIES, build_slot_graph

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_scenarios", ROOT / "perfbench" / "scenarios.py")
perfbench_scenarios = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_scenarios)


def bundled(name):
    """The bundled scenario `name`'s JSON as a dict: the tests' one loader of a bundled scenario to parse."""
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
    monkeypatch.setattr(engine, "solve_block", lambda block, lexicographic: graphs.extend(block) or [])
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
        assert np.array_equal(graph.reachable_gs, one.reachable_gs)
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


@pytest.mark.parametrize("lps_per_chunk", [1, 7])
@pytest.mark.parametrize("isl_enabled", [True, False], ids=["isl", "no_isl"])
def test_chunk_boundaries_leave_the_run_unchanged(monkeypatch, isl_enabled, lps_per_chunk):
    # CHUNK_ENTRIES of lps_per_chunk stage-2 tableaus of the arm's largest
    # slot LP: a chunk of LPs of that shape holds lps_per_chunk of them, and
    # one of smaller LPs may hold more.  Every no-ISL LP of o3b_rain has the
    # same shape.
    sc = scenario("o3b_rain", POLICIES[0])
    default = engine.run(sc, isl_enabled)
    with monkeypatch.context() as patch:
        shapes = [build_problem(graph).matrix.shape for graph in engine_graphs(patch, sc, isl_enabled)]
    rows, cols = max(r for r, _ in shapes), max(c for _, c in shapes)
    cap = lps_per_chunk * (rows + 2) * (cols + 1)
    monkeypatch.setattr(simplex, "CHUNK_ENTRIES", cap)
    chunks = []
    solve_batch = allocation.solve_batch

    def recorded(problems, max_iterations=None, *, bases=None):
        # a continued LP starts with the rows and columns of its problem, as a cold one does
        padded = (max(p.matrix.shape[0] for p in problems) + 1) * (max(p.matrix.shape[1] for p in problems) + 1)
        chunks.append((len(problems), len(problems) * padded))
        return solve_batch(problems, max_iterations, bases=bases)

    monkeypatch.setattr(allocation, "solve_batch", recorded)
    chunked = engine.run(sc, isl_enabled)
    assert all(count == 1 or entries <= cap for count, entries in chunks)
    most = max(count for count, _ in chunks)
    assert most == lps_per_chunk if not isl_enabled else most >= lps_per_chunk
    for got, want in zip(run_arrays(chunked), run_arrays(default)):
        assert np.array_equal(got, want)


def no_isl_slots(monkeypatch, sc):
    """(graph, result) of every slot of `sc`'s no-ISL arm."""
    solved = []
    solve_block = engine.solve_block

    def recorded(graphs, lexicographic):
        results = solve_block(graphs, lexicographic)
        solved.extend(zip(graphs, results))
        return results

    monkeypatch.setattr(engine, "solve_block", recorded)
    engine._solve_slots(sc, False, range(sc.slot_count))
    assert len(solved) == sc.slot_count
    return solved


@pytest.mark.parametrize("name", SCENARIOS)
def test_no_isl_t_star_is_the_smallest_feeder_sum(monkeypatch, name):
    # with no relay route the slot LP separates: a served satellite's rate
    # is at most the sum of its feeder capacities, each edge used in full,
    # so t* is the smallest such sum; an independent check of the simplex,
    # each scenario under its own serving policy
    sc = parse_scenario(SCENARIOS[name](), name=name)
    for graph, result in no_isl_slots(monkeypatch, sc):
        served = [k for k in range(graph.satellite_count) if k not in graph.isolated]
        closed_form = graph.fl_capacity_bps[served].sum(1).min() if served else 0.0
        assert abs(result.t_star_bps - closed_form) <= 1e-15 * closed_form, graph.slot_index


@pytest.mark.parametrize("name", [name for name in SCENARIOS if parse_scenario(SCENARIOS[name](), name=name).lexicographic])
def test_no_isl_stage2_rates_are_the_feeder_sums(monkeypatch, name):
    # stage 2 maximizes the total rate, which with no relay route is every
    # feeder edge used in full: each satellite's rate is its feeder sum (0
    # for an isolated one).  Bit-equal in 279 of the 288 slots of o3b_clear,
    # o3b_rain and rain_compare, 1 ulp (1.2e-16 relative) off in the other 9;
    # rain_fractional, under lp-fractional, is bit-equal in 51 of 288 and at
    # most 2 ulps (3.5e-16) off.  The bound, 1e-15 relative, is t*'s above.
    sc = parse_scenario(SCENARIOS[name](), name=name)
    for graph, result in no_isl_slots(monkeypatch, sc):
        closed_form = graph.fl_capacity_bps.sum(1)
        assert np.all(np.abs(result.rates_bps - closed_form) <= 1e-15 * closed_form), graph.slot_index


def lp_digest(graphs):
    """sha256 over every slot's `build_problem`: its tags, matrix, rhs and objective."""
    h = hashlib.sha256()
    for graph in graphs:
        problem = build_problem(graph)
        h.update(repr(problem.variable_tags).encode())
        for a in (problem.matrix, problem.rhs, problem.objective):
            h.update(repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()


# the slot LPs of every slot, by (scenario, serving policy, arm)
LP_SHA256 = {
    ("o3b_rain", "best-capacity", "isl"): "314813f0e890c2a44e70d0a2b3736e7c9c4491e35bfe9125c49e348f48866683",
    ("o3b_rain", "best-capacity", "no_isl"): "5b4d9ed9381de3997038c48a9a357172b361eee72eefa684528c59a92f34e311",
    ("o3b_rain", "lp-fractional", "isl"): "e026fcd8423cfe20757cce039b96b136776026485d1506f7abb9252b06384f73",
    ("o3b_rain", "lp-fractional", "no_isl"): "61a591cd22ad7d5c8cbe6a9c6d37c5e1584c3798959889e79bf3038a64e2f14b",
    ("dense_ground", "best-capacity", "isl"): "bdf00196c0518c32b23892a243ee06f2cd5d2703f2bce9c94f323b4f0be63235",
    ("dense_ground", "best-capacity", "no_isl"): "71b2adf680e7ed1f8c93c49e1126013c1199e1ca381ff3076433e1c7c8082b1f",
}


@pytest.mark.parametrize("case", LP_SHA256, ids="-".join)
def test_slot_lps_keep_their_bytes(monkeypatch, case):
    name, policy, arm = case
    graphs = engine_graphs(monkeypatch, scenario(name, policy), arm == "isl")
    assert lp_digest(graphs) == LP_SHA256[case]
