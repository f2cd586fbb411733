"""The chunk builder against the per-slot loop it replaced, byte for byte.

`allocation.build_chunks` builds a block's slot LPs a group at a time from
the stacked capacities; `build_problem` is its one-slot case.  On random
blocks every LP must equal, in every byte, the one `build_problem` gives
for its slot alone and the one the per-slot loop below builds, and the
memory `solve_block` works in must not grow with the number of slots.
"""
import tracemalloc

import numpy as np
import pytest

from meoflow import engine, simplex
from meoflow.allocation import SCALE_BPS, build_chunks, build_problem, solve_block
from meoflow.geometry import ring_neighbors
from meoflow.scenario import parse_scenario
from meoflow.simplex import CHUNK_ENTRIES, LpProblem
from meoflow.topology import POLICIES, _policy_graphs
from test_slot_range import bundled

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def loop_build_problem(graph):
    """The slot LP as one loop per row kind builds it: the reference."""
    served = [k for k in range(graph.satellite_count) if k not in graph.isolated]
    lit = graph.fl_capacity_bps > 0.0
    direct_edges = list(map(tuple, np.argwhere(lit).tolist()))
    routes = [
        (k, l, j)
        for k, l in np.argwhere(graph.isl_capacity_bps > 0.0).tolist()
        for j in range(graph.station_count)
        if lit[l, j] and j != graph.serving_gs[k]
    ]
    fl = graph.fl_capacity_bps / SCALE_BPS
    isl = graph.isl_capacity_bps / SCALE_BPS
    tags = [("t",)] + [("w_direct", k, j) for k, j in direct_edges]
    first_route = len(tags)
    for route in routes:
        tags += [("v", *route), ("w_relay", *route), ("r", *route)]
    epigraph_row = {k: i for i, k in enumerate(served)}
    packing = len(served) + 2 * len(routes)
    feeder_row = {edge: i for i, edge in enumerate(direct_edges, start=packing)}
    isl_links = sorted({route[:2] for route in routes})
    isl_row = {link: i for i, link in enumerate(isl_links, start=packing + len(feeder_row))}
    matrix = np.zeros((packing + len(feeder_row) + len(isl_row), len(tags)))
    matrix[: len(served), 0] = 1.0
    for w_col, (k, j) in enumerate(direct_edges, start=1):
        matrix[epigraph_row[k], w_col] = -fl[k, j]
        matrix[feeder_row[k, j], w_col] = 1.0
    for i, (k, l, j) in enumerate(routes):
        v_col = first_route + 3 * i
        matrix[epigraph_row[k], v_col + 2] = -1.0
        leg = len(served) + 2 * i
        matrix[leg, v_col + 2] = matrix[leg + 1, v_col + 2] = 1.0
        matrix[leg, v_col] = -isl[k, l]
        matrix[leg + 1, v_col + 1] = -fl[l, j]
        matrix[feeder_row[l, j], v_col + 1] = 1.0
        matrix[isl_row[k, l], v_col] = 1.0
    objective = np.zeros(len(tags))
    objective[0] = 1.0
    rhs = np.zeros(matrix.shape[0])
    rhs[packing:] = 1.0
    return LpProblem(objective=objective, matrix=matrix, rhs=rhs, variable_tags=tuple(tags))


def assert_same_bytes(got, want):
    assert got.variable_tags == want.variable_tags
    for name in ("matrix", "rhs", "objective"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


CAPACITIES = [100e6, 250e6, 250e6, 400e6]  # a repeat, so best-capacity meets ties


@st.composite
def blocks(draw):
    """A block of 1-8 slots of 2-5 satellites over 1-4 stations, as
    `range_graphs` would hand it over: some satellites or whole slots dark,
    positive ISLs off the ring too, or none at all (the no-ISL arm)."""
    n, k, i = draw(st.integers(1, 8)), draw(st.integers(2, 5)), draw(st.integers(1, 4))
    fl = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, *CAPACITIES]), min_size=n * k * i, max_size=n * k * i)))
    fl = fl.reshape(n, k, i)
    dark = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    fl[np.array(dark)] = 0.0
    isl = np.zeros((n, k, k))
    arm = draw(st.sampled_from(["ring", "off-ring", "none"]))
    if arm != "none":
        for s, nbrs in enumerate(ring_neighbors(k)):
            isl[:, s, list(nbrs)] = 600e6
        isl *= np.array(draw(st.lists(st.booleans(), min_size=n * k * k, max_size=n * k * k))).reshape(n, k, k)
    if arm == "off-ring":
        extra = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 500e6]), min_size=n * k * k, max_size=n * k * k)))
        isl = np.maximum(isl, extra.reshape(n, k, k) * (1 - np.eye(k)))
    policy = draw(st.sampled_from(POLICIES))
    return _policy_graphs(list(range(n)), fl, isl, ring_neighbors(k), policy)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(blocks(), st.sampled_from([1, 64, 256, CHUNK_ENTRIES]))
def test_block_lps_equal_each_slots_own(graphs, chunk_entries):
    # small chunks put group boundaries between slots of different shapes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "CHUNK_ENTRIES", chunk_entries)
        built = [triple for group in build_chunks(graphs) for triple in group]
    assert [graph for graph, _, _ in built] == graphs
    for graph, problem, _ in built:
        assert_same_bytes(problem, build_problem(graph))
        assert_same_bytes(problem, loop_build_problem(graph))


def test_blocks_cover_what_they_must():
    # the cases the block strategy is there for, each met at least once
    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(blocks())
    def note(graphs):
        for graph in graphs:
            isl = graph.isl_capacity_bps
            problem = build_problem(graph)
            routes = [tag[1:] for tag in problem.variable_tags if tag[0] == "r"]
            seen.add(("isolated", 0 < len(graph.isolated) < graph.satellite_count))
            seen.add(("all isolated", len(graph.isolated) == graph.satellite_count))
            seen.add(("no ISL", not isl.any() and problem.rhs.size > 0))
            seen.add(("off-ring route", any(l not in graph.neighbors[k] for k, l, _ in routes)))
            seen.add(("serving station excluded", any(
                isl[k, l] > 0 and graph.fl_capacity_bps[l, graph.serving_gs[k]] > 0
                for k in range(graph.satellite_count) if graph.serving_gs[k] is not None
                for l in range(graph.satellite_count)
            )))

    note()
    wanted = ["isolated", "all isolated", "no ISL", "off-ring route", "serving station excluded"]
    assert {(case, True) for case in wanted} <= seen


@pytest.fixture(scope="module")
def o3b_rain_slot():
    """The o3b_rain lp-fractional ISL-arm slot graph of the largest LP."""
    data = bundled("o3b_rain")
    data["policies"]["serving_gs"] = "lp-fractional"
    sc = parse_scenario(data, name="o3b_rain")
    graphs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "solve_block", lambda block, lexicographic: graphs.extend(block) or [])
        engine._solve_slots(sc, True, range(sc.slot_count))
    return max(graphs, key=lambda graph: build_problem(graph).matrix.size)


def test_groups_are_chunks_of_the_stage2_lps(o3b_rain_slot):
    # a stage-2 LP has one row more than its stage-1 LP; a chunk also
    # counts the cost row and the rhs column
    rows, cols = build_problem(o3b_rain_slot).matrix.shape
    per_group = CHUNK_ENTRIES // ((rows + 2) * (cols + 1))
    sizes = [len(group) for group in build_chunks([o3b_rain_slot] * 64)]
    assert sum(sizes) == 64 and sizes[:-1] == [per_group] * (len(sizes) - 1) and sizes[-1] <= per_group


def working_memory(graphs):
    """The tracemalloc peak of `solve_block` over `graphs`, less what its results hold."""
    tracemalloc.start()
    try:
        results = solve_block(graphs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == len(graphs)
    return peak - held


def test_solve_block_memory_does_not_grow_with_the_block(o3b_rain_slot):
    # the results grow with the block, 12 kB a slot here, and are left out;
    # building every LP of 256 slots at once would hold about 21 MB of
    # matrices, and a group kept alive past its solve about 4 MB more
    small, large = (working_memory([o3b_rain_slot] * n) for n in (32, 256))
    assert large <= 1.25 * small, (small, large)
