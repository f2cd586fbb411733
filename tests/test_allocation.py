"""Per-slot max-min rate allocation against independent oracles.

The grid oracle exhaustively scans relay-share fractions on a fixed step and
evaluates the resulting min rate directly from the capacity matrices, without
touching the LP machinery.  It only supports instances where every satellite
has at most one usable feeder edge (the best-capacity policy guarantees that)
and every directed inter-satellite edge carries at most one relay route, so a
route's share of the relay's feeder edge is the single free variable per route.
"""
import pickle

import numpy as np
import pytest

from meoflow import allocation, engine, simplex
from meoflow.allocation import (
    LEXICO_SLACK,
    SCALE_BPS,
    AllocationError,
    build_problem,
    decode,
    lexicographic_refine,
    solve_allocation,
    solve_block,
)
from meoflow.scenario import parse_scenario
from meoflow.simplex import LpProblem, solve
from meoflow.topology import POLICY_BEST_CAPACITY, POLICY_LP_FRACTIONAL, _policy_graphs
from meoflow.geometry import ring_neighbors
from test_slot_range import bundled

MBPS = 1e6
STEP = 0.005


def make_graph(fl_bps, isl_bps, policy=POLICY_BEST_CAPACITY):
    """Slot 0's graph of these capacities under `policy`, as `range_graphs` builds it."""
    fl_bps, isl_bps = np.asarray(fl_bps, dtype=float), np.asarray(isl_bps, dtype=float)
    return _policy_graphs([0], fl_bps[None], isl_bps[None], ring_neighbors(fl_bps.shape[0]), policy)[0]


def relay_routes(graph):
    """(source, relay, station) of every relay route, scanned from the
    capacities alone, as perfbench/check.py's oracle does: a usable ISL, a
    feeder link at the relay and never the source's own serving station."""
    k_count, i_count = graph.fl_capacity_bps.shape
    return [
        (k, l, j)
        for k in range(k_count)
        for l in range(k_count)
        if graph.isl_capacity_bps[k, l] > 0.0
        for j in range(i_count)
        if graph.fl_capacity_bps[l, j] > 0.0 and j != graph.serving_gs[k]
    ]


def grid_oracle_t_bps(graph, step=STEP):
    """Exhaustive scan over route shares; returns the best min rate found."""
    routes = relay_routes(graph)
    assert len(routes) <= 3, "oracle only handles up to three free dimensions"
    k = graph.satellite_count
    own_cap = np.array(
        [graph.fl_capacity_bps[s, graph.serving_gs[s]] if graph.serving_gs[s] is not None else 0.0 for s in range(k)]
    )
    # each directed ISL edge must carry at most one route for the
    # share-per-route parameterization to cover the feasible set
    edges = [r[:2] for r in routes]
    assert len(edges) == len(set(edges))
    if not routes:
        return float(own_cap.min())

    axes = [np.arange(0.0, 1.0 + step / 2, step) for _ in routes]
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    rates = []
    for s in range(k):
        taken = 0.0
        for (_, relay, _), a in zip(routes, grids):
            if relay == s:
                taken = taken + a
        r_s = own_cap[s] * np.maximum(0.0, 1.0 - taken)
        for (source, relay, gs), a in zip(routes, grids):
            if source == s:
                leg_fl = a * graph.fl_capacity_bps[relay, gs]
                r_s = r_s + np.minimum(leg_fl, graph.isl_capacity_bps[source, relay])
        # mask share combinations that oversubscribe a feeder edge
        if np.ndim(taken):
            r_s = np.where(taken <= 1.0 + 1e-12, r_s, -np.inf)
        rates.append(r_s)
    worst = rates[0]
    for r_s in rates[1:]:
        worst = np.minimum(worst, r_s)
    return float(np.max(worst))


def assert_matches_grid(graph):
    res = solve_allocation(graph)
    t_grid = grid_oracle_t_bps(graph)
    cmax = max(graph.fl_capacity_bps.max(), graph.isl_capacity_bps.max())
    # the grid point is feasible for the LP; rounding an LP optimum down to
    # the grid costs at most two route shares per satellite rate
    assert res.t_star_bps >= t_grid - 1e-6 * MBPS
    assert res.t_star_bps - t_grid <= 2 * STEP * cmax + 1e-6 * MBPS
    return res


def random_small_graph(rng):
    """Instances with at most three relay routes, mixed shapes."""
    kind = rng.randint(4)
    c = lambda: float(rng.uniform(40, 400)) * MBPS
    ci = lambda: float(rng.uniform(50, 700)) * MBPS
    if kind == 0:
        # lone served satellite plus a dark one
        fl = [[c()], [0.0]]
        isl = [[0.0, ci()], [ci(), 0.0]]
    elif kind == 1:
        # two satellites, two stations, cross relaying both ways
        fl = [[c(), 0.0], [0.0, c()]]
        isl = [[0.0, ci()], [ci(), 0.0]]
    elif kind == 2:
        # three satellites, single station on the first
        fl = [[c()], [0.0], [0.0]]
        isl = np.zeros((3, 3))
        for s in range(3):
            for n in ring_neighbors(3)[s]:
                isl[s][n] = ci()
    else:
        # three satellites, two stations, one dark satellite with one live edge
        fl = [[c(), 0.0], [0.0, c()], [0.0, 0.0]]
        isl = np.zeros((3, 3))
        for s in range(3):
            for n in ring_neighbors(3)[s]:
                isl[s][n] = ci()
        isl[2][1] = 0.0
    return make_graph(fl, isl)


class TestTwoSatRelay:
    def test_relay_split_optimum(self):
        # dark satellite rides the neighbor's feeder; fair split caps both
        # rates at c_fl/2 unless the ISL saturates first
        for c_fl, c_isl in [(300.0, 600.0), (300.0, 100.0), (240.0, 120.0)]:
            g = make_graph([[c_fl * MBPS], [0.0]], [[0, c_isl * MBPS], [c_isl * MBPS, 0]])
            res = solve_allocation(g)
            expected = min(c_isl, c_fl / 2.0) * MBPS
            assert res.t_star_bps == pytest.approx(expected, abs=1e-3)

    def test_no_isl_leaves_dark_satellite_out(self):
        g = make_graph([[300e6], [200e6]], np.zeros((2, 2)))
        res = solve_allocation(g)
        assert res.t_star_bps == pytest.approx(200e6, abs=1e-3)
        assert res.rates_bps[0] == pytest.approx(300e6, abs=1e-3)
        assert not res.v

    def test_isolated_satellite_left_out_of_the_lp(self):
        # no column or row for the isolated satellite: the LP is the one of
        # the served pair alone, t* is their minimum and its rate is 0
        g = make_graph([[300e6], [200e6], [0.0]], np.zeros((3, 3)))
        assert g.isolated == (2,)
        res = solve_allocation(g)
        assert res.degenerate
        assert res.rates_bps[2] == 0.0
        assert res.t_star_bps == pytest.approx(200e6, abs=1e-3)
        problem = build_problem(g)
        pair = build_problem(make_graph([[300e6], [200e6]], np.zeros((2, 2))))
        assert problem.variable_tags == pair.variable_tags
        assert np.array_equal(problem.matrix, pair.matrix) and problem.rhs.tolist() == pair.rhs.tolist()

    def test_all_isolated_slot_has_no_lp(self):
        res = solve_allocation(make_graph([[0.0], [0.0]], np.zeros((2, 2))))
        assert res.degenerate
        assert res.t_star_bps == 0.0 and res.iterations == 0
        assert np.array_equal(res.rates_bps, [0.0, 0.0])
        assert res.w == {} and res.v == {}
        assert not res.fl_rates_bps.any() and not res.isl_rates_bps.any()


def route_tags(graph):
    """(source, relay, station) of each relay route of `build_problem`, from its r columns."""
    return [tag[1:] for tag in build_problem(graph).variable_tags if tag[0] == "r"]


class TestRouteEnumeration:
    def test_routes_skip_own_serving_station(self):
        # both satellites see the same station; relaying to your own serving
        # station is pointless and excluded
        g = make_graph([[300e6], [200e6]], [[0, 600e6], [600e6, 0]])
        assert route_tags(g) == []

    def test_routes_present_for_cross_stations(self):
        g = make_graph([[300e6, 0.0], [0.0, 200e6]], [[0, 600e6], [600e6, 0]])
        assert route_tags(g) == [(0, 1, 1), (1, 0, 0)]

    def test_route_needs_both_legs(self):
        g = make_graph([[300e6, 0.0], [0.0, 200e6]], [[0, 600e6], [0.0, 0]])
        assert route_tags(g) == [(0, 1, 1)]

    def test_any_positive_isl_is_usable_off_the_ring_too(self):
        # 0-2 is no ring pair of four satellites; a positive capacity makes
        # it usable all the same, as it is to both oracles
        isl = np.zeros((4, 4))
        isl[0, 2] = isl[2, 0] = isl[2, 3] = isl[3, 2] = 500e6
        g = make_graph([[300e6, 0.0], [0.0, 0.0], [0.0, 200e6], [0.0, 0.0]], isl, POLICY_LP_FRACTIONAL)
        assert route_tags(g) == relay_routes(g) == [(0, 2, 1), (2, 0, 0), (3, 2, 1)]
        assert g.isolated == (1,)


def route_scan_problem(graph):
    """build_problem's columns and rows, each row made by one scan over all
    routes as a {column: coefficient} dict: the reference for its build."""
    fl = graph.fl_capacity_bps / SCALE_BPS
    isl = graph.isl_capacity_bps / SCALE_BPS
    routes = relay_routes(graph)
    served = [k for k in range(graph.satellite_count) if k not in graph.isolated]
    direct = [(k, j) for k in range(graph.satellite_count) for j in range(graph.station_count) if fl[k, j] > 0.0]
    tags = [("t",)] + [("w_direct", k, j) for k, j in direct]
    tags += [(name, *rt) for rt in routes for name in ("v", "w_relay", "r")]
    col = {tag: i for i, tag in enumerate(tags)}
    rows = []
    for k in served:
        row = {col[("t",)]: 1.0}
        row.update({col[("w_direct", s, j)]: -fl[s, j] for s, j in direct if s == k})
        row.update({col[("r", *rt)]: -1.0 for rt in routes if rt[0] == k})
        rows.append(row)
    for s, l, j in routes:
        rows.append({col[("r", s, l, j)]: 1.0, col[("v", s, l, j)]: -isl[s, l]})
        rows.append({col[("r", s, l, j)]: 1.0, col[("w_relay", s, l, j)]: -fl[l, j]})
    capacity_rows = len(rows)
    for s, j in direct:
        rows.append({col[("w_direct", s, j)]: 1.0, **{col[("w_relay", *rt)]: 1.0 for rt in routes if rt[1:] == (s, j)}})
    # a relay's feeder edge is lit, so it is also a direct edge of the relay:
    # no packing row is left for edges that only relays use
    assert not {rt[1:] for rt in routes} - set(direct)
    for link in sorted({rt[:2] for rt in routes}):
        rows.append({col[("v", *rt)]: 1.0 for rt in routes if rt[:2] == link})
    rhs = [0.0] * capacity_rows + [1.0] * (len(rows) - capacity_rows)
    matrix = np.zeros((len(rows), len(tags)))
    for i, row in enumerate(rows):
        matrix[i, list(row)] = list(row.values())
    return tuple(tags), matrix, rhs


def assert_built_as_route_scan(graph):
    problem = build_problem(graph)
    tags, matrix, rhs = route_scan_problem(graph)
    assert problem.variable_tags == tags
    assert np.array_equal(problem.matrix, matrix)
    assert problem.rhs.tolist() == rhs


class TestBuildProblem:
    def test_random_graphs_match_route_scan(self):
        rng = np.random.RandomState(5)
        for _ in range(400):
            assert_built_as_route_scan(random_small_graph(rng))

    @pytest.mark.parametrize("isl_enabled", [True, False])
    def test_o3b_rain_lp_fractional_slots_match_route_scan(self, monkeypatch, isl_enabled):
        # lp-fractional gives the most routes and feeder edges per slot
        data = bundled("o3b_rain")
        data["policies"]["serving_gs"] = POLICY_LP_FRACTIONAL
        graphs = []
        monkeypatch.setattr(engine, "solve_block", lambda block, lexicographic: graphs.extend(block) or [])
        engine._solve_slots(parse_scenario(data, name="o3b_rain"), isl_enabled, range(288))
        for graph in graphs:
            assert_built_as_route_scan(graph)
        assert len(graphs) == 288


@pytest.mark.parametrize(
    "name,policy,isl_enabled",
    [
        ("o3b_rain", POLICY_BEST_CAPACITY, True),
        ("o3b_rain", POLICY_BEST_CAPACITY, False),
        ("o3b_rain", POLICY_LP_FRACTIONAL, True),
        ("o3b_rain", POLICY_LP_FRACTIONAL, False),
        ("dense_ground", POLICY_BEST_CAPACITY, True),
        ("dense_ground", POLICY_BEST_CAPACITY, False),
    ],
)
def test_no_constraint_row_ever_holds_a_negative_zero(monkeypatch, name, policy, isl_enabled):
    # the simplex kernel skips the columns where the pivot row is zero, which
    # keeps the bytes only while no constraint row holds a -0.0: neither A
    # and b of any slot LP, nor any row but the cost row of a final tableau
    from test_simplex import has_negative_zero
    from test_slot_range import scenario

    solve_batch = allocation.solve_batch
    seen = {1: 0, 2: 0}

    def checked(problems, max_iterations=None, *, bases=None):
        outcomes = solve_batch(problems, max_iterations, bases=bases)
        for problem, solution in zip(problems, outcomes):
            assert not has_negative_zero(problem.matrix) and not has_negative_zero(problem.rhs)
            assert not has_negative_zero(solution.tableau[:-1])
        seen[1 if bases is None else 2] += len(problems)
        return outcomes

    monkeypatch.setattr(allocation, "solve_batch", checked)
    sc = scenario(name, policy)
    engine._solve_slots(sc, isl_enabled, range(sc.slot_count))
    assert seen == {1: sc.slot_count, 2: sc.slot_count if sc.lexicographic else 0}


class TestGridOracle:
    def test_randomized_instances(self):
        rng = np.random.RandomState(42)
        for _ in range(60):
            assert_matches_grid(random_small_graph(rng))

    def test_three_sat_shared_feeder(self):
        # two dark satellites compete for one feeder edge
        g = make_graph(
            [[360e6], [0.0], [0.0]],
            [[0, 500e6, 500e6], [500e6, 0, 500e6], [500e6, 500e6, 0]],
        )
        res = assert_matches_grid(g)
        assert res.t_star_bps == pytest.approx(120e6, abs=1e-3)

    def test_three_sat_one_feeder_degraded(self):
        # halved third feeder; both healthy satellites donate a sixth of
        # theirs and all rates meet at 250
        big = np.full((3, 3), 600e6) - np.diag([600e6] * 3)
        g = make_graph(
            [[300e6, 0, 0], [0, 300e6, 0], [0, 0, 150e6]],
            big,
        )
        res = solve_allocation(g)
        assert res.t_star_bps == pytest.approx(250e6, abs=1e-3)
        assert res.rates_bps.sum() == pytest.approx(750e6, abs=1e-2)


class TestSolutionStructure:
    def test_fraction_bounds_and_capacity_respected(self):
        rng = np.random.RandomState(7)
        for _ in range(30):
            g = random_small_graph(rng)
            res = solve_allocation(g)
            for frac in list(res.w.values()) + list(res.v.values()):
                assert -1e-9 <= frac <= 1.0 + 1e-9
            assert np.all(res.fl_rates_bps <= g.fl_capacity_bps + 1e-3)
            assert np.all(res.isl_rates_bps <= g.isl_capacity_bps + 1e-3)
            # feeder packing: summed fractions per edge within 1
            shares = {}
            for (src, tx, j), frac in res.w.items():
                shares[(tx, j)] = shares.get((tx, j), 0.0) + frac
            for total in shares.values():
                assert total <= 1.0 + 1e-9

    def test_rates_decompose_into_direct_plus_relayed(self):
        rng = np.random.RandomState(11)
        for _ in range(30):
            g = random_small_graph(rng)
            res = solve_allocation(g)
            for s in range(g.satellite_count):
                direct = sum(
                    frac * g.fl_capacity_bps[tx, j]
                    for (src, tx, j), frac in res.w.items()
                    if src == s and tx == s
                )
                relayed = sum(
                    frac * g.isl_capacity_bps[s, relay]
                    for (src, relay, j), frac in res.v.items()
                    if src == s
                )
                assert res.rates_bps[s] == pytest.approx(direct + relayed, abs=1e-3)

    def test_relay_legs_carry_equal_flow(self):
        # decoded fractions are flow-normalized: ISL flow of a route equals
        # its feeder flow at the relay
        rng = np.random.RandomState(23)
        for _ in range(30):
            g = random_small_graph(rng)
            res = solve_allocation(g)
            for (src, relay, j), frac in res.v.items():
                isl_flow = frac * g.isl_capacity_bps[src, relay]
                fl_flow = res.w[(src, relay, j)] * g.fl_capacity_bps[relay, j]
                assert isl_flow == pytest.approx(fl_flow, abs=1e-3)

    def test_epigraph_tight_on_worst_satellite(self):
        rng = np.random.RandomState(31)
        for _ in range(30):
            g = random_small_graph(rng)
            res = solve_allocation(g)
            assert res.t_star_bps <= res.rates_bps.min() + 1e-3

    def test_scale_invariance(self):
        g = make_graph(
            [[317e6, 0.0], [0.0, 143e6], [0.0, 0.0]],
            [[0, 410e6, 0], [410e6, 0, 380e6], [0, 380e6, 0]],
        )
        a = solve_allocation(g)
        g2 = make_graph(np.asarray(g.fl_capacity_bps) * 2, np.asarray(g.isl_capacity_bps) * 2)
        b = solve_allocation(g2)
        assert b.t_star_bps == pytest.approx(2 * a.t_star_bps, rel=1e-9)

    def test_capacities_scaled_by_1e8_solve(self):
        # 3e10 Mbit/s entries in A leave rounding residuals far above an
        # absolute 1e-8, which the audit must not take for infeasibility
        big = (np.full((3, 3), 600e6) - np.diag([600e6] * 3)) * 1e8
        g = make_graph(np.diag([300e6, 300e6, 150e6]) * 1e8, big)
        assert solve_allocation(g).t_star_bps == pytest.approx(250e6 * 1e8, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e6, 1e7, 1e8])
    def test_stage_2_solves_at_huge_capacities(self, scale):
        # satellite 1 has no feeder link and relays through 0: stage 2 gives 0
        # the spare 100 Mbit/s; at x1e7, in Mbit/s, it ended "LP unbounded"
        g = make_graph(np.array([[300e6], [0.0]]) * scale, np.array([[0.0, 100e6], [100e6, 0.0]]) * scale)
        result = solve_allocation(g)
        assert result.t_star_bps == pytest.approx(100e6 * scale, rel=1e-12)
        np.testing.assert_allclose(result.rates_bps, np.array([200e6, 100e6]) * scale, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e-12, 1e-15, 1e-18])
    def test_both_stages_solve_at_tiny_capacities(self, scale):
        # the same graph: at x1e-12, in Mbit/s, every reduced cost was within
        # the pivot tolerance and the solve stopped at t* = 0
        g = make_graph(np.array([[300e6], [0.0]]) * scale, np.array([[0.0, 100e6], [100e6, 0.0]]) * scale)
        result = solve_allocation(g)
        assert result.t_star_bps == pytest.approx(100e6 * scale, rel=1e-12)
        np.testing.assert_allclose(result.rates_bps, np.array([200e6, 100e6]) * scale, rtol=1e-12)

    def test_lp_capacity_unit_is_a_power_of_two_from_the_bound_on(self):
        top = allocation.MAX_LP_CAPACITY
        tops = np.array([0.0, 600.0, np.nextafter(top, 0.0), top, 3 * top, 2.0**40]) * SCALE_BPS  # in bit/s
        units = allocation._units(tops[:, None, None], np.zeros((6, 1, 1)))
        assert units.tolist() == [1.0, 1.0, 1.0, 2.0, 4.0, 2.0**41 / top]
        assert allocation._units(np.zeros((2, 3)), np.full((2, 2), 3 * top * SCALE_BPS)) == 4.0  # one slot, ISLs too

    def test_lp_capacity_unit_is_a_power_of_two_under_the_floor(self):
        low = allocation.MIN_LP_CAPACITY
        tops = np.array([0.0, low, 0.75 * low, low / 2, low / 1024, 2.0**-60]) * SCALE_BPS  # in bit/s
        units = allocation._units(tops[:, None, None], np.zeros((6, 1, 1)))
        assert units.tolist() == [1.0, 1.0, 0.5, 0.5, 2.0**-10, 2.0**-50]  # no capacity: unit 1
        assert allocation._units(np.zeros((2, 3)), np.full((2, 2), 0.75 * low * SCALE_BPS)) == 0.5  # one slot, ISLs too
        tops = low * 2.0 ** np.random.RandomState(3).uniform(-900.0, 0.0, 1000) * SCALE_BPS  # under the floor
        lifted = tops / SCALE_BPS / allocation._units(tops[:, None, None], np.zeros((1000, 1, 1)))
        assert ((lifted >= low) & (lifted < 2 * low)).all()

    @pytest.mark.parametrize(
        "eirp_dbw, policy, isl_enabled, slot",
        [(100.0, POLICY_LP_FRACTIONAL, False, 41), (150.0, POLICY_BEST_CAPACITY, True, 4), (200.0, POLICY_LP_FRACTIONAL, True, 0)],
    )
    def test_o3b_rain_budgets_past_1e7_mbps_pass_the_stage_2_audit(self, eirp_dbw, policy, isl_enabled, slot):
        # each failed its stage-2 audit (or its pivot cap) with capacities in Mbit/s
        data = bundled("o3b_rain")
        data["feeder_link"] = {"bandwidth_hz": 3e12, "eirp_dbw": eirp_dbw}
        data["policies"]["serving_gs"] = policy
        (result,) = engine._solve_slots(parse_scenario(data, name="o3b_rain"), isl_enabled, range(slot, slot + 1))
        assert result.t_star_bps > 1e13
        assert result.rates_bps.min() >= result.t_star_bps * (1 - 1e-9)

    def test_lp_units_are_computed_once_per_block(self, monkeypatch):
        # `build_chunks` scales each slot's capacities by its unit and hands
        # the unit on with the LP, so decode needs no second `_units` call
        calls = dict.fromkeys(["_units", "build_chunks", "_solve_group"], 0)
        for name in calls:
            def counted(*args, _name=name, _real=getattr(allocation, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(allocation, name, counted)
        data = bundled("o3b_rain")
        engine._solve_slots(parse_scenario(data, name="o3b_rain"), True, range(144))
        assert calls == {"_units": 1, "build_chunks": 1, "_solve_group": 2}

    @pytest.mark.parametrize("chunk_entries", [1, simplex.CHUNK_ENTRIES])
    def test_each_slot_of_a_block_decodes_in_its_own_unit(self, monkeypatch, chunk_entries):
        # five units in one block: 1 Mbit/s at x1, the others powers of two;
        # one slot a group at CHUNK_ENTRIES = 1, all six in one group else
        monkeypatch.setattr(simplex, "CHUNK_ENTRIES", chunk_entries)
        fl, isl = np.array([[300e6], [0.0]]), np.array([[0.0, 100e6], [100e6, 0.0]])
        graphs = [make_graph(fl * scale, isl * scale) for scale in (1e-12, 1.0, 1e7, 1.0, 1e-15, 1e8)]
        assert len({allocation._units(g.fl_capacity_bps, g.isl_capacity_bps).item() for g in graphs}) == 5
        for graph, result in zip(graphs, solve_block(graphs), strict=True):
            alone = solve_allocation(graph)
            assert (result.t_star_bps, result.iterations, result.w, result.v) == (alone.t_star_bps, alone.iterations, alone.w, alone.v)
            for name in ("rates_bps", "fl_rates_bps", "isl_rates_bps", "direct_bps", "relayed_bps"):
                assert getattr(result, name).tobytes() == getattr(alone, name).tobytes(), name


class TestLexicographic:
    def spare_capacity_graph(self):
        # min rate pinned by the second satellite; the first has slack that
        # only the refinement stage claims
        return make_graph([[400e6, 0.0], [0.0, 100e6]], np.zeros((2, 2)))

    def test_refinement_preserves_min_and_lifts_total(self):
        g = self.spare_capacity_graph()
        lexi = solve_allocation(g, lexicographic=True)
        plain = solve_allocation(g, lexicographic=False)
        assert lexi.t_star_bps == pytest.approx(plain.t_star_bps, abs=1e-3)
        assert lexi.rates_bps.sum() >= plain.rates_bps.sum() - 1e-3
        assert lexi.rates_bps.sum() == pytest.approx(500e6, abs=1e-3)
        assert lexi.rates_bps.min() >= lexi.t_star_bps - 1e-3

    def test_refinement_never_loses_total_on_random_instances(self):
        rng = np.random.RandomState(5)
        for _ in range(25):
            g = random_small_graph(rng)
            lexi = solve_allocation(g, lexicographic=True)
            plain = solve_allocation(g, lexicographic=False)
            assert lexi.t_star_bps == pytest.approx(plain.t_star_bps, abs=1e-3)
            assert lexi.rates_bps.sum() >= plain.rates_bps.sum() - 1e-3


    def test_warm_stage2_matches_cold_resolve_and_keeps_the_pin(self):
        # stage 2 continues from stage 1's tableau; solving the refined LP
        # from scratch (with HiGHS: its pin row has a negative rhs, which
        # the built-in solver takes only from a base) must reach the same
        # total, and every served satellite's decoded rate must keep the
        # pin t >= t* - LEXICO_SLACK
        from test_oracle import highs

        rng = np.random.RandomState(29)
        for _ in range(200):
            g = random_small_graph(rng)
            problem = build_problem(g)
            stage1 = solve(problem)
            t_star = stage1.objective_value
            refined, warm = lexicographic_refine(problem, t_star)
            cold = highs(refined, refined.objective)
            assert cold.status == 0
            assert warm.objective_value == pytest.approx(-cold.fun, rel=1e-9)
            rates = decode(g, refined, warm, t_star, warm.iteration_count, SCALE_BPS).rates_bps / SCALE_BPS
            for k in range(g.satellite_count):
                if k not in g.isolated:
                    assert rates[k] >= t_star - LEXICO_SLACK


class TestOptimalityCertificate:
    def test_pushing_min_rate_higher_is_infeasible(self):
        # t >= 1.001 t*, appended as -t <= -1.001 t*, cuts off the stage-1
        # optimum, and HiGHS finds no point that meets it (status 2)
        from test_oracle import highs

        g = make_graph([[300e6], [0.0]], [[0, 100e6], [100e6, 0]])
        res = solve_allocation(g)
        problem = build_problem(g)
        bumped = 1.001 * res.t_star_bps / MBPS
        pin = np.zeros(problem.n_variables)
        pin[0] = -1.0  # t
        pushed = LpProblem(
            problem.objective,
            np.vstack([problem.matrix, pin]),
            np.append(problem.rhs, -bumped),
            problem.variable_tags,
        )
        with pytest.raises(ValueError, match="cuts off"):
            solve(pushed, base=solve(problem))
        assert highs(pushed, pushed.objective).status == 2


class TestAllocationError:
    def test_pickles_with_slot_stage_and_reason(self):
        # worker processes send it to the parent
        exc = AllocationError(17, 2, "LP unbounded")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is AllocationError
        assert (back.slot, back.stage, back.reason, str(back)) == (17, 2, "LP unbounded", str(exc))


class TestDeterminism:
    def test_bit_identical_resolve(self):
        rng = np.random.RandomState(17)
        g = random_small_graph(rng)
        a = solve_allocation(g)
        b = solve_allocation(g)
        assert a.t_star_bps == b.t_star_bps
        assert np.array_equal(a.rates_bps, b.rates_bps)
        assert a.w == b.w and a.v == b.v
        assert a.iterations == b.iterations
