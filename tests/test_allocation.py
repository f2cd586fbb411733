"""Per-slot max-min rate allocation against independent oracles.

The grid oracle exhaustively scans relay-share fractions on a fixed step and
evaluates the resulting min rate directly from the capacity matrices, without
touching the LP machinery.  It only supports instances where every satellite
has at most one usable feeder edge (the best-capacity policy guarantees that)
and every directed inter-satellite edge carries at most one relay route, so a
route's share of the relay's feeder edge is the single free variable per route.
"""
import numpy as np
import pytest

from meoflow.allocation import (
    LEXICO_SLACK,
    Route,
    build_problem,
    enumerate_routes,
    lexicographic_refine,
    solve_allocation,
)
from meoflow.simplex import EQ, GE, STATUS_OPTIMAL, solve
from meoflow.topology import POLICY_BEST_CAPACITY, POLICY_LP_FRACTIONAL, SlotGraph, select_serving_gs
from meoflow.geometry import ring_neighbors

MBPS = 1e6
STEP = 0.005


def make_graph(fl_bps, isl_bps, policy=POLICY_BEST_CAPACITY):
    fl_bps = np.asarray(fl_bps, dtype=float)
    k = fl_bps.shape[0]
    g = SlotGraph(
        slot_index=0,
        fl_capacity_bps=fl_bps,
        isl_capacity_bps=np.asarray(isl_bps, dtype=float),
        neighbors=ring_neighbors(k),
        serving_gs=(None,) * k,
        reachable_gs=((),) * k,
        isolated=(),
    )
    return select_serving_gs(g, policy)


def grid_oracle_t_bps(graph, step=STEP):
    """Exhaustive scan over route shares; returns the best min rate found."""
    routes = enumerate_routes(graph)
    assert len(routes) <= 3, "oracle only handles up to three free dimensions"
    k = graph.satellite_count
    own_cap = np.array(
        [graph.fl_capacity_bps[s, graph.serving_gs[s]] if graph.serving_gs[s] is not None else 0.0 for s in range(k)]
    )
    # each directed ISL edge must carry at most one route for the
    # share-per-route parameterization to cover the feasible set
    edges = [(r.source, r.relay) for r in routes]
    assert len(edges) == len(set(edges))
    if not routes:
        return float(own_cap.min())

    axes = [np.arange(0.0, 1.0 + step / 2, step) for _ in routes]
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    rates = []
    for s in range(k):
        taken = 0.0
        for r, a in zip(routes, grids):
            if r.relay == s:
                taken = taken + a
        r_s = own_cap[s] * np.maximum(0.0, 1.0 - taken)
        for r, a in zip(routes, grids):
            if r.source == s:
                leg_fl = a * graph.fl_capacity_bps[r.relay, r.gs]
                r_s = r_s + np.minimum(leg_fl, graph.isl_capacity_bps[r.source, r.relay])
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
        # no rate column or row for the isolated satellite: the LP is the one
        # of the served pair alone, t* is their minimum and its rate is 0
        g = make_graph([[300e6], [200e6], [0.0]], np.zeros((3, 3)))
        assert g.isolated == (2,)
        res = solve_allocation(g)
        assert res.degenerate
        assert res.rates_bps[2] == 0.0
        assert res.t_star_bps == pytest.approx(200e6, abs=1e-3)
        problem = build_problem(g)
        assert ("rate", 2) not in problem.variable_tags
        pair = build_problem(make_graph([[300e6], [200e6]], np.zeros((2, 2))))
        assert problem.rows == pair.rows and list(problem.senses) == list(pair.senses)

    def test_all_isolated_slot_has_no_lp(self):
        res = solve_allocation(make_graph([[0.0], [0.0]], np.zeros((2, 2))))
        assert res.degenerate
        assert res.t_star_bps == 0.0 and res.iterations == 0
        assert np.array_equal(res.rates_bps, [0.0, 0.0])
        assert res.w == {} and res.v == {}
        assert not res.fl_rates_bps.any() and not res.isl_rates_bps.any()


class TestRouteEnumeration:
    def test_routes_skip_own_serving_station(self):
        # both satellites see the same station; relaying to your own serving
        # station is pointless and excluded
        g = make_graph([[300e6], [200e6]], [[0, 600e6], [600e6, 0]])
        assert enumerate_routes(g) == []

    def test_routes_present_for_cross_stations(self):
        g = make_graph([[300e6, 0.0], [0.0, 200e6]], [[0, 600e6], [600e6, 0]])
        assert set(enumerate_routes(g)) == {Route(0, 1, 1), Route(1, 0, 0)}

    def test_route_needs_both_legs(self):
        g = make_graph([[300e6, 0.0], [0.0, 200e6]], [[0, 600e6], [0.0, 0]])
        assert enumerate_routes(g) == [Route(0, 1, 1)]


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
        # from scratch must reach the same total, in more pivots, and the
        # pin t >= t* - LEXICO_SLACK must hold for every served satellite
        rng = np.random.RandomState(29)
        warm_pivots = cold_pivots = 0
        for _ in range(200):
            g = random_small_graph(rng)
            problem = build_problem(g)
            stage1 = solve(problem)
            t_star = stage1.objective_value
            refined, warm = lexicographic_refine(problem, t_star, stage1)
            cold = solve(refined)
            assert warm.status == cold.status == STATUS_OPTIMAL
            assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9)
            warm_pivots += warm.iteration_count
            cold_pivots += cold.iteration_count
            for k in range(g.satellite_count):
                if k not in g.isolated:
                    assert warm.values[problem.column(("rate", k))] >= t_star - LEXICO_SLACK
        assert warm_pivots < cold_pivots


class TestOptimalityCertificate:
    def test_pushing_min_rate_higher_is_infeasible(self):
        g = make_graph([[300e6], [0.0]], [[0, 100e6], [100e6, 0]])
        res = solve_allocation(g)
        problem = build_problem(g)
        t_col = problem.column(("t",))
        bumped = 1.001 * res.t_star_bps / MBPS
        problem.rows.append({t_col: 1.0})
        problem.senses = list(problem.senses) + [GE]
        problem.rhs = np.append(np.asarray(problem.rhs, dtype=float), bumped)
        sol = solve(problem)
        assert sol.status == "infeasible"


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
