"""Slot graph construction and serving-station policy."""
from datetime import datetime, timezone

import numpy as np
import pytest

from meoflow.channel import FeederLinkParams, IslParams, RainModelParams, fl_capacity_bps
from meoflow.geometry import ConstellationSpec, GroundStationSpec, ring_neighbors, slot_geometry
from meoflow.topology import POLICY_BEST_CAPACITY, POLICY_LP_FRACTIONAL, build_slot_graph
from test_allocation import make_graph

EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)
FL = FeederLinkParams()
ISL = IslParams(fixed_capacity_override_bps=600e6)
RAIN = RainModelParams(rain_height_km=2.0)


def o3b_setup():
    spec = ConstellationSpec(6, 8062.0, tuple(60.0 * i for i in range(6)), EPOCH)
    stations = [
        GroundStationSpec("dubbo", -32.24, 148.60, 275.0),
        GroundStationSpec("merredin", -31.48, 118.28, 315.0),
        GroundStationSpec("thermopylae", 38.80, 22.54, 50.0),
        GroundStationSpec("phoenix", 33.45, -112.07, 340.0),
        GroundStationSpec("hawaii", 21.31, -158.08, 100.0),
        GroundStationSpec("santiago", -33.45, -70.66, 520.0),
        GroundStationSpec("dubai", 25.20, 55.27, 10.0),
        GroundStationSpec("gandoul", 14.75, -17.10, 40.0),
    ]
    return spec, stations


class TestBuild:
    def test_capacity_only_on_visible_edges(self):
        spec, stations = o3b_setup()
        geom = slot_geometry(spec, stations, EPOCH)
        g = build_slot_graph(geom, FL, ISL, RAIN, policy=POLICY_LP_FRACTIONAL)
        assert np.all((g.fl_capacity_bps > 0) == geom.visible)

    def test_capacity_values_match_channel(self):
        spec, stations = o3b_setup()
        geom = slot_geometry(spec, stations, EPOCH)
        g = build_slot_graph(geom, FL, ISL, RAIN, policy=POLICY_LP_FRACTIONAL)
        for k in range(6):
            for i in range(8):
                if not geom.visible[k, i]:
                    continue
                expected = fl_capacity_bps(
                    float(geom.distances_fl_km[k, i]),
                    float(geom.elevations_deg[k, i]),
                    0.0,
                    FL,
                    RAIN,
                    gs_altitude_km=stations[i].altitude_m / 1000.0,
                )
                assert g.fl_capacity_bps[k, i] == pytest.approx(expected, rel=1e-12)

    def test_ring_isl_edges_only(self):
        spec, stations = o3b_setup()
        geom = slot_geometry(spec, stations, EPOCH)
        g = build_slot_graph(geom, FL, ISL, RAIN)
        for k in range(6):
            for l in range(6):
                if l in ring_neighbors(6)[k]:
                    assert g.isl_capacity_bps[k, l] == 600e6
                else:
                    assert g.isl_capacity_bps[k, l] == 0.0

    def test_isl_disabled_zeroes_matrix(self):
        spec, stations = o3b_setup()
        geom = slot_geometry(spec, stations, EPOCH)
        g = build_slot_graph(geom, FL, ISL, RAIN, isl_enabled=False)
        assert np.all(g.isl_capacity_bps == 0.0)

    def test_rain_strictly_lowers_the_rained_column(self):
        spec, stations = o3b_setup()
        geom = slot_geometry(spec, stations, EPOCH)
        clear = build_slot_graph(geom, FL, ISL, RAIN, policy=POLICY_LP_FRACTIONAL)
        sant = stations.index(next(s for s in stations if s.station_id == "santiago"))
        rates = [0.0] * 8
        rates[sant] = 16.5
        rainy = build_slot_graph(
            geom, FL, ISL, RAIN, rain_rates_mm_h=rates,
            gs_altitudes_km=[s.altitude_m / 1000 for s in stations],
            policy=POLICY_LP_FRACTIONAL,
        )
        col_visible = clear.fl_capacity_bps[:, sant] > 0
        assert np.all(
            rainy.fl_capacity_bps[col_visible, sant] < clear.fl_capacity_bps[col_visible, sant]
        )
        others = [i for i in range(8) if i != sant]
        # altitude thinning only affects the rained site; clear columns identical
        clear_alt = build_slot_graph(
            geom, FL, ISL, RAIN, gs_altitudes_km=[s.altitude_m / 1000 for s in stations],
            policy=POLICY_LP_FRACTIONAL,
        )
        assert np.array_equal(rainy.fl_capacity_bps[:, others], clear_alt.fl_capacity_bps[:, others])

    def test_two_sat_ring_has_two_directed_isl_edges(self):
        g = make_graph([[100e6], [0.0]], [[0, 500e6], [500e6, 0]])
        assert g.neighbors == ((1,), (0,))
        assert g.isl_capacity_bps[0, 1] > 0 and g.isl_capacity_bps[1, 0] > 0


class TestServingPolicy:
    def test_argmax_with_tie_to_lowest_index(self):
        fl = [[200e6, 300e6, 300e6], [100e6, 50e6, 20e6]]
        g = make_graph(fl, np.zeros((2, 2)))
        assert g.serving_gs == (1, 0)  # tie between 1 and 2 goes to 1
        assert g.fl_capacity_bps[0, 0] == 0.0 and g.fl_capacity_bps[0, 2] == 0.0
        assert g.fl_capacity_bps[0, 1] == 300e6

    def test_masking_keeps_exactly_one_edge_per_served_satellite(self):
        spec, stations = o3b_setup()
        geom = slot_geometry(spec, stations, EPOCH)
        g = build_slot_graph(geom, FL, ISL, RAIN, policy=POLICY_BEST_CAPACITY)
        for k in range(6):
            row = g.fl_capacity_bps[k]
            assert (row > 0).sum() == (1 if g.serving_gs[k] is not None else 0)
            if g.serving_gs[k] is not None:
                assert row[g.serving_gs[k]] > 0

    def test_lp_fractional_keeps_all_edges_and_no_serving(self):
        spec, stations = o3b_setup()
        geom = slot_geometry(spec, stations, EPOCH)
        masked = build_slot_graph(geom, FL, ISL, RAIN, policy=POLICY_BEST_CAPACITY)
        free = build_slot_graph(geom, FL, ISL, RAIN, policy=POLICY_LP_FRACTIONAL)
        assert all(s is None for s in free.serving_gs)
        assert (free.fl_capacity_bps > 0).sum() >= (masked.fl_capacity_bps > 0).sum()

    def test_serving_changes_over_horizon_for_every_satellite(self):
        spec, stations = o3b_setup()
        seen = [set() for _ in range(6)]
        for n in range(288):
            geom = slot_geometry(spec, stations, (n + 0.5) * 300.0, slot_index=n)
            g = build_slot_graph(geom, FL, ISL, RAIN)
            for k in range(6):
                if g.serving_gs[k] is not None:
                    seen[k].add(g.serving_gs[k])
        assert all(len(s) > 1 for s in seen)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy 'nearest'"):
            make_graph([[1e6], [1e6]], np.zeros((2, 2)), "nearest")


class TestReachability:
    def test_reachable_matches_bfs_one_hop(self):
        rng = np.random.RandomState(9)
        for _ in range(50):
            k, i = int(rng.randint(2, 6)), int(rng.randint(1, 4))
            fl = rng.uniform(0, 300e6, size=(k, i)) * (rng.rand(k, i) < 0.5)
            isl = np.zeros((k, k))
            for s in range(k):
                for n in ring_neighbors(k)[s]:
                    if rng.rand() < 0.8:
                        isl[s, n] = 400e6
            g = make_graph(fl, isl, POLICY_LP_FRACTIONAL)
            for s in range(k):
                expected = sorted(
                    {
                        j
                        for n in ring_neighbors(k)[s]
                        if isl[s, n] > 0
                        for j in range(i)
                        if fl[n, j] > 0
                    }
                )
                assert np.flatnonzero(g.reachable_gs[s]).tolist() == expected

    def test_relay_only_satellite_not_isolated(self):
        g = make_graph([[250e6], [0.0]], [[0, 600e6], [600e6, 0]])
        assert g.isolated == ()
        assert np.flatnonzero(g.reachable_gs[1]).tolist() == [0]
        assert g.serving_gs == (0, None)

    def test_isolation_with_isl_down(self):
        g = make_graph([[250e6], [0.0]], np.zeros((2, 2)))
        assert g.isolated == (1,)

    def test_isolation_when_neighbors_dark_too(self):
        g = make_graph([[0.0], [0.0], [250e6]], np.zeros((3, 3)))
        assert set(g.isolated) == {0, 1}

    def test_determinism(self):
        spec, stations = o3b_setup()
        geom = slot_geometry(spec, stations, 12345.0)
        a = build_slot_graph(geom, FL, ISL, RAIN)
        b = build_slot_graph(geom, FL, ISL, RAIN)
        assert np.array_equal(a.fl_capacity_bps, b.fl_capacity_bps)
        assert np.array_equal(a.isl_capacity_bps, b.isl_capacity_bps)
        assert a.serving_gs == b.serving_gs
