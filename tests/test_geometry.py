"""Orbit propagation, geodetic conversion and visibility geometry."""
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from meoflow.geometry import (
    EARTH_RADIUS_KM,
    WGS84_A_KM,
    WGS84_F,
    ConstellationSpec,
    GroundStationSpec,
    elevation_angle,
    geodetic_to_ecef,
    propagate,
    ring_neighbors,
    slot_geometry,
)

EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)


def ring(k=6, alt=8062.0, inc=0.0):
    return ConstellationSpec(
        satellite_count=k,
        altitude_km=alt,
        phase_offsets_deg=tuple(360.0 * i / k for i in range(k)),
        epoch=EPOCH,
        inclination_deg=inc,
    )


# independent oracle: elevation from the plane triangle geocenter / station / satellite
def elevation_oracle_deg(psi_deg, r_gs, r_sat):
    psi = math.radians(psi_deg)
    gs = np.array([r_gs, 0.0, 0.0])
    sat = np.array([r_sat * math.cos(psi), r_sat * math.sin(psi), 0.0])
    d = sat - gs
    return math.degrees(math.asin(np.dot(d, gs) / (np.linalg.norm(d) * r_gs)))


class TestPropagate:
    def test_epoch_positions_on_shell_at_longitude_zero(self):
        spec = ring()
        pos = propagate(spec, EPOCH)
        assert pos.shape == (6, 3)
        np.testing.assert_allclose(np.linalg.norm(pos, axis=1), spec.orbit_radius_km, atol=1e-9)
        np.testing.assert_allclose(pos[0], [spec.orbit_radius_km, 0.0, 0.0], atol=1e-9)

    def test_quarter_period_advances_ninety_degrees(self):
        spec = ring()
        pos = propagate(spec, spec.orbital_period_s / 4.0)
        for k in range(6):
            expected = math.radians(60.0 * k + 90.0)
            got = math.atan2(pos[k, 1], pos[k, 0])
            assert abs(math.remainder(got - expected, 2 * math.pi)) < 1e-9

    def test_full_period_closure(self):
        for k, alt in [(6, 8062.0), (2, 8062.0), (5, 1200.0)]:
            spec = ring(k=k, alt=alt)
            a = propagate(spec, EPOCH)
            b = propagate(spec, spec.orbital_period_s)
            np.testing.assert_allclose(a, b, atol=1e-6)

    def test_inclined_ring_stays_on_shell(self):
        spec = ring(inc=45.0)
        for dt in (0.0, 1000.0, 7777.0):
            pos = propagate(spec, EPOCH + timedelta(seconds=dt))
            np.testing.assert_allclose(np.linalg.norm(pos, axis=1), spec.orbit_radius_km, rtol=1e-12)

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            ConstellationSpec(2, 8062.0, (0.0, 0.0), EPOCH)
        with pytest.raises(ValueError):
            ConstellationSpec(3, 8062.0, (0.0, 240.0, 120.0), EPOCH)
        with pytest.raises(ValueError):
            ConstellationSpec(1, 8062.0, (0.0,), EPOCH)
        # ring neighbors that round to one position would have an ISL of range 0
        for phases in [(0.0, 1e-154, 240.0), (0.0, 120.0, 359.9999)]:
            with pytest.raises(ValueError, match="at least 1e-3 deg apart"):
                ConstellationSpec(3, 8062.0, phases, EPOCH)


class TestGeodetic:
    def test_equator_prime_meridian(self):
        np.testing.assert_allclose(geodetic_to_ecef(0.0, 0.0, 0.0), [WGS84_A_KM, 0.0, 0.0], atol=1e-9)

    def test_north_pole_maps_to_polar_radius(self):
        b = WGS84_A_KM * (1.0 - WGS84_F)
        for lon in (0.0, 90.0, -45.0):
            np.testing.assert_allclose(geodetic_to_ecef(90.0, lon, 0.0), [0.0, 0.0, b], atol=1e-9)

    def test_santiago_frozen(self):
        # frozen from an independent prime-vertical-radius computation
        got = geodetic_to_ecef(-33.45, -70.66, 520.0)
        np.testing.assert_allclose(got, [1764.345898, -5026.927826, -3495.995145], atol=1e-5)
        # geocentric distance ~ local ellipsoid radius + site altitude
        assert np.linalg.norm(got) == pytest.approx(6372.1976, abs=1e-3)

    def test_altitude_moves_radially_outward(self):
        lo = geodetic_to_ecef(-33.45, -70.66, 0.0)
        hi = geodetic_to_ecef(-33.45, -70.66, 2000.0)
        assert np.linalg.norm(hi) > np.linalg.norm(lo)
        assert np.linalg.norm(hi - lo) == pytest.approx(2.0, abs=1e-3)


class TestElevation:
    def test_zenith_is_ninety(self):
        gs = np.array([EARTH_RADIUS_KM, 0.0, 0.0])
        sat = np.array([EARTH_RADIUS_KM + 8062.0, 0.0, 0.0])
        assert elevation_angle(sat, gs) == pytest.approx(90.0, abs=1e-9)

    def test_thirty_degree_separation_oracle(self):
        # frozen oracle value for h = 8062 km, 30 deg ground-track separation
        r = EARTH_RADIUS_KM + 8062.0
        expected = elevation_oracle_deg(30.0, EARTH_RADIUS_KM, r)
        assert expected == pytest.approx(40.3383, abs=1e-3)
        gs = np.array([EARTH_RADIUS_KM, 0.0, 0.0])
        psi = math.radians(30.0)
        sat = np.array([r * math.cos(psi), r * math.sin(psi), 0.0])
        assert elevation_angle(sat, gs) == pytest.approx(expected, abs=1e-9)

    def test_matches_oracle_across_separations(self):
        r = EARTH_RADIUS_KM + 8062.0
        gs = np.array([EARTH_RADIUS_KM, 0.0, 0.0])
        for psi_deg in np.linspace(1.0, 120.0, 40):
            psi = math.radians(psi_deg)
            sat = np.array([r * math.cos(psi), r * math.sin(psi), 0.0])
            assert elevation_angle(sat, gs) == pytest.approx(
                elevation_oracle_deg(psi_deg, EARTH_RADIUS_KM, r), abs=1e-9
            )


class TestSlotGeometry:
    def stations(self):
        return [
            GroundStationSpec("equator0", 0.0, 0.0, 0.0),
            GroundStationSpec("santiago", -33.45, -70.66, 520.0),
        ]

    def test_distance_bounds_and_shapes(self):
        geom = slot_geometry(ring(), self.stations(), EPOCH)
        assert geom.distances_fl_km.shape == (6, 2)
        assert geom.elevations_deg.shape == (6, 2)
        # slant range never below the radial altitude difference
        sat_r = np.linalg.norm(geom.sat_positions_km, axis=1)[:, None]
        gs_r = np.linalg.norm(geom.gs_positions_km, axis=1)[None, :]
        assert np.all(geom.distances_fl_km >= sat_r - gs_r - 1e-9)

    def test_nadir_station_distance_is_altitude(self):
        geom = slot_geometry(ring(), [GroundStationSpec("g", 0.0, 0.0, 0.0)], EPOCH)
        # satellite 0 sits at longitude 0 over the (spherical-radius) equator point
        d = geom.distances_fl_km[0, 0]
        assert d == pytest.approx(8062.0 + EARTH_RADIUS_KM - WGS84_A_KM, abs=1e-6)
        assert geom.elevations_deg[0, 0] == pytest.approx(90.0, abs=1e-9)

    def test_antipodal_satellite_not_visible(self):
        spec = ConstellationSpec(2, 8062.0, (0.0, 180.0), EPOCH)
        geom = slot_geometry(spec, [GroundStationSpec("g", 0.0, 0.0, 0.0)], EPOCH)
        assert bool(geom.visible[0, 0]) is True
        assert bool(geom.visible[1, 0]) is False
        assert geom.elevations_deg[1, 0] < 0.0

    def test_isl_ring_chord(self):
        spec = ring()
        geom = slot_geometry(spec, [], EPOCH)
        expected = 2.0 * spec.orbit_radius_km * math.sin(math.pi / 6)
        for k in range(6):
            for n in ring_neighbors(6)[k]:
                assert geom.distances_isl_km[k, n] == pytest.approx(expected, rel=1e-6)
        assert np.all(np.abs(geom.distances_isl_km - geom.distances_isl_km.T) < 1e-9)
        assert np.all(np.diag(geom.distances_isl_km) == 0.0)

    def test_isl_chord_constant_over_time(self):
        spec = ring()
        for dt in (0.0, 4321.0, 50000.0):
            geom = slot_geometry(spec, [], EPOCH + timedelta(seconds=dt))
            assert geom.distances_isl_km[0, 1] == pytest.approx(
                2.0 * spec.orbit_radius_km * math.sin(math.pi / 6), rel=1e-6
            )

    def test_visibility_ray_never_dips_inside_earth(self):
        # for visible pairs the segment's closest approach to the geocenter
        # is at the station end: |gs + s*(sat-gs)| is non-decreasing in s
        rng = np.random.RandomState(11)
        stations = [
            GroundStationSpec("a", float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180)), 0.0, 0.0)
            for _ in range(6)
        ]
        spec = ring(inc=20.0)
        for dt in np.linspace(0, 86400, 13):
            geom = slot_geometry(spec, stations, EPOCH + timedelta(seconds=float(dt)))
            for k in range(6):
                for i in range(6):
                    if not geom.visible[k, i]:
                        continue
                    gs = geom.gs_positions_km[i]
                    sat = geom.sat_positions_km[k]
                    s = np.linspace(0.0, 1.0, 50)
                    pts = gs[None, :] + s[:, None] * (sat - gs)[None, :]
                    radii = np.linalg.norm(pts, axis=1)
                    assert np.all(np.diff(radii) > -1e-9)
                    assert np.all(radii >= np.linalg.norm(gs) - 1e-6)

    def test_every_satellite_sees_a_station_o3b_layout(self):
        # exhaustive scan over 24 h at 300 s: the 8-site layout always
        # offers at least one feeder link per satellite
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
        spec = ring()
        for n in range(288):
            t = EPOCH + timedelta(seconds=(n + 0.5) * 300.0)
            geom = slot_geometry(spec, stations, t, slot_index=n)
            assert geom.visible.any(axis=1).all(), f"slot {n} leaves a satellite dark"


def test_ring_neighbors_shapes():
    assert ring_neighbors(2) == ((1,), (0,))
    assert ring_neighbors(3) == ((1, 2), (0, 2), (0, 1))
    assert ring_neighbors(6)[0] == (1, 5)
    assert ring_neighbors(6)[3] == (2, 4)
