"""Orbit propagation and per-slot visibility geometry for a ring constellation.

A single circular ring of satellites is propagated with two-body Keplerian
motion: every satellite moves at the same angular rate on a shell of radius
R_e + h, separated by fixed phase offsets.  The ring is held fixed in the
Earth-fixed frame (Earth rotation is deliberately not modeled), so ground
stations keep constant ECEF coordinates and the geometry repeats exactly
every orbital period.  That keeps the simulation deterministic and closed
under the period while still sweeping every satellite across the whole
ground-station landscape.

Ground stations are placed with a WGS-84 geodetic conversion; visibility
and elevation are computed from the raw ECEF vectors with a spherical
Earth (radius 6371 km) as the occlusion body.

`range_geometry` evaluates a whole range of N instants at once, as arrays
with a leading slot axis, and converts the stations to ECEF once for all
of them; `slot_geometry` is its N = 1 case, so both give the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Sequence

import numpy as np

EARTH_RADIUS_KM = 6371.0
"""Mean spherical Earth radius used for the orbit shell and occlusion."""

EARTH_MU_KM3_S2 = 398600.4418
"""Gravitational parameter of Earth, km^3/s^2."""

WGS84_A_KM = 6378.137
WGS84_F = 1.0 / 298.257223563
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)


@dataclass(frozen=True)
class ConstellationSpec:
    """Single-ring constellation definition.

    Attributes:
        satellite_count: number of satellites K (>= 2).
        altitude_km: shell altitude above the spherical Earth.
        phase_offsets_deg: per-satellite in-plane phase at the epoch,
            strictly increasing once normalized to [0, 360).
        epoch: reference time; satellite 0 with phase 0 sits at
            longitude 0 on the shell at this instant.
        inclination_deg: ring plane tilt; 0 is equatorial.
    """

    satellite_count: int
    altitude_km: float
    phase_offsets_deg: tuple[float, ...]
    epoch: datetime
    inclination_deg: float = 0.0

    def __post_init__(self):
        if self.satellite_count < 2:
            raise ValueError("satellite_count must be >= 2")
        if self.altitude_km <= 0:
            raise ValueError("altitude_km must be > 0")
        if self.altitude_km > 1.5e6:
            # past Earth's Hill sphere no orbit is bound to Earth
            raise ValueError("altitude_km must be <= 1.5e6, Earth's Hill sphere")
        if len(self.phase_offsets_deg) != self.satellite_count:
            raise ValueError("phase_offsets_deg length must equal satellite_count")
        norm = [p % 360.0 for p in self.phase_offsets_deg]
        # ring neighbors closer than 1e-3 deg (about 100 m) could coincide after rounding: an ISL of range 0
        if any(b - a < 1e-3 for a, b in zip(norm, norm[1:] + [norm[0] + 360.0])):
            raise ValueError("phase_offsets_deg must be increasing modulo 360, at least 1e-3 deg apart")

    @property
    def orbit_radius_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def angular_rate_rad_s(self) -> float:
        # circular two-body rate: sqrt(mu / a^3)
        return math.sqrt(EARTH_MU_KM3_S2 / self.orbit_radius_km**3)

    @property
    def orbital_period_s(self) -> float:
        return 2.0 * math.pi / self.angular_rate_rad_s


@dataclass(frozen=True)
class GroundStationSpec:
    """One gateway site.

    Attributes:
        station_id: unique name used in scenarios and outputs.
        latitude_deg / longitude_deg / altitude_m: geodetic position.
        min_elevation_deg: visibility mask, default 5 degrees.
    """

    station_id: str
    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0
    min_elevation_deg: float = 5.0

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError("latitude_deg must be in [-90, 90]")
        if not -180.0 <= self.longitude_deg <= 360.0:
            raise ValueError("longitude_deg must be in [-180, 360]")
        if self.min_elevation_deg < 0.0:
            raise ValueError("min_elevation_deg must be >= 0")
        if not -1e4 <= self.altitude_m <= 1e5:  # from under the sea floor to the edge of space
            raise ValueError("altitude_m must be in [-1e4, 1e5]")

    def ecef_km(self) -> np.ndarray:
        return geodetic_to_ecef(self.latitude_deg, self.longitude_deg, self.altitude_m)


def propagate(spec: ConstellationSpec, time: "datetime | float | np.ndarray") -> np.ndarray:
    """Satellite ECEF positions in km: (K, 3) at one time, (N, K, 3) at N times.

    Each satellite sits at in-plane angle phase_k + n*(t - epoch) on the
    circular shell; the ascending node is pinned to the +x axis so phase 0
    at the epoch means longitude 0.  `time` is a datetime, plain seconds
    since the epoch (floats dodge the microsecond quantization of datetime
    arithmetic), or a 1-D array of such seconds.
    """
    dt = (time - spec.epoch).total_seconds() if isinstance(time, datetime) else np.asarray(time, dtype=float)
    u = np.radians(np.asarray(spec.phase_offsets_deg, dtype=float)) + spec.angular_rate_rad_s * np.expand_dims(dt, -1)
    inc = math.radians(spec.inclination_deg)
    r = spec.orbit_radius_km
    sin_u = np.sin(u)
    return np.stack([r * np.cos(u), r * sin_u * math.cos(inc), r * sin_u * math.sin(inc)], axis=-1)


def geodetic_to_ecef(latitude_deg: float, longitude_deg: float, altitude_m: float = 0.0) -> np.ndarray:
    """WGS-84 geodetic coordinates to an ECEF vector in km."""
    lat = math.radians(latitude_deg)
    lon = math.radians(longitude_deg)
    h = altitude_m / 1000.0
    sin_lat = math.sin(lat)
    # prime-vertical radius of curvature
    n = WGS84_A_KM / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    return np.array(
        [
            (n + h) * math.cos(lat) * math.cos(lon),
            (n + h) * math.cos(lat) * math.sin(lon),
            (n * (1.0 - WGS84_E2) + h) * sin_lat,
        ]
    )


@dataclass(frozen=True)
class SlotGeometry:
    """All pairwise geometry for one time slot.

    Arrays are indexed [satellite] or [satellite, station]:
        sat_positions_km: (K, 3) ECEF.
        gs_positions_km: (I, 3) ECEF.
        distances_fl_km: (K, I) slant ranges.
        elevations_deg: (K, I) station-side elevation angles.
        visible: (K, I) elevation >= per-station mask.
        distances_isl_km: (K, K) inter-satellite ranges, 0 on the diagonal.
    """

    slot_index: int
    sat_positions_km: np.ndarray
    gs_positions_km: np.ndarray
    distances_fl_km: np.ndarray
    elevations_deg: np.ndarray
    visible: np.ndarray
    distances_isl_km: np.ndarray


def range_geometry(
    spec: ConstellationSpec, stations: Sequence[GroundStationSpec], times_s: Sequence[float]
) -> tuple[np.ndarray, ...]:
    """The geometry of N instants (seconds since the epoch) at once.

    Returns, each with a leading slot axis except the stations:
    sat_positions_km (N, K, 3), gs_positions_km (I, 3), distances_fl_km,
    elevations_deg and visible (N, K, I), and distances_isl_km (N, K, K);
    the fields of `SlotGeometry`, in its order.
    """
    sats = propagate(spec, np.asarray(times_s, dtype=float))
    gs = np.array([s.ecef_km() for s in stations]).reshape(len(stations), 3)
    diff = sats[:, :, None, :] - gs  # (N, K, I, 3)
    dist_fl = np.linalg.norm(diff, axis=3)
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_el = np.einsum("nkij,ij->nki", diff, gs) / (dist_fl * np.linalg.norm(gs, axis=1))
    elev = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
    visible = elev >= np.array([s.min_elevation_deg for s in stations], dtype=float)
    dist_isl = np.linalg.norm(sats[:, :, None, :] - sats[:, None, :, :], axis=3)
    return sats, gs, dist_fl, elev, visible, dist_isl


def slot_geometry(
    spec: ConstellationSpec,
    stations: Sequence[GroundStationSpec],
    time: "datetime | float",
    slot_index: int = 0,
) -> SlotGeometry:
    """Evaluate the full satellite/station geometry at one instant."""
    seconds = (time - spec.epoch).total_seconds() if isinstance(time, datetime) else float(time)
    sats, gs, *per_slot = range_geometry(spec, stations, [seconds])
    return SlotGeometry(slot_index, sats[0], gs, *(a[0] for a in per_slot))


def ring_neighbors(satellite_count: int) -> tuple[tuple[int, ...], ...]:
    """Ring adjacency k -> (k-1, k+1) mod K, deduplicated for K=2."""
    out = []
    for k in range(satellite_count):
        nbrs = sorted({(k - 1) % satellite_count, (k + 1) % satellite_count} - {k})
        out.append(tuple(nbrs))
    return tuple(out)
