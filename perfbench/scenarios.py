"""Seeded scenario generator for the three benchmark workloads.

Every workload is a pure function of its seed, so the same seed always
gives the same scenario bytes.  Seed 0 of the two rain workloads is the
bundled ``o3b_rain`` scenario: byte for byte for ``rain_compare``, and the
same bytes with only the serving policy switched for ``rain_fractional``.
Other seeds move the three rain events to other stations, start hours and
classes, which changes the rain-faded slots but not the LP sizes.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

RAIN_CLASSES = ("heavy", "moderate", "light")
BEST_CAPACITY = '"serving_gs": "best-capacity"'
LP_FRACTIONAL = '"serving_gs": "lp-fractional"'

DENSE_SATELLITES = 12
DENSE_STATIONS = 32
DENSE_MAX_LATITUDE_DEG = 50.0
DENSE_RAIN_EVENTS = 12


def bundled_o3b_rain(root: Path) -> str:
    return (root / "src" / "meoflow" / "scenarios" / "o3b_rain.json").read_text()


def rain_variant(base_text: str, seed: int) -> str:
    """o3b_rain with its rain events permuted by `seed`; seed 0 is unchanged."""
    if seed == 0:
        return base_text
    rng = random.Random(seed)
    data = json.loads(base_text)
    events = data["rain_events"]
    stations = rng.sample([s["station_id"] for s in data["ground_stations"]], len(events))
    hours = rng.sample(range(23), len(events))
    classes = rng.sample(RAIN_CLASSES, len(events))
    for event, station, hour, cls in zip(events, stations, hours, classes):
        event["station_id"] = station
        event["start"] = f"2026-01-01T{hour:02d}:00:00Z"
        event["end"] = f"2026-01-01T{hour + 1:02d}:00:00Z"
        event["rain_class"] = cls
    return json.dumps(data, indent=2) + "\n"


def dense_ground(seed: int) -> str:
    """A 12-satellite ring over 32 seeded gateway sites, one day of 5-minute slots.

    Longitudes are stratified (one site per 11.25 degree band) so every
    satellite always sees a station and no slot is degenerate; latitudes,
    altitudes and the rain events are drawn from the seed.
    """
    rng = random.Random(seed)
    band = 360.0 / DENSE_STATIONS
    stations = [
        {
            "station_id": f"gw{i:02d}",
            "latitude_deg": round(rng.uniform(-DENSE_MAX_LATITUDE_DEG, DENSE_MAX_LATITUDE_DEG), 2),
            "longitude_deg": round(-180.0 + (i + rng.random()) * band, 2),
            "altitude_m": round(rng.uniform(0.0, 1500.0), 1),
        }
        for i in range(DENSE_STATIONS)
    ]
    events = []
    for _ in range(DENSE_RAIN_EVENTS):
        hour = rng.randrange(22)
        events.append(
            {
                "station_id": rng.choice(stations)["station_id"],
                "start": f"2026-01-01T{hour:02d}:00:00Z",
                "end": f"2026-01-01T{hour + rng.randint(1, 2):02d}:00:00Z",
                "rain_class": rng.choice(RAIN_CLASSES),
            }
        )
    data = {
        "constellation": {"satellite_count": DENSE_SATELLITES, "altitude_km": 8062.0},
        "ground_stations": stations,
        "rain_model": {"rain_height_km": 2.0},
        "rain_events": events,
        "time": {"start": "2026-01-01T00:00:00Z", "duration_s": 86400, "slot_s": 300},
        "policies": {"serving_gs": "best-capacity", "lexicographic": False, "isl_enabled": True},
    }
    return json.dumps(data, indent=2) + "\n"


def shorten(text: str, hours: int) -> str:
    """The same scenario cut to its first `hours` hours (self-test size)."""
    data = json.loads(text)
    data["time"]["duration_s"] = 3600 * hours
    return json.dumps(data, indent=2) + "\n"


def generate(workload: str, seed: int, root: Path, hours: int = 24) -> str:
    if workload == "dense_ground":
        text = dense_ground(seed)
    else:
        text = rain_variant(bundled_o3b_rain(root), seed)
        if workload == "rain_fractional":
            if BEST_CAPACITY not in text:
                raise ValueError("o3b_rain no longer states its serving policy")
            text = text.replace(BEST_CAPACITY, LP_FRACTIONAL)
    return text if hours == 24 else shorten(text, hours)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
