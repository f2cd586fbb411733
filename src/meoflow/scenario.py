"""Scenario files: strict JSON parsing with path-qualified errors.

A scenario bundles the constellation, ground segment, link parameters, rain
events, the time grid, and solver policies.  Unknown keys are rejected at
every level so typos never silently fall back to defaults.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .channel import (
    RAIN_CLASS_RATES_MM_H,
    FeederLinkParams,
    IslParams,
    RainEvent,
    RainModelParams,
)
from .geometry import ConstellationSpec, GroundStationSpec
from .topology import POLICIES, POLICY_BEST_CAPACITY


class ScenarioError(ValueError):
    """Malformed scenario content; message carries the offending path."""


# The most slots one horizon may have: about 347 days of 5-minute slots.  A
# run keeps every slot's allocation in memory, about 9 KB per slot for the
# bundled 6-satellite, 8-gateway scenarios, so about 1 GB at the limit.
MAX_SLOT_COUNT = 100_000

_REQUIRED = object()


def _mapping(value, path):
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected an object")
    return value


def _check_keys(data, path, allowed):
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(f"{path}: unknown key '{unknown[0]}'")


def _get(data, key, path, default=_REQUIRED):
    if key in data:
        return data[key]
    if default is _REQUIRED:
        raise ScenarioError(f"{path}.{key}: required")
    return default


def _finite(value, where):
    """A JSON number as a float; NaN, ±Infinity and out-of-range integers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: must be a finite number")
    return value


def _number(data, key, path, default=_REQUIRED, minimum=None, positive=False):
    value = _get(data, key, path, default)
    if value is default and default is not _REQUIRED:
        return default
    value = _finite(value, f"{path}.{key}")
    if positive and value <= 0:
        raise ScenarioError(f"{path}.{key}: must be positive")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{path}.{key}: must be >= {minimum}")
    return value


def _integer(data, key, path, default=_REQUIRED, minimum=None):
    value = _get(data, key, path, default)
    if value is default and default is not _REQUIRED:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}.{key}: expected an integer")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{path}.{key}: must be >= {minimum}")
    return value


def _boolean(data, key, path, default):
    value = _get(data, key, path, default)
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}.{key}: expected true or false")
    return value


def _string(data, key, path, default=_REQUIRED):
    value = _get(data, key, path, default)
    if value is default and default is not _REQUIRED:
        return default
    if not isinstance(value, str) or not value:
        raise ScenarioError(f"{path}.{key}: expected a non-empty string")
    return value


def _datetime(data, key, path, default=_REQUIRED):
    value = _get(data, key, path, default)
    if value is default and default is not _REQUIRED:
        return default
    if not isinstance(value, str):
        raise ScenarioError(f"{path}.{key}: expected an ISO-8601 timestamp")
    text = value[:-1] + "+00:00" if value.endswith("Z") else value
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise ScenarioError(f"{path}.{key}: not a valid ISO-8601 timestamp") from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed


def _params_from_section(data, path, cls):
    # scenario keys mirror the dataclass fields one-to-one
    names = [f.name for f in fields(cls)]
    _check_keys(data, path, names)
    kwargs = {}
    for name in names:
        if name in data:
            kwargs[name] = _finite(data[name], f"{path}.{name}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


@dataclass
class Scenario:
    name: str
    constellation: ConstellationSpec
    stations: tuple[GroundStationSpec, ...]
    feeder_link: FeederLinkParams
    isl: IslParams
    rain_model: RainModelParams
    rain_events: tuple[RainEvent, ...]
    start: datetime
    duration_s: float
    slot_s: float
    serving_policy: str
    lexicographic: bool
    isl_enabled: bool
    raw: dict

    @property
    def slot_count(self) -> int:
        return int(round(self.duration_s / self.slot_s))

    @property
    def station_ids(self) -> tuple[str, ...]:
        return tuple(s.station_id for s in self.stations)

    def slot_midpoint_s(self, slot: int) -> float:
        return (slot + 0.5) * self.slot_s

    def slot_midpoint(self, slot: int) -> datetime:
        return self.start + timedelta(seconds=self.slot_midpoint_s(slot))

    def rain_rates_at(self, time: datetime) -> list[float]:
        rates = [0.0] * len(self.stations)
        index = {s.station_id: i for i, s in enumerate(self.stations)}
        for event in self.rain_events:
            if event.active_at(time):
                i = index[event.station_id]
                rates[i] = max(rates[i], event.rain_rate_mm_h)
        return rates

    def gs_altitudes_km(self) -> list[float]:
        return [s.altitude_m / 1000.0 for s in self.stations]


def parse_scenario(data: dict, name: str = "scenario") -> Scenario:
    root = _mapping(data, name)
    _check_keys(
        root,
        name,
        [
            "constellation",
            "ground_stations",
            "feeder_link",
            "isl",
            "rain_model",
            "rain_events",
            "time",
            "policies",
        ],
    )

    tpath = f"{name}.time"
    tsec = _mapping(_get(root, "time", name), tpath)
    _check_keys(tsec, tpath, ["start", "duration_s", "slot_s"])
    start = _datetime(tsec, "start", tpath)
    duration_s = _number(tsec, "duration_s", tpath, positive=True)
    slot_s = _number(tsec, "slot_s", tpath, positive=True)
    slots = duration_s / slot_s
    if slots > MAX_SLOT_COUNT + 0.5:  # slot_count rounds; also ahead of round(inf)
        raise ScenarioError(
            f"{tpath}.duration_s: {slots:.6g} slots (duration_s / slot_s), more than the limit of {MAX_SLOT_COUNT}"
        )
    if abs(slots - round(slots)) > 1e-9:
        raise ScenarioError(f"{tpath}.slot_s: must divide duration_s evenly")
    try:
        start + timedelta(seconds=duration_s)
    except OverflowError:
        raise ScenarioError(
            f"{tpath}.duration_s: start + duration_s is past the last representable time"
        ) from None

    cpath = f"{name}.constellation"
    csec = _mapping(_get(root, "constellation", name), cpath)
    _check_keys(
        csec, cpath, ["satellite_count", "altitude_km", "phase_offsets_deg", "inclination_deg"]
    )
    count = _integer(csec, "satellite_count", cpath, minimum=1)
    altitude_km = _number(csec, "altitude_km", cpath, positive=True)
    inclination = _number(csec, "inclination_deg", cpath, default=0.0)
    phases = _get(csec, "phase_offsets_deg", cpath, default=None)
    if phases is None:
        phases = tuple(i * 360.0 / count for i in range(count))
    elif not isinstance(phases, list):
        raise ScenarioError(f"{cpath}.phase_offsets_deg: expected a list of numbers")
    else:
        phases = tuple(_finite(p, f"{cpath}.phase_offsets_deg[{i}]") for i, p in enumerate(phases))
    try:
        constellation = ConstellationSpec(count, altitude_km, phases, start, inclination)
    except ValueError as exc:
        raise ScenarioError(f"{cpath}: {exc}") from None

    gpath = f"{name}.ground_stations"
    gsec = _get(root, "ground_stations", name)
    if not isinstance(gsec, list) or not gsec:
        raise ScenarioError(f"{gpath}: expected a non-empty list")
    stations = []
    for i, entry in enumerate(gsec):
        epath = f"{gpath}[{i}]"
        entry = _mapping(entry, epath)
        _check_keys(
            entry,
            epath,
            ["station_id", "latitude_deg", "longitude_deg", "altitude_m", "min_elevation_deg"],
        )
        values = (
            _string(entry, "station_id", epath),
            _number(entry, "latitude_deg", epath),
            _number(entry, "longitude_deg", epath),
            _number(entry, "altitude_m", epath, default=0.0),
            _number(entry, "min_elevation_deg", epath, default=5.0, minimum=0.0),
        )
        try:
            stations.append(GroundStationSpec(*values))
        except ValueError as exc:
            raise ScenarioError(f"{epath}: {exc}") from None
    ids = [s.station_id for s in stations]
    if len(set(ids)) != len(ids):
        raise ScenarioError(f"{gpath}: duplicate station_id")

    feeder = _params_from_section(
        _mapping(_get(root, "feeder_link", name, {}), f"{name}.feeder_link"),
        f"{name}.feeder_link",
        FeederLinkParams,
    )
    isl = _params_from_section(
        _mapping(_get(root, "isl", name, {}), f"{name}.isl"), f"{name}.isl", IslParams
    )
    rain_model = _params_from_section(
        _mapping(_get(root, "rain_model", name, {}), f"{name}.rain_model"),
        f"{name}.rain_model",
        RainModelParams,
    )

    rpath = f"{name}.rain_events"
    rsec = _get(root, "rain_events", name, [])
    if not isinstance(rsec, list):
        raise ScenarioError(f"{rpath}: expected a list")
    events = []
    for i, entry in enumerate(rsec):
        epath = f"{rpath}[{i}]"
        entry = _mapping(entry, epath)
        _check_keys(entry, epath, ["station_id", "start", "end", "rain_rate_mm_h", "rain_class"])
        station_id = _string(entry, "station_id", epath)
        if station_id not in ids:
            raise ScenarioError(f"{epath}.station_id: unknown station '{station_id}'")
        if ("rain_rate_mm_h" in entry) == ("rain_class" in entry):
            raise ScenarioError(f"{epath}: give exactly one of rain_rate_mm_h or rain_class")
        if "rain_class" in entry:
            cls = _string(entry, "rain_class", epath)
            if cls not in RAIN_CLASS_RATES_MM_H:
                raise ScenarioError(
                    f"{epath}.rain_class: expected one of {sorted(RAIN_CLASS_RATES_MM_H)}"
                )
            rate = RAIN_CLASS_RATES_MM_H[cls]
        else:
            rate = _number(entry, "rain_rate_mm_h", epath, positive=True)
        begins, ends = _datetime(entry, "start", epath), _datetime(entry, "end", epath)
        try:
            events.append(RainEvent(station_id, begins, ends, rate))
        except ValueError as exc:
            raise ScenarioError(f"{epath}: {exc}") from None

    ppath = f"{name}.policies"
    psec = _mapping(_get(root, "policies", name, {}), ppath)
    _check_keys(psec, ppath, ["serving_gs", "lexicographic", "isl_enabled"])
    policy = _string(psec, "serving_gs", ppath, default=POLICY_BEST_CAPACITY)
    if policy not in POLICIES:
        raise ScenarioError(f"{ppath}.serving_gs: expected one of {sorted(POLICIES)}")

    return Scenario(
        name=name,
        constellation=constellation,
        stations=tuple(stations),
        feeder_link=feeder,
        isl=isl,
        rain_model=rain_model,
        rain_events=tuple(events),
        start=start,
        duration_s=duration_s,
        slot_s=slot_s,
        serving_policy=policy,
        lexicographic=_boolean(psec, "lexicographic", ppath, True),
        isl_enabled=_boolean(psec, "isl_enabled", ppath, True),
        raw=data,
    )


def load_scenario(path: "str | Path") -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from None
    return parse_scenario(data, name=path.stem)
