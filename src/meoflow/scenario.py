"""Scenario files: strict JSON parsing with path-qualified errors.

A scenario bundles the constellation, ground segment, link parameters, rain
events, the time grid, and solver policies.  Unknown keys are rejected at
every level so typos never silently fall back to defaults.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, dataclass, fields
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

# The most satellites one ring may have.  A slot LP grows with satellites
# times stations: 1,000 satellites over toy3's three gateways take about
# 10 s per slot on a 2-core machine.
_MAX_SATELLITE_COUNT = 1000

_REQUIRED = object()


def _object(value, path, allowed):
    """`value`, the JSON object at `path`; a ScenarioError if it is not one or has a key not in `allowed`."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected an object")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ScenarioError(f"{path}: unknown key '{unknown[0]}'")
    return value


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


def _number(data, key, path, default=_REQUIRED, positive=False):
    value = _get(data, key, path, default)
    value = _finite(value, f"{path}.{key}")
    if positive and value <= 0:
        raise ScenarioError(f"{path}.{key}: must be positive")
    return value


def _integer(data, key, path):
    value = _get(data, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}.{key}: expected an integer")
    return value


def _boolean(data, key, path, default):
    value = _get(data, key, path, default)
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}.{key}: expected true or false")
    return value


def _string(data, key, path, default=_REQUIRED):
    value = _get(data, key, path, default)
    if not isinstance(value, str) or not value:
        raise ScenarioError(f"{path}.{key}: expected a non-empty string")
    if any("\ud800" <= c <= "\udfff" for c in value):  # a JSON "\ud800" escape; no output file can hold it
        raise ScenarioError(f"{path}.{key}: holds a lone surrogate, which UTF-8 cannot encode")
    return value


def _datetime(data, key, path):
    value = _get(data, key, path)
    if not isinstance(value, str):
        raise ScenarioError(f"{path}.{key}: expected an ISO-8601 timestamp")
    try:
        # what fromisoformat reads on every supported Python (3.11 reads far more): YYYY-MM-DD,
        # optionally then T or a space and HH[:MM[:SS[.fff[fff]]]], which may end in Z or ±HH:MM
        if not re.fullmatch(r"\d{4}-\d\d-\d\d([T ]\d\d(:\d\d(:\d\d(\.\d{3}(\d{3})?)?)?)?(Z|[+-]\d\d:\d\d)?)?", value, re.ASCII):
            raise ValueError(value)
        parsed = datetime.fromisoformat(value[:-1] + "+00:00" if value.endswith("Z") else value)
    except ValueError:
        raise ScenarioError(f"{path}.{key}: not a valid ISO-8601 timestamp") from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed


def _build(path, cls, *args, **kwargs):
    """`cls(*args, **kwargs)`, its range checks' ValueError raised as a ScenarioError at `path`."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _params_from_section(data, path, cls):
    """Build `cls` from an object whose keys are its fields, one to one: a
    field without a default is required, a `str` field takes a non-empty
    string and any other a finite number; `cls` checks the ranges.
    """
    _object(data, path, [f.name for f in fields(cls)])
    kwargs = {}
    for f in fields(cls):
        if f.default is MISSING or f.name in data:
            parse = _string if f.type in (str, "str") else _number
            kwargs[f.name] = parse(data, f.name, path)
    return _build(path, cls, **kwargs)


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
    root = _object(
        data,
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
    tsec = _object(_get(root, "time", name), tpath, ["start", "duration_s", "slot_s"])
    start = _datetime(tsec, "start", tpath)
    duration_s = _number(tsec, "duration_s", tpath, positive=True)
    slot_s = _number(tsec, "slot_s", tpath, positive=True)
    slots = duration_s / slot_s
    if slots > MAX_SLOT_COUNT + 0.5:  # slot_count rounds; also ahead of round(inf)
        raise ScenarioError(
            f"{tpath}.duration_s: {slots:.6g} slots (duration_s / slot_s), more than the limit of {MAX_SLOT_COUNT}"
        )
    if round(slots) == 0:
        raise ScenarioError(f"{tpath}.duration_s: {slots:.6g} slots (duration_s / slot_s), fewer than one")
    if abs(slots - round(slots)) > 1e-9:
        raise ScenarioError(f"{tpath}.slot_s: must divide duration_s evenly")
    try:
        start + timedelta(seconds=duration_s)
    except OverflowError:
        raise ScenarioError(
            f"{tpath}.duration_s: start + duration_s is past the last representable time"
        ) from None

    cpath = f"{name}.constellation"
    csec = _object(_get(root, "constellation", name), cpath, ["satellite_count", "altitude_km", "phase_offsets_deg", "inclination_deg"])
    count = _integer(csec, "satellite_count", cpath)
    if count > _MAX_SATELLITE_COUNT:
        raise ScenarioError(f"{cpath}.satellite_count: must be <= {_MAX_SATELLITE_COUNT}")
    altitude_km = _number(csec, "altitude_km", cpath)
    inclination = _number(csec, "inclination_deg", cpath, default=0.0)
    phases = _get(csec, "phase_offsets_deg", cpath, default=None)
    if phases is None:
        phases = tuple(i * 360.0 / count for i in range(count))
    elif not isinstance(phases, list):
        raise ScenarioError(f"{cpath}.phase_offsets_deg: expected a list of numbers")
    else:
        phases = tuple(_finite(p, f"{cpath}.phase_offsets_deg[{i}]") for i, p in enumerate(phases))
    constellation = _build(cpath, ConstellationSpec, count, altitude_km, phases, inclination)

    gpath = f"{name}.ground_stations"
    gsec = _get(root, "ground_stations", name)
    if not isinstance(gsec, list) or not gsec:
        raise ScenarioError(f"{gpath}: expected a non-empty list")
    stations = [_params_from_section(entry, f"{gpath}[{i}]", GroundStationSpec) for i, entry in enumerate(gsec)]
    ids = [s.station_id for s in stations]
    if len(set(ids)) != len(ids):
        raise ScenarioError(f"{gpath}: duplicate station_id")

    feeder, isl, rain_model = (
        _params_from_section(_get(root, key, name, {}), f"{name}.{key}", cls)
        for key, cls in (("feeder_link", FeederLinkParams), ("isl", IslParams), ("rain_model", RainModelParams))
    )

    rpath = f"{name}.rain_events"
    rsec = _get(root, "rain_events", name, [])
    if not isinstance(rsec, list):
        raise ScenarioError(f"{rpath}: expected a list")
    events = []
    for i, entry in enumerate(rsec):
        epath = f"{rpath}[{i}]"
        entry = _object(entry, epath, ["station_id", "start", "end", "rain_rate_mm_h", "rain_class"])
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
        events.append(_build(epath, RainEvent, station_id, begins, ends, rate))

    ppath = f"{name}.policies"
    psec = _object(_get(root, "policies", name, {}), ppath, ["serving_gs", "lexicographic", "isl_enabled"])
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
    """The scenario in the UTF-8 file `path` or, if there is none (a directory is
    none), the bundled scenario that `path` names, with or without `.json`."""
    file = Path(path)
    if not file.exists() or file.is_dir():
        bundled = Path(__file__).with_name("scenarios")
        file = bundled / f"{str(path).removesuffix('.json')}.json"
        if file.parent != bundled or not file.is_file():
            raise ScenarioError(f"{path}: no such scenario file or bundled scenario")
    try:
        text = file.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{file}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{file}: invalid JSON ({exc})") from None
    return parse_scenario(data, name=file.stem)
