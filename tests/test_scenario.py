"""Scenario parsing: defaults, strictness, path-qualified errors."""
import json
import os
import threading
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from meoflow import scenario
from meoflow.cli import main
from meoflow.scenario import MAX_SLOT_COUNT, Scenario, ScenarioError, load_scenario, parse_scenario
from test_slot_range import bundled


def base():
    return {
        "constellation": {"satellite_count": 2, "altitude_km": 8062.0},
        "ground_stations": [
            {"station_id": "a", "latitude_deg": 0.0, "longitude_deg": 0.0},
            {"station_id": "b", "latitude_deg": 0.0, "longitude_deg": 180.0},
        ],
        "time": {"start": "2026-01-01T00:00:00Z", "duration_s": 1200, "slot_s": 300},
    }


class TestDefaults:
    def test_minimal_scenario_fills_defaults(self):
        s = parse_scenario(base())
        assert s.slot_count == 4
        assert s.constellation.phase_offsets_deg == (0.0, 180.0)
        assert s.feeder_link.eirp_dbw == 49.7
        assert s.feeder_link.bandwidth_hz == 100e6
        assert s.isl.fixed_capacity_override_bps is None
        assert s.rain_model.rain_height_km == 3.0
        assert s.rain_events == ()
        assert s.serving_policy == "best-capacity"
        assert s.lexicographic is True and s.isl_enabled is True
        assert s.start == datetime(2026, 1, 1, tzinfo=timezone.utc)

    def test_explicit_values_override(self):
        d = base()
        d["constellation"]["phase_offsets_deg"] = [0.0, 150.0]
        d["feeder_link"] = {"eirp_dbw": 52.0}
        d["isl"] = {"fixed_capacity_override_bps": 600e6}
        d["policies"] = {"serving_gs": "lp-fractional", "lexicographic": False, "isl_enabled": False}
        s = parse_scenario(d)
        assert s.constellation.phase_offsets_deg == (0.0, 150.0)
        assert s.feeder_link.eirp_dbw == 52.0
        assert s.isl.fixed_capacity_override_bps == 600e6
        assert s.serving_policy == "lp-fractional"
        assert not s.lexicographic and not s.isl_enabled

    def test_naive_timestamp_treated_as_utc(self):
        d = base()
        d["time"]["start"] = "2026-01-01T00:00:00"
        assert parse_scenario(d).start == datetime(2026, 1, 1, tzinfo=timezone.utc)

    @pytest.mark.parametrize(
        "stamp, expected",
        [
            ("2026-01-01T00:00:00.000Z", datetime(2026, 1, 1, tzinfo=timezone.utc)),
            ("2026-01-01 00:00:00.000250+00:00", datetime(2026, 1, 1, 0, 0, 0, 250, tzinfo=timezone.utc)),
            ("2026-01-01T05:00-05:00", datetime(2026, 1, 1, 10, tzinfo=timezone.utc)),
            ("2026-01-01T00", datetime(2026, 1, 1, tzinfo=timezone.utc)),
            ("2026-01-01", datetime(2026, 1, 1, tzinfo=timezone.utc)),
        ],
    )
    def test_the_timestamp_grammar_of_every_supported_python_parses(self, stamp, expected):
        d = base()
        d["time"]["start"] = stamp
        assert parse_scenario(d).start == expected

    # forms that Python 3.11's fromisoformat reads and 3.10's refuses
    @pytest.mark.parametrize(
        "stamp",
        [
            "2026-W01-4T00:00:00Z",
            "20260101T000000Z",
            "2026-01-01T00:00:00,5Z",
            "2026-01-01T00:00:00.5Z",
            "2026-01-01T0000Z",
        ],
    )
    def test_a_timestamp_outside_that_grammar_is_refused(self, stamp):
        d = base()
        d["time"]["start"] = stamp
        with pytest.raises(ScenarioError, match=r"^scenario\.time\.start: not a valid ISO-8601 timestamp$"):
            parse_scenario(d)

    def test_slot_midpoints(self):
        s = parse_scenario(base())
        assert s.slot_midpoint_s(0) == 150.0
        assert s.slot_midpoint(3) == s.start + timedelta(seconds=1050)


class TestStrictness:
    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.update(extra=1), "scenario: unknown key 'extra'"),
            (lambda d: d["constellation"].update(color="red"), "constellation: unknown key"),
            (lambda d: d["ground_stations"][0].update(name="x"), "ground_stations[0]: unknown key"),
            (lambda d: d.update(feeder_link={"power_w": 1}), "feeder_link: unknown key"),
            (lambda d: d.update(policies={"seed": 1}), "policies: unknown key"),
            (lambda d: d["time"].update(end="x"), "time: unknown key"),
            (lambda d: d.update(feeder_link={"gs_antenna_diameter_m": 4.5}), "unknown key 'gs_antenna_diameter_m'"),
            (lambda d: d.update(feeder_link={"system_noise_temp_k": 150.0}), "unknown key 'system_noise_temp_k'"),
            (lambda d: d.update(feeder_link={"pattern_halfpower_deg": 0.4}), "unknown key 'pattern_halfpower_deg'"),
        ],
    )
    def test_unknown_keys_rejected(self, mutate, needle):
        d = base()
        mutate(d)
        with pytest.raises(ScenarioError, match=None) as exc:
            parse_scenario(d)
        assert needle in str(exc.value)

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.pop("time"), "time: required"),
            (lambda d: d["time"].pop("start"), "time.start: required"),
            (lambda d: d["constellation"].pop("altitude_km"), "altitude_km: required"),
            (lambda d: d["ground_stations"][1].pop("latitude_deg"), "[1].latitude_deg: required"),
        ],
    )
    def test_missing_required_fields(self, mutate, needle):
        d = base()
        mutate(d)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(d)
        assert needle in str(exc.value)

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (
                lambda d: d["ground_stations"][0].update(latitude_deg=float("nan")),
                "scenario.ground_stations[0].latitude_deg: must be a finite number",
            ),
            (
                lambda d: d.update(
                    rain_events=[
                        {"station_id": "a", "start": "noon", "end": "2026-01-01T01:00:00Z", "rain_class": "heavy"}
                    ]
                ),
                "scenario.rain_events[0].start: not a valid ISO-8601 timestamp",
            ),
            (
                lambda d: d.update(
                    rain_events=[
                        {"station_id": "a", "start": "2026-01-01T01:00:00Z", "end": "2026-01-01T01:00:00Z", "rain_class": "heavy"}
                    ]
                ),
                "scenario.rain_events[0]: rain event end must be after start",
            ),
            (
                lambda d: d.update(
                    rain_events=[
                        {"station_id": "a", "start": "2026-01-01T00:00:00Z", "end": "2026-01-01T01:00:00Z", "rain_rate_mm_h": 3000}
                    ]
                ),
                "scenario.rain_events[0]: rain_rate_mm_h must be in [0, 2000]",
            ),
            (
                lambda d: d["ground_stations"][0].update(station_id="gs\ud800"),
                "scenario.ground_stations[0].station_id: holds a lone surrogate, which UTF-8 cannot encode",
            ),
        ],
    )
    def test_entry_errors_name_their_path_once(self, mutate, message):
        d = base()
        mutate(d)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(d)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["constellation"].update(satellite_count="six"),
            lambda d: d["constellation"].update(satellite_count=True),
            lambda d: d["time"].update(slot_s=-300),
            lambda d: d["time"].update(slot_s=700),  # does not divide 1200
            lambda d: d["constellation"].update(phase_offsets_deg=[0.0, "x"]),
            lambda d: d["ground_stations"][0].update(latitude_deg=123.0),
            lambda d: d.update(policies={"serving_gs": "round-robin"}),
            lambda d: d.update(policies={"lexicographic": "yes"}),
            lambda d: d.update(feeder_link={"eirp_dbw": "high"}),
        ],
    )
    def test_bad_values_rejected(self, mutate):
        d = base()
        mutate(d)
        with pytest.raises(ScenarioError):
            parse_scenario(d)

    def test_duplicate_station_ids(self):
        d = base()
        d["ground_stations"][1]["station_id"] = "a"
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(d)

    def test_error_message_carries_path(self):
        d = base()
        d["ground_stations"][1]["longitude_deg"] = "east"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(d)
        assert "ground_stations[1].longitude_deg" in str(exc.value)


class TestRainEvents:
    def event(self, **over):
        e = {
            "station_id": "a",
            "start": "2026-01-01T04:00:00Z",
            "end": "2026-01-01T05:00:00Z",
            "rain_class": "heavy",
        }
        e.update(over)
        return e

    def test_class_maps_to_calibrated_rate(self):
        d = base()
        d["rain_events"] = [self.event()]
        s = parse_scenario(d)
        assert s.rain_events[0].rain_rate_mm_h == 16.5

    def test_explicit_rate(self):
        d = base()
        d["rain_events"] = [self.event(rain_class=None)]
        del d["rain_events"][0]["rain_class"]
        d["rain_events"][0]["rain_rate_mm_h"] = 12.0
        s = parse_scenario(d)
        assert s.rain_events[0].rain_rate_mm_h == 12.0

    def test_rate_and_class_together_rejected(self):
        d = base()
        d["rain_events"] = [self.event(rain_rate_mm_h=12.0)]
        with pytest.raises(ScenarioError, match="exactly one"):
            parse_scenario(d)

    def test_unknown_station_rejected(self):
        d = base()
        d["rain_events"] = [self.event(station_id="nowhere")]
        with pytest.raises(ScenarioError, match="unknown station"):
            parse_scenario(d)

    def test_unknown_class_rejected(self):
        d = base()
        d["rain_events"] = [self.event(rain_class="biblical")]
        with pytest.raises(ScenarioError):
            parse_scenario(d)

    def test_rates_at_half_open_window(self):
        d = base()
        d["rain_events"] = [self.event()]
        s = parse_scenario(d)
        inside = datetime(2026, 1, 1, 4, 30, tzinfo=timezone.utc)
        at_end = datetime(2026, 1, 1, 5, 0, tzinfo=timezone.utc)
        assert s.rain_rates_at(inside) == [16.5, 0.0]
        assert s.rain_rates_at(at_end) == [0.0, 0.0]

    def test_overlapping_events_take_max(self):
        d = base()
        d["rain_events"] = [self.event(), self.event(rain_class="light")]
        s = parse_scenario(d)
        inside = datetime(2026, 1, 1, 4, 30, tzinfo=timezone.utc)
        assert s.rain_rates_at(inside) == [16.5, 0.0]


class TestLoading:
    def test_load_from_file(self, tmp_path):
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps(base()))
        s = load_scenario(p)
        assert isinstance(s, Scenario)
        assert s.name == "tiny"

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.json")

    @pytest.mark.parametrize("name", ["o3b_rain", "o3b_rain.json"])
    @pytest.mark.parametrize("cwd_holds", ["nothing", "a directory"])
    def test_bundled_name(self, tmp_path, monkeypatch, name, cwd_holds):
        # only a file of that name comes first: a directory left by `--out o3b_rain` does not
        monkeypatch.chdir(tmp_path)
        if cwd_holds == "a directory":
            (tmp_path / name).mkdir()
        s = load_scenario(name)
        assert s.name == "o3b_rain"
        assert s.raw == json.loads((Path(scenario.__file__).with_name("scenarios") / "o3b_rain.json").read_bytes())

    def test_file_that_is_a_pipe(self, tmp_path):
        # `meoflow run <(…)` hands over a pipe, which exists but is no regular file
        fifo = tmp_path / "o3b_rain"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(json.dumps(base()),), daemon=True)
        writer.start()
        try:
            s = load_scenario(fifo)
        finally:
            # if the loader never opened it, a reader held open until the writer ends lets its open return
            reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK) if writer.is_alive() else None
            writer.join()
            if reader is not None:
                os.close(reader)
        assert s.name == "o3b_rain" and s.raw == base()

    @pytest.mark.parametrize("name", ["absent", "sub/o3b_rain", "../scenarios/o3b_rain", "{tmp}/tiny"])
    def test_neither_a_file_nor_a_bundled_name(self, tmp_path, monkeypatch, name):
        # only a bare name is looked up among the bundled scenarios, and
        # `.json` is added to nothing else: {tmp}/tiny.json exists
        (tmp_path / "tiny.json").write_text(json.dumps(base()))
        monkeypatch.chdir(tmp_path)
        name = name.format(tmp=tmp_path)
        with pytest.raises(ScenarioError) as exc:
            load_scenario(name)
        assert str(exc.value) == f"{name}: no such scenario file or bundled scenario"

    def test_file_that_is_not_utf8(self, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_text(json.dumps(base()).replace('"a"', '"Göteborg"'), encoding="latin-1")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(p)
        assert str(exc.value).startswith(f"{p}: 'utf-8' codec can't decode byte 0xf6")

    def test_bundled_scenarios_parse(self):
        for name in ("o3b_clear", "o3b_rain", "toy2", "toy3"):
            s = parse_scenario(bundled(name), name=name)
            assert s.slot_count >= 1

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("constellation", "altitude_km", float("nan")),
            ("time", "slot_s", float("nan")),
            ("time", "duration_s", float("inf")),
            ("rain_model", "rain_height_km", float("nan")),
            # integers too large for a float
            pytest.param("time", "duration_s", 10**400, id="time-duration_s-10**400"),
            pytest.param("constellation", "altitude_km", 10**400, id="constellation-altitude_km-10**400"),
        ],
    )
    def test_non_finite_numbers_exit_2_with_path(self, tmp_path, capsys, section, key, value):
        # json reads the NaN and Infinity literals that json.dumps writes here
        data = bundled("toy3")
        data[section][key] = value
        p = tmp_path / "toy3.json"
        p.write_text(json.dumps(data))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert f"toy3.{section}.{key}: must be a finite number" in capsys.readouterr().err

    def test_horizon_past_the_last_representable_time_exits_2_with_path(self, tmp_path, capsys):
        # finite and evenly divided, but start + duration_s overflows datetime
        data = bundled("toy3")
        data["time"].update(duration_s=1e300, slot_s=1e299)
        p = tmp_path / "toy3.json"
        p.write_text(json.dumps(data))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "toy3.time.duration_s: start + duration_s is past" in capsys.readouterr().err

    @pytest.mark.parametrize("duration_s, slot_s", [(2.5e11, 1), (1e300, 1e-10)])
    def test_enormous_slot_count_exits_2_with_path(self, tmp_path, capsys, duration_s, slot_s):
        # the first horizon ends in the year 9948 but has 2.5e11 slots; the
        # second one's slot count overflows to inf
        data = bundled("toy3")
        data["time"].update(duration_s=duration_s, slot_s=slot_s)
        p = tmp_path / "toy3.json"
        p.write_text(json.dumps(data))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "toy3.time.duration_s: " in err and f"more than the limit of {MAX_SLOT_COUNT}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_horizon_of_zero_slots_exits_2_with_path(self, tmp_path, capsys, command):
        # 1e-12 slots passes the even-division check but rounds to none
        data = bundled("toy3")
        data["time"].update(duration_s=1e-12, slot_s=1)
        p = tmp_path / "toy3.json"
        p.write_text(json.dumps(data))
        assert main([command, str(p), "--out", str(tmp_path / "out")]) == 2
        assert "toy3.time.duration_s: 1e-12 slots (duration_s / slot_s), fewer than one" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("key, value", [("bandwidth_hz", -1), ("noise_power_w", 0)])
    def test_non_positive_isl_budget_value_exits_2_with_path(self, tmp_path, capsys, command, key, value):
        # the physical ISL budget, without the override, divides by both
        data = bundled("toy3")
        data["isl"] = {"sensitivity_dbm": -200, key: value}
        p = tmp_path / "toy3.json"
        p.write_text(json.dumps(data))
        assert main([command, str(p), "--out", str(tmp_path / "out")]) == 2
        assert "toy3.isl: bandwidth_hz and noise_power_w must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("feeder_link", "eirp_dbw", 1e5, "eirp_dbw must be in [-300, 300]"),
            ("feeder_link", "bandwidth_hz", 1e-300, "bandwidth_hz must be in [1, 3e+12]"),
            ("feeder_link", "carrier_frequency_hz", 1e-300, "carrier_frequency_hz must be in [3000, 3e+12]"),
            ("rain_model", "coeff_b", 1e5, "coeff_b must be in [0, 10]"),
            ("rain_model", "reduction_length_scale_km", 5e-324, "reduction_length_scale_km must be in [0.001, inf]"),
            ("isl", "beam_divergence_rad", 1e-300, "beam_divergence_rad must be in [1e-09, 1]"),
            ("isl", "sensitivity_dbm", 1e5, "sensitivity_dbm must be in [-300, 300]"),
        ],
    )
    def test_link_budget_value_that_overflows_exits_2_with_path(self, tmp_path, capsys, section, key, value, message):
        # each of these ended the run in an OverflowError, ValueError or ZeroDivisionError
        data = bundled("toy3")
        data[section] = {key: value}  # for isl: the physical budget, without the override
        p = tmp_path / "toy3.json"
        p.write_text(json.dumps(data))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert f"toy3.{section}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_slot_count_limit_is_inclusive(self):
        d = base()
        d["time"].update(duration_s=MAX_SLOT_COUNT, slot_s=1)
        assert parse_scenario(d).slot_count == MAX_SLOT_COUNT
        d["time"].update(duration_s=MAX_SLOT_COUNT + 1)
        with pytest.raises(ScenarioError, match=f"scenario.time.duration_s: .* more than the limit of {MAX_SLOT_COUNT}"):
            parse_scenario(d)
