"""The bulk output writers against the standard library, byte for byte.

`cli` formats allocations.json, results.csv and compare.csv itself.  Here
the standard library writes the same documents as `cli` once did, from a
list of dicts through `json.dumps(..., indent=2)` and row by row through
`csv.writer`, and the two must agree on every generated result: awkward
station ids, empty fraction lists, fractions at the floor, degenerate
slots, non-finite and subnormal values.
"""
import csv
import json
import math
from datetime import timedelta, timezone
from types import SimpleNamespace
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from meoflow import cli, engine, svgplot  # noqa: E402
from meoflow.cli import FRACTION_FLOOR  # noqa: E402
from meoflow.engine import RunResult  # noqa: E402
from meoflow.scenario import load_scenario, parse_scenario  # noqa: E402

SETTINGS = hypothesis.settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)

SPECIAL = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, math.inf, -math.inf, math.nan]
floats = st.sampled_from(SPECIAL) | st.floats()
fractions = st.sampled_from([*SPECIAL, FRACTION_FLOOR, math.nextafter(FRACTION_FLOOR, 1.0)]) | st.floats(0.0, 1.0)
station_ids = st.text(st.sampled_from(['"', ",", "\\", "\n", "\r", " ", "a", "é", "漢", "😀"]), max_size=5) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=5
)


@st.composite
def run_results(draw, slots=st.integers(0, 4), satellites=st.integers(1, 3)):
    """A RunResult of up to 4 slots and 3 satellites, each array filled by `floats`."""
    ids = draw(st.lists(station_ids, min_size=1, max_size=4))
    n, k = draw(slots), draw(satellites)
    start = draw(st.datetimes(timezones=st.sampled_from([timezone.utc, timezone(timedelta(hours=-5))])))
    keys = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(0, len(ids) - 1))
    allocations = [
        SimpleNamespace(
            slot_index=slot,
            t_star_bps=draw(floats),
            degenerate=draw(st.booleans()),
            w=draw(st.dictionaries(keys, fractions, max_size=5)),
            v=draw(st.dictionaries(keys, fractions, max_size=5)),
        )
        for slot in range(n)
    ]

    def grid(shape):
        return np.array(draw(st.lists(floats, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)

    return RunResult(
        scenario=SimpleNamespace(station_ids=tuple(ids), slot_midpoint=lambda slot: start + timedelta(minutes=5 * slot)),
        isl_enabled=True,
        rates_bps=grid((n, k)),
        t_star_bps=grid((n,)),
        direct_bps=grid((n, k)),
        relayed_bps=grid((n, k)),
        serving=tuple(tuple(draw(st.none() | st.integers(0, len(ids) - 1)) for _ in range(k)) for _ in range(n)),
        allocations=allocations,
        degenerate_slots=tuple(slot for slot in range(n) if draw(st.booleans())),
        iterations=np.zeros(n, dtype=int),
    )


def stdlib_allocations(result):
    """allocations.json as json.dumps wrote it from one dict per slot and fraction."""
    ids = result.scenario.station_ids
    doc = [
        {
            "slot": alloc.slot_index,
            "t_star_bps": float(alloc.t_star_bps),
            "degenerate": alloc.degenerate,
            "feeder_fractions": [
                {"source": s, "transmitter": t, "station": ids[j], "fraction": float(f)}
                for (s, t, j), f in sorted(alloc.w.items())
                if f > FRACTION_FLOOR
            ],
            "isl_fractions": [
                {"source": s, "relay": l, "station": ids[j], "fraction": float(f)}
                for (s, l, j), f in sorted(alloc.v.items())
                if f > FRACTION_FLOOR
            ],
        }
        for alloc in result.allocations
    ]
    return json.dumps(doc, indent=2) + "\n"


def stdlib_csv(path, result, columns, row):
    """A CSV as csv.writer wrote it, `row(n, k)` giving a row's last cells as values."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "time_utc", "satellite", *columns])
        for n in range(result.slot_count):
            stamp = result.scenario.slot_midpoint(n).isoformat()
            for k in range(result.satellite_count):
                writer.writerow([n, stamp, k, *row(n, k)])
    return path.read_bytes()


def written(command, *results):
    """{name: content} of what `command` has `_solve_and_write` write for `results`."""
    with mock.patch.object(cli, "_solve_and_write", lambda args, document, files: files):
        return dict(command(None)(None, *results))


def bulk_csv(path, result, content):
    path.write_text(content, newline="")
    return path.read_bytes()


@SETTINGS
@hypothesis.given(run_results())
def test_allocations_json_is_what_json_dumps_writes(result):
    assert written(cli.cmd_run, result)["allocations.json"] == stdlib_allocations(result)


@SETTINGS
@hypothesis.given(run_results())
def test_results_csv_is_what_csv_writer_writes(tmp_path, result):
    ids = result.scenario.station_ids
    degenerate = set(result.degenerate_slots)

    def row(n, k):
        j = result.serving[n][k]
        return [
            float(result.rates_bps[n, k]),
            float(result.t_star_bps[n]),
            ids[j] if j is not None else "",
            float(result.direct_bps[n, k]),
            float(result.relayed_bps[n, k]),
            int(n in degenerate),
        ]

    columns = ["rate_bps", "t_star_bps", "serving_gs", "direct_bps", "relayed_bps", "degenerate"]
    want = stdlib_csv(tmp_path / "want.csv", result, columns, row)
    assert bulk_csv(tmp_path / "results.csv", result, written(cli.cmd_run, result)["results.csv"]) == want


@SETTINGS
@hypothesis.given(
    st.tuples(st.integers(0, 4), st.integers(1, 3)).flatmap(
        lambda shape: st.tuples(*[run_results(*map(st.just, shape))] * 2)
    )
)
def test_compare_csv_is_what_csv_writer_writes(tmp_path, arms):
    baseline, treatment = arms

    def row(n, k):
        b = float(baseline.rates_bps[n, k])
        t = float(treatment.rates_bps[n, k])
        return [b, t, t - b]

    want = stdlib_csv(tmp_path / "want.csv", baseline, ["baseline_bps", "treatment_bps", "delta_bps"], row)
    content = written(cli.cmd_compare, baseline, treatment)["compare.csv"]
    assert bulk_csv(tmp_path / "compare.csv", baseline, content) == want


def test_decode_stores_plain_floats():
    # numpy scalars in w and v cost a worker 2.5-5x more to pickle its results
    data = load_scenario("o3b_rain").raw
    data["policies"]["serving_gs"] = "lp-fractional"
    sc = parse_scenario(data, name="o3b_rain")
    allocations = engine._solve_slots(sc, True, range(24))
    relayed = [f for a in allocations for (s, t, _), f in a.w.items() if s != t]
    assert relayed and any(0.0 < f < 1.0 for f in relayed)
    assert {type(f) for a in allocations for fractions in (a.w, a.v) for f in fractions.values()} == {float}


coordinates = st.floats(-1e6, 1e6)


@SETTINGS
@hypothesis.given(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=40))
def test_polyline_maps_every_point_as_the_frame_maps_one(points):
    xs, ys = zip(*points)
    frame = svgplot._Frame(min(xs), max(xs), min(ys), max(ys))
    one_at_a_time = " ".join(f"{frame.x(x):.2f},{frame.y(y):.2f}" for x, y in points)
    assert f'points="{one_at_a_time}"' in svgplot._polyline(frame, xs, np.array(ys), "#000")


@SETTINGS
@hypothesis.given(st.lists(st.floats(0.0, 2000.0), max_size=60), st.none() | st.lists(st.floats(0.0, 2000.0), max_size=60))
def test_histogram_bars_are_mapped_as_the_frame_maps_one(series, baseline):
    # the bars of each arm, the baseline's first, each corner mapped one at a time
    arms = [np.array(a) for a in (baseline, series) if a is not None]
    top = max((a.max() for a in arms if a.size), default=1.0)
    edges = engine.histogram_edges(top, engine.HISTOGRAM_BIN_WIDTH_BPS / 1e6)
    counts = [np.histogram(a, bins=edges)[0] for a in arms]
    frame = svgplot._Frame(0.0, float(edges[-1]), 0.0, max(max(c.max() for c in counts), 1.0) * 1.1)
    bars = [
        (frame.x(edges[b]), frame.y(float(c[b])), frame.x(edges[b + 1]) - frame.x(edges[b]), frame.y(0.0) - frame.y(float(c[b])))
        for c in counts
        for b in np.flatnonzero(c)
    ]
    expected = [f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}"' for x, y, w, h in bars]
    svg = svgplot.histogram_svg([a for a in (series, baseline) if a is not None], "t")
    assert [line.split(" fill=")[0] for line in svg.splitlines() if line.startswith("<rect") and "fill-opacity" in line] == expected


@SETTINGS
@hypothesis.given(
    st.lists(st.floats(0.0, 1e5), min_size=1, max_size=20),
    st.lists(st.tuples(st.floats(-30.0, 60.0), st.floats(0.0, 30.0)), max_size=5),
)
@hypothesis.example([150.0], [(0.0, 1.0)])  # toy3: one slot, its frame from 150 s, rain from 0 h
def test_rain_windows_are_shaded_inside_the_axes(times_s, windows):
    # a window that crosses the horizon's ends is clipped to the axes rect;
    # one wholly outside it is not drawn
    rain = [(start, start + length, "rain") for start, length in windows]
    svg = svgplot.timeseries_svg(times_s, [np.zeros(len(times_s))], "t", rain)
    rects = [el.attrib for el in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}rect")]
    (axes,) = [r for r in rects if r["fill"] == "none"]
    shaded = [r for r in rects if r["fill"] == svgplot.SHADE_COLOR]
    left, right = float(axes["x"]), float(axes["x"]) + float(axes["width"])
    for r in shaded:  # each end rounded to 0.01 on its own
        assert left <= float(r["x"]) and float(r["x"]) + float(r["width"]) <= right + 0.011
        assert (r["y"], r["height"]) == (axes["y"], axes["height"])
    hours = np.asarray(times_s) / 3600.0
    frame = svgplot._Frame(float(hours.min()), float(hours.max()), 0.0, 1.0)
    assert len(shaded) == sum(frame.x0 <= end and start <= frame.x1 for start, end, _ in rain)
