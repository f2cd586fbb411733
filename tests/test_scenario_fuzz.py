"""Parser fuzz: toy3 with one field replaced by a drawn value.

The fields are toy3's own and, written out, the keys toy3 leaves at their
defaults: the link-budget sections, the station altitudes and masks, and
the ring's phases and inclination.  Those are fuzzed on a toy3 without the
ISL override, so that the physical ISL budget runs.  Each example either raises a ScenarioError whose message starts with the
scenario name, so that it names the path it rejects, or parses to a
scenario whose first slot runs: `engine.run` returns, or raises the
AllocationError of an LP that did not solve.
"""
import copy
import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from meoflow import engine  # noqa: E402
from meoflow.allocation import AllocationError  # noqa: E402
from meoflow.channel import FeederLinkParams, IslParams, RainModelParams  # noqa: E402
from meoflow.scenario import ScenarioError, parse_scenario  # noqa: E402
from test_slot_range import bundled  # noqa: E402

TOY3 = bundled("toy3")


def field_paths(node, prefix=()):
    """The key path of every value under `node`, objects and lists included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def written_out(data):
    """`data` with every default key written out and the ISL override dropped."""
    data = copy.deepcopy(data)
    count = data["constellation"]["satellite_count"]
    data["constellation"].update(inclination_deg=0.0, phase_offsets_deg=[i * 360.0 / count for i in range(count)])
    for station in data["ground_stations"]:
        station.update(altitude_m=0.0, min_elevation_deg=5.0)
    data["feeder_link"] = dataclasses.asdict(FeederLinkParams())
    data["isl"] = {key: v for key, v in dataclasses.asdict(IslParams()).items() if v is not None}
    data["rain_model"] = dict(dataclasses.asdict(RainModelParams()), **data["rain_model"])
    return data


TOY3_DEFAULTS = written_out(TOY3)
PATHS = list(field_paths(TOY3))
CASES = [(TOY3, path) for path in PATHS] + [
    (TOY3_DEFAULTS, path) for path in field_paths(TOY3_DEFAULTS) if path not in PATHS
]
EDGE_VALUES = [0, -1, 10**30, 1e300, -1e300, "", "x", None, True, [], [0], {}, {"x": 0}]
numbers = st.sampled_from(EDGE_VALUES[:5]) | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
scalars = numbers | st.text(max_size=8) | st.none() | st.booleans()
values = scalars | st.lists(scalars, max_size=3) | st.dictionaries(st.text(max_size=8), scalars, max_size=3)


def replaced(doc, path, value):
    data = copy.deepcopy(doc)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def check_rejected_with_its_path_or_runs(doc, path, value):
    try:
        scenario = parse_scenario(replaced(doc, path, value), name="toy3")
    except ScenarioError as exc:
        assert str(exc).startswith("toy3"), exc
        return
    try:
        engine.run(dataclasses.replace(scenario, duration_s=scenario.slot_s))
    except AllocationError:
        pass


@pytest.mark.parametrize("doc, path", [pytest.param(*case, id=".".join(map(str, case[1]))) for case in CASES])
def test_every_field_takes_each_edge_value(doc, path):
    # a huge satellite_count or altitude_km is drawn too rarely below
    for value in EDGE_VALUES:
        check_rejected_with_its_path_or_runs(doc, path, value)


@hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(CASES), values)
def test_one_field_takes_a_drawn_value(case, value):
    check_rejected_with_its_path_or_runs(*case, value)
