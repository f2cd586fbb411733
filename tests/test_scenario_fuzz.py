"""Parser fuzz: toy3 with one field replaced by a drawn value.

Each example either raises a ScenarioError whose message starts with the
scenario name, so that it names the path it rejects, or parses to a
scenario whose first slot runs: `engine.run` returns, or raises the
AllocationError of an LP that did not solve.
"""
import copy
import dataclasses
import json
from importlib import resources

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from meoflow import engine  # noqa: E402
from meoflow.allocation import AllocationError  # noqa: E402
from meoflow.scenario import ScenarioError, parse_scenario  # noqa: E402

TOY3 = json.loads((resources.files("meoflow") / "scenarios" / "toy3.json").read_text())


def field_paths(node, prefix=()):
    """The key path of every value under `node`, objects and lists included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


PATHS = list(field_paths(TOY3))
EDGE_VALUES = [0, -1, 10**30, 1e300, -1e300, "", "x", None, True, [], [0], {}, {"x": 0}]
numbers = st.sampled_from(EDGE_VALUES[:5]) | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
scalars = numbers | st.text(max_size=8) | st.none() | st.booleans()
values = scalars | st.lists(scalars, max_size=3) | st.dictionaries(st.text(max_size=8), scalars, max_size=3)


def replaced(path, value):
    data = copy.deepcopy(TOY3)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def check_rejected_with_its_path_or_runs(path, value):
    try:
        scenario = parse_scenario(replaced(path, value), name="toy3")
    except ScenarioError as exc:
        assert str(exc).startswith("toy3"), exc
        return
    try:
        engine.run(dataclasses.replace(scenario, duration_s=scenario.slot_s))
    except AllocationError:
        pass


@pytest.mark.parametrize("path", PATHS, ids=lambda path: ".".join(map(str, path)))
def test_every_field_takes_each_edge_value(path):
    # a huge satellite_count or altitude_km is drawn too rarely below
    for value in EDGE_VALUES:
        check_rejected_with_its_path_or_runs(path, value)


@hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(PATHS), values)
def test_one_field_takes_a_drawn_value(path, value):
    check_rejected_with_its_path_or_runs(path, value)
