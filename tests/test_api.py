"""The package's public names, which outside callers such as perfbench use,
and the inputs that the layers' entry points refuse."""
import re
from datetime import datetime, timezone

import pytest

import meoflow
import meoflow.cli
from meoflow.allocation import solve_block
from meoflow.channel import (
    FeederLinkParams,
    IslParams,
    RainModelParams,
    fspl_db,
    isl_received_power_w,
    linear_to_db,
    shannon_capacity_bps,
)
from meoflow.geometry import ConstellationSpec, GroundStationSpec, slot_geometry
from meoflow.simplex import LpProblem
from meoflow.topology import build_slot_graph


def test_every_public_name_resolves():
    missing = [name for name in meoflow.__all__ if not hasattr(meoflow, name)]
    assert missing == []


def test_names_the_benchmark_calls_are_public():
    # perfbench builds its HiGHS oracle from the first two and loads scenarios with the third
    assert {"slot_geometry", "build_slot_graph", "load_scenario"} <= set(meoflow.__all__)
    assert callable(meoflow.cli.main)


def test_exports_the_api_and_the_types_it_takes_returns_or_raises():
    # the lower layers (channel budgets, solve_allocation, parse_scenario, ...) are imported from their modules
    assert sorted(meoflow.__all__) == sorted([
        "load_scenario", "run", "compare", "summarize", "slot_geometry", "build_slot_graph", "Scenario",
        "ScenarioError", "RunResult", "SlotGeometry", "SlotGraph", "ConstellationSpec", "GroundStationSpec",
        "FeederLinkParams", "IslParams", "RainModelParams", "__version__",
    ])


def one_station_geometry():
    epoch = datetime(2026, 1, 1, tzinfo=timezone.utc)
    spec = ConstellationSpec(2, 8062.0, (0.0, 180.0), epoch)
    return slot_geometry(spec, [GroundStationSpec("a", 0.0, 0.0, 0.0)], epoch)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: fspl_db(0.0, 20e9), "distance and frequency must be > 0", id="fspl_db-distance-0"),
        pytest.param(lambda: fspl_db(8062.0, 0.0), "distance and frequency must be > 0", id="fspl_db-frequency-0"),
        pytest.param(lambda: shannon_capacity_bps(-1.0, 1e6), "cnr_linear must be >= 0", id="shannon-negative-cnr"),
        pytest.param(lambda: shannon_capacity_bps(1.0, 0.0), "bandwidth_hz must be > 0", id="shannon-bandwidth-0"),
        pytest.param(lambda: isl_received_power_w(0.0, IslParams()), "distance_km must be > 0", id="isl-distance-0"),
        pytest.param(lambda: linear_to_db(0.0), "dB of a non-positive ratio", id="linear_to_db-0"),
        pytest.param(
            lambda: LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0], variable_tags=("t",)),
            "variable_tags length must match objective length",
            id="lp-one-tag-for-two-variables",
        ),
        pytest.param(
            lambda: build_slot_graph(
                one_station_geometry(), FeederLinkParams(), IslParams(), RainModelParams(), rain_rates_mm_h=[0.0, 0.0]
            ),
            "per-station arrays must have one entry per station",
            id="slot-graph-two-rain-rates-for-one-station",
        ),
    ],
)
def test_entry_points_refuse_inputs_they_cannot_take(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_block_of_no_slots_solves_to_no_results():
    assert solve_block([]) == []
