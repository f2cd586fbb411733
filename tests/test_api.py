"""The package's public names, which outside callers such as perfbench use."""
import meoflow
import meoflow.cli


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
