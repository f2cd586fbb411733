"""Download load balancing for MEO satellite constellations.

Simulates RF feeder links with rain fading and optical inter-satellite
links over a discrete time horizon, and solves a per-slot max-min rate
allocation LP with a built-in simplex solver.
"""
from .allocation import AllocationResult, solve_allocation
from .channel import (
    FeederLinkParams,
    IslParams,
    RainEvent,
    RainModelParams,
    fl_capacity_bps,
    fl_cnr_db,
    isl_capacity_bps,
    rain_attenuation_db,
    shannon_capacity_bps,
)
from .engine import RunResult, compare, run, summarize
from .geometry import ConstellationSpec, GroundStationSpec, SlotGeometry, slot_geometry
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .topology import SlotGraph, build_slot_graph

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "ConstellationSpec",
    "FeederLinkParams",
    "GroundStationSpec",
    "IslParams",
    "RainEvent",
    "RainModelParams",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SlotGeometry",
    "SlotGraph",
    "build_slot_graph",
    "compare",
    "fl_capacity_bps",
    "fl_cnr_db",
    "isl_capacity_bps",
    "load_scenario",
    "parse_scenario",
    "rain_attenuation_db",
    "run",
    "shannon_capacity_bps",
    "slot_geometry",
    "solve_allocation",
    "summarize",
    "__version__",
]
