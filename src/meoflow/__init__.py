"""Download load balancing for MEO satellite constellations.

Simulates RF feeder links with rain fading and optical inter-satellite
links over a discrete time horizon, and solves a per-slot max-min rate
allocation LP with a built-in simplex solver.  The package exports the
Python API; the lower layers are imported from their modules.
"""
from .channel import FeederLinkParams, IslParams, RainModelParams
from .engine import RunResult, compare, run, summarize
from .geometry import ConstellationSpec, GroundStationSpec, SlotGeometry, slot_geometry
from .scenario import Scenario, ScenarioError, load_scenario
from .topology import SlotGraph, build_slot_graph

__version__ = "0.1.0"

__all__ = [
    "ConstellationSpec",
    "FeederLinkParams",
    "GroundStationSpec",
    "IslParams",
    "RainModelParams",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SlotGeometry",
    "SlotGraph",
    "build_slot_graph",
    "compare",
    "load_scenario",
    "run",
    "slot_geometry",
    "summarize",
    "__version__",
]
