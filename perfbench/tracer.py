"""Outside-in tracer for meoflow: spans around module attributes, per-layer sums.

The traced process replaces the attributes that meoflow's own callers look
up (``meoflow.engine.slot_geometry``, ``meoflow.allocation.solve`` and so
on) with wrappers that record a span each: name, start, end, parent span
and a few counts taken from arguments and results.  Spans stay in memory
and are written out once, when the process ends.  ``src/`` is never
edited.  An attribute that a later version of meoflow no longer has is
skipped and listed as unhooked, so its metrics read zero instead of the
run failing.

The pipeline is single-threaded: no layer waits on another, so there are
no wait-time metrics.  A layer's self time is its spans' time minus the
time covered by their direct child spans.
"""
from __future__ import annotations

import importlib
import time

STAGE2_PARENT = "allocation.lexicographic_refine"


def _solve_info(args, result):
    problem = args[0]
    return {
        "rows": len(problem.rhs),
        "cols": len(problem.objective),
        "pivots": int(result.iteration_count),
        "optimal": result.status == "optimal",
    }


def _run_info(args, result):
    return {"isl": bool(result.isl_enabled)}


# (module, attribute as its callers look it up, span name, info taken from args and result)
HOOKS = (
    ("meoflow.cli", "main", "cli.main", None),
    ("meoflow.cli", "load_scenario", "scenario.load_scenario", None),
    ("meoflow.cli", "parse_scenario", "scenario.parse_scenario", None),
    ("meoflow.cli", "run", "engine.run", _run_info),
    ("meoflow.cli", "summarize", "engine.summarize", None),
    ("meoflow.cli", "compare", "engine.compare", None),
    ("meoflow.cli", "_write_json", "cli.write", None),
    ("meoflow.cli", "_write_results_csv", "cli.write", None),
    ("meoflow.cli", "_write_compare_csv", "cli.write", None),
    ("meoflow.cli", "timeseries_svg", "svgplot", None),
    ("meoflow.cli", "histogram_svg", "svgplot", None),
    ("meoflow.engine", "slot_geometry", "geometry.slot_geometry", None),
    ("meoflow.engine", "build_slot_graph", "topology.build_slot_graph", None),
    ("meoflow.engine", "solve_allocation", "allocation.solve_allocation", None),
    ("meoflow.topology", "select_serving_gs", "topology.select_serving_gs", None),
    ("meoflow.topology", "fl_capacity_bps", "channel.fl_capacity_bps", None),
    ("meoflow.topology", "isl_capacity_bps", "channel.isl_capacity_bps", None),
    ("meoflow.allocation", "build_problem", "allocation.build_problem", None),
    ("meoflow.allocation", "solve", "simplex.solve", _solve_info),
    ("meoflow.allocation", "lexicographic_refine", STAGE2_PARENT, None),
    ("meoflow.allocation", "decode", "allocation.decode", None),
)


class Tracer:
    """Records spans as [name, start, end, parent index, info] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.unhooked: list[str] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, None])

    def install(self) -> None:
        for module_name, attr, name, info in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.unhooked.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, info))

    def _wrap(self, fn, name, info):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced


def _stage(spans: list, parent) -> int:
    """A solve called from lexicographic_refine is stage 2, any other stage 1."""
    return 2 if parent is not None and spans[parent][0] == STAGE2_PARENT else 1


def self_times(spans: list) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list, wall_s: float, output_bytes: int) -> dict:
    """Per-layer numbers of one traced CLI process, keyed by metric name."""
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), t in zip(spans, own):
        self_s[name] = self_s.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
    stage_s = {1: 0.0, 2: 0.0}
    pivots = {1: 0, 2: 0}
    rows = cols = stage1_lps = non_optimal = 0
    for (name, _, _, parent, info), t in zip(spans, own):
        if name != "simplex.solve":
            continue
        stage = _stage(spans, parent)
        stage_s[stage] += t
        pivots[stage] += info["pivots"]
        non_optimal += not info["optimal"]
        if stage == 1:
            rows += info["rows"]
            cols += info["cols"]
            stage1_lps += 1
    total_pivots = pivots[1] + pivots[2]
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    return {
        "scenario.parse_s": s("scenario.load_scenario") + s("scenario.parse_scenario"),
        "geometry.slot_geometry.s": s("geometry.slot_geometry"),
        "geometry.slot_geometry.calls": calls.get("geometry.slot_geometry", 0),
        "channel.fl_capacity_bps.s": s("channel.fl_capacity_bps"),
        "channel.fl_capacity_bps.calls": calls.get("channel.fl_capacity_bps", 0),
        "channel.isl_capacity_bps.calls": calls.get("channel.isl_capacity_bps", 0),
        "topology.build_slot_graph.self_s": s("topology.build_slot_graph"),
        "topology.select_serving_gs.s": s("topology.select_serving_gs"),
        "allocation.solve_allocation.self_s": s("allocation.solve_allocation"),
        "allocation.build_problem.s": s("allocation.build_problem"),
        "allocation.lexicographic_refine.self_s": s(STAGE2_PARENT),
        "allocation.decode.s": s("allocation.decode"),
        "allocation.lp_rows_mean": rows / stage1_lps if stage1_lps else 0.0,
        "allocation.lp_cols_mean": cols / stage1_lps if stage1_lps else 0.0,
        "simplex.stage1.s": stage_s[1],
        "simplex.stage2.s": stage_s[2],
        "simplex.stage1.pivots": pivots[1],
        "simplex.stage2.pivots": pivots[2],
        "simplex.us_per_pivot": (stage_s[1] + stage_s[2]) / total_pivots * 1e6 if total_pivots else 0.0,
        "simplex.stage2_pivot_share": pivots[2] / total_pivots if total_pivots else 0.0,
        "simplex.non_optimal": non_optimal,
        "engine.run.self_s": s("engine.run"),
        "engine.summarize.s": s("engine.summarize"),
        "engine.compare.s": s("engine.compare"),
        "cli.main.self_s": s("cli.main"),
        "cli.import_s": s("cli.import"),
        "cli.write.s": s("cli.write"),
        "cli.output_bytes": output_bytes,
        "svgplot.s": s("svgplot"),
        "trace.coverage_pct": sum(own) / wall_s * 100.0,
    }


def arm_pivots(spans: list) -> list[dict]:
    """Stage-1 and stage-2 pivots of each engine.run span, in call order."""
    arms: dict[int, dict] = {}
    for name, _, _, parent, info in spans:
        if name != "simplex.solve":
            continue
        stage = _stage(spans, parent)
        while parent is not None and spans[parent][0] != "engine.run":
            parent = spans[parent][3]
        if parent is None:
            continue
        arm = arms.setdefault(parent, {"isl": spans[parent][4]["isl"], "stage1": 0, "stage2": 0})
        arm[f"stage{stage}"] += info["pivots"]
    return [arms[i] for i in sorted(arms)]
