"""Max-min fair rate allocation on a slot graph, via the LP solver.

Each satellite's download rate is its direct feeder-link share plus
whatever it relays through a ring neighbor onto that neighbor's feeder
links.  One LP per slot maximizes the minimum rate:

    maximize t
    s.t.     R_k  =  sum_i c_fl[k,i] w_direct[k,i] + sum_routes r[k,l,j]
             t   <=  R_k                                  for every k
             r[k,l,j] <= c_isl[k,l] v[k,l,j]              (ISL leg cap)
             r[k,l,j] <= c_fl[l,j] w_relay[k,l,j]         (feeder leg cap)
             sum of fractions on each feeder edge  <= 1
             sum_j v[k,l,j] on each directed ISL   <= 1
             all variables >= 0

An isolated satellite (no feeder link and no usable neighbor) has no
R_k row, epigraph row or rate column: it would pin t to 0.  It is
reported at rate 0 and the slot is flagged degenerate.

The min() of the two relay legs is linearized through the shared
throughput variable r.  A second, lexicographic stage maximizes
sum_k R_k while pinning t >= t* so spare capacity is not left stranded;
it is on by default.  It continues from the first stage's optimal
tableau: the pin row is appended to it and only phase 2 runs.

Capacities enter the matrix in Mbit/s to keep the tableau
well-conditioned; results are converted back to bit/s on decode.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .simplex import (
    EQ,
    GE,
    LE,
    STATUS_OPTIMAL,
    LpProblem,
    LpSolution,
    SimplexIterationError,
    solve,
)
from .topology import SlotGraph

SCALE_BPS = 1e6
LEXICO_SLACK = 1e-9


@dataclass(frozen=True)
class Route:
    """One relay path: `source`'s traffic over the ISL to `relay`, then
    down relay's feeder link to station `gs`."""

    source: int
    relay: int
    gs: int


def enumerate_routes(graph: SlotGraph) -> list[Route]:
    """All usable relay routes, ordered by (source, relay, gs).

    A route needs positive capacity on both legs; traffic is never
    relayed to the source's own serving station.
    """
    routes = []
    for k in range(graph.satellite_count):
        own = graph.serving_gs[k]
        for l in graph.neighbors[k]:
            if graph.isl_capacity_bps[k, l] <= 0.0:
                continue
            for j in range(graph.station_count):
                if graph.fl_capacity_bps[l, j] <= 0.0:
                    continue
                if own is not None and j == own:
                    continue
                routes.append(Route(k, l, j))
    return routes


def build_problem(graph: SlotGraph) -> LpProblem:
    """Assemble the per-slot max-min LP over the non-isolated satellites.

    Isolated satellites get no rate column, R_k row or epigraph row; they
    have no feeder edge and no route either, so the LP is the one the
    served satellites alone would give.
    """
    k_count = graph.satellite_count
    served = [k for k in range(k_count) if k not in graph.isolated]
    routes = enumerate_routes(graph)
    fl = graph.fl_capacity_bps / SCALE_BPS
    isl = graph.isl_capacity_bps / SCALE_BPS

    tags: list[tuple] = [("t",)]
    tags += [("rate", k) for k in served]
    direct_edges = [(k, j) for k in range(k_count) for j in range(graph.station_count) if fl[k, j] > 0.0]
    tags += [("w_direct", k, j) for k, j in direct_edges]
    first_route = len(tags)
    for rt in routes:
        tags += [("v", rt.source, rt.relay, rt.gs), ("w_relay", rt.source, rt.relay, rt.gs), ("r", rt.source, rt.relay, rt.gs)]
    col = {tag: idx for idx, tag in enumerate(tags)}
    n = len(tags)

    # the routes' columns, grouped once by the rows they enter, in route order
    direct_js: dict[int, list[int]] = {}
    for k, j in direct_edges:
        direct_js.setdefault(k, []).append(j)
    r_by_source: dict[int, list[int]] = {}
    w_by_feeder: dict[tuple[int, int], list[int]] = {}
    v_by_isl: dict[tuple[int, int], list[int]] = {}
    for i, rt in enumerate(routes):
        v_col = first_route + 3 * i  # then w_relay, then r, as tagged above
        v_by_isl.setdefault((rt.source, rt.relay), []).append(v_col)
        w_by_feeder.setdefault((rt.relay, rt.gs), []).append(v_col + 1)
        r_by_source.setdefault(rt.source, []).append(v_col + 2)

    rows: list[dict[int, float]] = []
    senses: list[str] = []
    rhs: list[float] = []

    # R_k ties the rate variable to its direct and relayed parts
    for k in served:
        row = {col[("rate", k)]: 1.0}
        for j in direct_js.get(k, ()):
            row[col[("w_direct", k, j)]] = -fl[k, j]
        for r_col in r_by_source.get(k, ()):
            row[r_col] = -1.0
        rows.append(row)
        senses.append(EQ)
        rhs.append(0.0)

    # epigraph t <= R_k
    for k in served:
        rows.append({col[("t",)]: 1.0, col[("rate", k)]: -1.0})
        senses.append(LE)
        rhs.append(0.0)

    # per-route leg capacities
    for i, rt in enumerate(routes):
        v_col = first_route + 3 * i
        rows.append({v_col + 2: 1.0, v_col: -isl[rt.source, rt.relay]})
        senses.append(LE)
        rhs.append(0.0)
        rows.append({v_col + 2: 1.0, v_col + 1: -fl[rt.relay, rt.gs]})
        senses.append(LE)
        rhs.append(0.0)

    # feeder-edge packing: owner's share plus every relayed share <= 1
    for (s, j) in direct_edges:
        row = {col[("w_direct", s, j)]: 1.0}
        for w_col in w_by_feeder.get((s, j), ()):
            row[w_col] = 1.0
        rows.append(row)
        senses.append(LE)
        rhs.append(1.0)
    # a feeder edge used only by relays still packs to <= 1
    for edge in sorted(w_by_feeder.keys() - set(direct_edges)):
        rows.append(dict.fromkeys(w_by_feeder[edge], 1.0))
        senses.append(LE)
        rhs.append(1.0)

    # directed-ISL packing: total fraction over all commodities <= 1
    for link in sorted(v_by_isl):
        rows.append(dict.fromkeys(v_by_isl[link], 1.0))
        senses.append(LE)
        rhs.append(1.0)

    objective = np.zeros(n)
    objective[col[("t",)]] = 1.0
    return LpProblem(
        objective=objective,
        rows=rows,
        senses=senses,
        rhs=np.array(rhs),
        bounds=[(0.0, None)] * n,
        variable_tags=tuple(tags),
    )


def lexicographic_refine(
    problem: LpProblem, t_star: float, stage1: Optional[LpSolution] = None
) -> tuple[LpProblem, LpSolution]:
    """Stage 2: maximize total rate holding the max-min value.

    Returns the refined problem and its solution.  t_star is in solver
    units (Mbit/s); the pin allows LEXICO_SLACK of slack.  The solve
    continues from `stage1`, the optimal stage-1 solution of `problem`,
    which is computed here when not given.
    """
    objective = np.zeros(problem.n_variables)
    for idx, tag in enumerate(problem.variable_tags):
        if tag[0] == "rate":
            objective[idx] = 1.0
    refined = LpProblem(
        objective=objective,
        rows=problem.rows + [{problem.column(("t",)): 1.0}],
        senses=problem.senses + [GE],
        rhs=np.append(problem.rhs, t_star - LEXICO_SLACK),
        bounds=list(problem.bounds),
        variable_tags=problem.variable_tags,
    )
    if stage1 is None:
        stage1 = solve(problem)
    return refined, solve(refined, base=stage1)


@dataclass
class AllocationResult:
    """Decoded per-slot allocation, all rates in bit/s.

    w maps (source, tx_satellite, station) to the feeder-link fraction
    carrying that source's traffic; v maps (source, relay, station) to
    the ISL fraction of the route.  Relay and ISL fractions are
    normalized to the realized route throughput, so aggregate edge rates
    and flow conservation close exactly.
    """

    slot_index: int
    t_star_bps: float
    rates_bps: np.ndarray
    w: dict[tuple[int, int, int], float]
    v: dict[tuple[int, int, int], float]
    fl_rates_bps: np.ndarray
    isl_rates_bps: np.ndarray
    iterations: int
    degenerate: bool = False


def decode(
    graph: SlotGraph,
    problem: LpProblem,
    solution: LpSolution,
    t_star: float,
    iterations: int,
) -> AllocationResult:
    """Map LP values back to fractions, per-edge rates and R_k.

    A satellite without a rate column (an isolated one) gets rate 0.
    """
    values = solution.values
    col = {tag: i for i, tag in enumerate(problem.variable_tags)}

    rate_cols = [col.get(("rate", k)) for k in range(graph.satellite_count)]
    rates = np.array([0.0 if c is None else values[c] for c in rate_cols]) * SCALE_BPS
    w: dict[tuple[int, int, int], float] = {}
    v: dict[tuple[int, int, int], float] = {}
    fl_rates = np.zeros_like(graph.fl_capacity_bps)
    isl_rates = np.zeros_like(graph.isl_capacity_bps)

    for tag in problem.variable_tags:
        if tag[0] == "w_direct":
            _, k, j = tag
            frac = float(values[col[tag]])
            if frac < 0.0:
                frac = 0.0
            w[(k, k, j)] = frac
            fl_rates[k, j] += frac * graph.fl_capacity_bps[k, j]
        elif tag[0] == "r":
            _, s, l, j = tag
            through = float(values[col[tag]]) * SCALE_BPS
            if through < 0.0:
                through = 0.0
            c_fl = graph.fl_capacity_bps[l, j]
            c_isl = graph.isl_capacity_bps[s, l]
            w[(s, l, j)] = through / c_fl if c_fl > 0 else 0.0
            v[(s, l, j)] = through / c_isl if c_isl > 0 else 0.0
            fl_rates[l, j] += through
            isl_rates[s, l] += through
    return AllocationResult(
        slot_index=graph.slot_index,
        t_star_bps=t_star * SCALE_BPS,
        rates_bps=rates,
        w=w,
        v=v,
        fl_rates_bps=fl_rates,
        isl_rates_bps=isl_rates,
        iterations=iterations,
        degenerate=bool(graph.isolated),
    )


class AllocationError(RuntimeError):
    """A slot LP that did not solve to optimality.

    Attributes:
        slot: slot index of the failing LP.
        stage: 1 for the max-min LP, 2 for the lexicographic refinement.
        reason: the solver status or error.
    """

    def __init__(self, slot: int, stage: int, reason: str):
        super().__init__(f"slot {slot}, stage {stage}: {reason}")
        self.slot = slot
        self.stage = stage
        self.reason = reason

    def __reduce__(self):
        # a worker process sends it to the parent; the default rebuilds it
        # from the formatted message alone, which __init__ does not accept
        return type(self), (self.slot, self.stage, self.reason), self.__dict__


def _require_optimal(graph: SlotGraph, stage: int, solution: LpSolution) -> None:
    if solution.status != STATUS_OPTIMAL:
        raise AllocationError(graph.slot_index, stage, f"LP {solution.status}")


def solve_allocation(graph: SlotGraph, lexicographic: bool = True) -> AllocationResult:
    """Solve one slot end to end: build, optimize, optionally refine, decode.

    Raises AllocationError, naming the slot and stage, when either LP
    ends other than optimal or the solver gives up.
    """
    problem = build_problem(graph)
    if not problem.rows:
        # every satellite is isolated: no LP to solve, t* and all rates are 0
        return decode(graph, problem, LpSolution(STATUS_OPTIMAL, 0.0, np.zeros(1), 0), 0.0, 0)
    try:
        stage1 = solve(problem)
    except SimplexIterationError as exc:
        raise AllocationError(graph.slot_index, 1, str(exc)) from exc
    _require_optimal(graph, 1, stage1)
    t_star = stage1.objective_value
    iterations = stage1.iteration_count
    chosen = stage1
    active_problem = problem
    if lexicographic:
        try:
            active_problem, stage2 = lexicographic_refine(problem, t_star, stage1)
        except (SimplexIterationError, ValueError) as exc:
            raise AllocationError(graph.slot_index, 2, str(exc)) from exc
        _require_optimal(graph, 2, stage2)
        iterations += stage2.iteration_count
        chosen = stage2
    return decode(graph, active_problem, chosen, t_star, iterations)
