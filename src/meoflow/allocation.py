"""Max-min fair rate allocation on a slot graph, via the LP solver.

Each satellite's download rate is its direct feeder-link share plus
whatever it relays through a ring neighbor onto that neighbor's feeder
links.  One LP per slot maximizes the minimum rate:

    maximize t
    s.t.     t - sum_i c_fl[k,i] w_direct[k,i] - sum_routes r[k,l,j] <= 0
                                                          for every k
             r[k,l,j] - c_isl[k,l] v[k,l,j]      <= 0     (ISL leg cap)
             r[k,l,j] - c_fl[l,j] w_relay[k,l,j] <= 0     (feeder leg cap)
             sum of fractions on each feeder edge  <= 1
             sum_j v[k,l,j] on each directed ISL   <= 1
             all variables >= 0

The first row is the epigraph t <= R_k with satellite k's rate R_k, its
direct share plus everything it relays, written out in place.
`build_problem` writes these rows as the dense matrix A of
`maximize c.x s.t. A.x <= b, x >= 0`, in this order: the epigraph rows,
two leg caps per route, one packing row per lit feeder edge in k-major
order, then one per directed ISL.  A feeder edge is lit when its capacity
is positive, topology's own test; a route's feeder edge is lit, so it is
also a direct edge of the relay and every packing row belongs to one
link.  Every row has rhs 0 or 1, so x = 0 is feasible and the solver
starts there.  An isolated satellite (no feeder link and no usable
neighbor) has no epigraph row: it would pin t to 0.  It is reported at
rate 0 and the slot is flagged degenerate.

The min() of the two relay legs is linearized through the shared
throughput variable r.  A second, lexicographic stage maximizes
sum_k R_k while pinning t >= t* so spare capacity is not left stranded;
it is on by default.  It continues from the first stage's optimal
tableau, with the pin appended as the row -t <= -(t* - LEXICO_SLACK).

Capacities enter the matrix in Mbit/s to keep the tableau
well-conditioned; results are converted back to bit/s on decode.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .simplex import STATUS_OPTIMAL, LpProblem, LpSolution, chunks, solve, solve_batch
from .topology import SlotGraph

SCALE_BPS = 1e6
LEXICO_SLACK = 1e-9


def build_problem(graph: SlotGraph) -> LpProblem:
    """Assemble the per-slot max-min LP over the non-isolated satellites.

    The rows come in the order of the module docstring.  A relay route
    (source k, relay l, station j), ordered by (k, l, j), needs a usable
    ISL from k to l, one of positive capacity, and a lit feeder edge from
    l to j; traffic is never relayed to k's own serving station.  Isolated
    satellites get no epigraph row; they have no feeder edge and no route
    either, so the LP is the one the served satellites alone would give.
    """
    served = [k for k in range(graph.satellite_count) if k not in graph.isolated]
    lit = graph.fl_capacity_bps > 0.0
    direct_edges = list(map(tuple, np.argwhere(lit).tolist()))  # k-major, as Python ints
    routes = [
        (k, l, j)
        for k, l in np.argwhere(graph.isl_capacity_bps > 0.0).tolist()  # usable ISLs, k-major
        for j in range(graph.station_count)
        if lit[l, j] and j != graph.serving_gs[k]
    ]
    fl = graph.fl_capacity_bps / SCALE_BPS
    isl = graph.isl_capacity_bps / SCALE_BPS

    tags: list[tuple] = [("t",)]
    tags += [("w_direct", k, j) for k, j in direct_edges]
    first_route = len(tags)
    for route in routes:
        tags += [("v", *route), ("w_relay", *route), ("r", *route)]

    # the row of each satellite's epigraph, feeder edge and directed ISL
    epigraph_row = {k: i for i, k in enumerate(served)}
    packing = len(served) + 2 * len(routes)  # the first packing row
    feeder_row = {edge: i for i, edge in enumerate(direct_edges, start=packing)}
    isl_links = sorted({route[:2] for route in routes})
    isl_row = {link: i for i, link in enumerate(isl_links, start=packing + len(feeder_row))}
    matrix = np.zeros((packing + len(feeder_row) + len(isl_row), len(tags)))

    # epigraph t <= R_k, R_k being k's direct and relayed rates; feeder-edge
    # packing: owner's share plus every relayed share <= 1
    matrix[: len(served), 0] = 1.0  # t is column 0
    for w_col, (k, j) in enumerate(direct_edges, start=1):
        matrix[epigraph_row[k], w_col] = -fl[k, j]
        matrix[feeder_row[k, j], w_col] = 1.0
    for i, (k, l, j) in enumerate(routes):
        v_col = first_route + 3 * i  # then w_relay, then r, as tagged above
        matrix[epigraph_row[k], v_col + 2] = -1.0
        # per-route leg capacities
        leg = len(served) + 2 * i
        matrix[leg, v_col + 2] = matrix[leg + 1, v_col + 2] = 1.0
        matrix[leg, v_col] = -isl[k, l]
        matrix[leg + 1, v_col + 1] = -fl[l, j]
        # packing: the relayed share on the relay's feeder edge, and the
        # ISL fraction over all commodities on the directed ISL
        matrix[feeder_row[l, j], v_col + 1] = 1.0
        matrix[isl_row[k, l], v_col] = 1.0

    objective = np.zeros(len(tags))
    objective[0] = 1.0
    rhs = np.zeros(matrix.shape[0])
    rhs[packing:] = 1.0
    return LpProblem(objective=objective, matrix=matrix, rhs=rhs, variable_tags=tuple(tags))


def _pinned(problem: LpProblem, t_star: float) -> LpProblem:
    """Stage 2's LP: maximize total rate holding the max-min value.

    The total rate sum_k R_k is read off the epigraph rows of the matrix,
    the rows with a t term: each direct and relayed column enters one of
    them, with minus its rate coefficient.  t_star is in solver units
    (Mbit/s); the pin t >= t* - LEXICO_SLACK is appended as a `<=` row.
    """
    t_col = problem.column(("t",))
    epigraph = problem.matrix[problem.matrix[:, t_col] != 0.0]
    objective = 0.0 - epigraph.sum(0)  # not -sum: a column in no epigraph row stays +0.0
    objective[t_col] = 0.0
    pin = np.zeros(problem.n_variables)
    pin[t_col] = -1.0
    return LpProblem(
        objective=objective,
        matrix=np.vstack([problem.matrix, pin]),
        rhs=np.append(problem.rhs, -(t_star - LEXICO_SLACK)),
        variable_tags=problem.variable_tags,
    )


def lexicographic_refine(
    problem: LpProblem, t_star: float, stage1: Optional[LpSolution] = None
) -> tuple[LpProblem, LpSolution]:
    """Stage 2 of one slot: the `_pinned` problem and its solution.

    The solve continues from `stage1`, the optimal stage-1 solution of
    `problem`, which is computed here when not given.
    """
    refined = _pinned(problem, t_star)
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
    and flow conservation close exactly.  direct_bps and relayed_bps split
    rates_bps by path, up to rounding; serving_gs is the slot graph's.
    """

    slot_index: int
    t_star_bps: float
    rates_bps: np.ndarray
    w: dict[tuple[int, int, int], float]
    v: dict[tuple[int, int, int], float]
    fl_rates_bps: np.ndarray
    isl_rates_bps: np.ndarray
    direct_bps: np.ndarray
    relayed_bps: np.ndarray
    serving_gs: tuple[Optional[int], ...]
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

    R_k sums satellite k's direct and relayed rates, as its epigraph row
    does; an isolated satellite has neither and gets rate 0.
    """
    # Python floats throughout: w and v then hold no numpy scalars, which
    # are slow to pickle back from a worker process
    values = solution.values.tolist()
    fl_capacity = graph.fl_capacity_bps.tolist()
    isl_capacity = graph.isl_capacity_bps.tolist()

    rates = np.zeros(graph.satellite_count)
    direct_rates = np.zeros(graph.satellite_count)
    relayed = np.zeros(graph.satellite_count)
    w: dict[tuple[int, int, int], float] = {}
    v: dict[tuple[int, int, int], float] = {}
    fl_rates = np.zeros_like(graph.fl_capacity_bps)
    isl_rates = np.zeros_like(graph.isl_capacity_bps)

    for value, tag in zip(values, problem.variable_tags):
        if tag[0] == "w_direct":
            _, k, j = tag
            frac = 0.0 if value < 0.0 else value
            w[(k, k, j)] = frac
            direct = frac * fl_capacity[k][j]
            fl_rates[k, j] += direct
            rates[k] += direct
            direct_rates[k] += direct
        elif tag[0] == "r":
            _, s, l, j = tag
            through = value * SCALE_BPS
            if through < 0.0:
                through = 0.0
            # both legs of a route have positive capacity
            w[(s, l, j)] = through / fl_capacity[l][j]
            v[(s, l, j)] = through / isl_capacity[s][l]
            relayed[s] += v[(s, l, j)] * isl_capacity[s][l]
            fl_rates[l, j] += through
            isl_rates[s, l] += through
            rates[s] += through
    return AllocationResult(
        slot_index=graph.slot_index,
        t_star_bps=t_star * SCALE_BPS,
        rates_bps=rates,
        w=w,
        v=v,
        fl_rates_bps=fl_rates,
        isl_rates_bps=isl_rates,
        direct_bps=direct_rates,
        relayed_bps=relayed,
        serving_gs=graph.serving_gs,
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


def _solve_stage(group: list, stage: int, problems: dict, bases: Optional[dict], failures: dict) -> dict:
    """Solve one stage's LPs of a group of (graph, problem) pairs, keyed by
    position in the group, in one batch.

    Returns the optimal solutions by position.  Any other end is recorded
    in `failures` as the AllocationError that names its slot and stage.
    """
    keys = list(problems)
    outcomes = solve_batch([problems[i] for i in keys], bases=None if bases is None else [bases[i] for i in keys])
    solved = {}
    for i, outcome in zip(keys, outcomes):
        slot = group[i][0].slot_index
        if isinstance(outcome, Exception):
            failures[i] = AllocationError(slot, stage, str(outcome))
            failures[i].__cause__ = outcome
        elif outcome.status != STATUS_OPTIMAL:
            failures[i] = AllocationError(slot, stage, f"LP {outcome.status}")
        else:
            solved[i] = outcome
    return solved


def solve_block(graphs: Sequence[SlotGraph], lexicographic: bool = True) -> list[AllocationResult]:
    """Solve a block of slots end to end: build, optimize, optionally refine, decode.

    The slots go in groups of consecutive slots, as many as one simplex
    chunk of their stage-2 LPs holds: each group's stage-1 LPs in one
    `solve_batch`, then its stage-2 LPs in another, so that only one
    group's tableaus are alive at a time.  Each slot gets the result it
    gets alone.  Raises the AllocationError, naming the slot and stage, of
    the first slot whose LP ends other than optimal or whose solve gives up,
    in either stage.
    """
    built = ((graph, build_problem(graph)) for graph in graphs)
    results = []
    # a stage-2 LP is its stage-1 LP and the pin row
    for group in chunks(built, lambda item: (item[1].matrix.shape[0] + 1, item[1].matrix.shape[1])):
        failures: dict = {}
        lps = {i: problem for i, (_, problem) in enumerate(group) if problem.rhs.size}
        first = last = _solve_stage(group, 1, lps, None, failures)
        if lexicographic:
            refined = {i: _pinned(lps[i], solution.objective_value) for i, solution in first.items()}
            last = _solve_stage(group, 2, refined, first, failures)
        if failures:
            raise failures[min(failures)]
        for i, (graph, problem) in enumerate(group):
            if i not in first:  # every satellite is isolated: no LP to solve, t* and all rates are 0
                results.append(decode(graph, problem, LpSolution(STATUS_OPTIMAL, 0.0, np.zeros(1), 0), 0.0, 0))
                continue
            iterations = first[i].iteration_count + (last[i].iteration_count if lexicographic else 0)
            results.append(decode(graph, problem, last[i], first[i].objective_value, iterations))
    return results


def solve_allocation(graph: SlotGraph, lexicographic: bool = True) -> AllocationResult:
    """Solve one slot end to end: `solve_block` of that slot alone."""
    return solve_block([graph], lexicographic)[0]
