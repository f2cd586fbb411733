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
`build_chunks` writes these rows as the dense matrix A of
`maximize c.x s.t. A.x <= b, x >= 0`, for a block of slots at once, one
group of slots per simplex chunk (`build_problem` is its one-slot case),
in this order: the epigraph rows, two leg caps per route, one packing row
per lit feeder edge in k-major order, then one per directed ISL.  A
feeder edge is lit when its capacity is positive, topology's own test; a
route's feeder edge is lit, so it is also a direct edge of the relay and
every packing row belongs to one link.  Every row has rhs 0 or 1, so
x = 0 is feasible and the solver starts there.  An isolated satellite (no
feeder link and no usable neighbor) has no epigraph row: it would pin t
to 0.  It is reported at rate 0 and the slot is flagged degenerate.

The min() of the two relay legs is linearized through the shared
throughput variable r.  A second, lexicographic stage maximizes
sum_k R_k while pinning t >= t* so spare capacity is not left stranded;
it is on by default.  It continues from the first stage's optimal
tableau, with the pin appended as the row -t <= -(t* - LEXICO_SLACK).

Capacities enter the matrix in Mbit/s to keep the tableau
well-conditioned; results are converted back to bit/s on decode.  A slot
whose largest capacity reaches MAX_LP_CAPACITY Mbit/s enters them in the
least power-of-two multiple of Mbit/s that brings it below, an exact
scaling: at cost-row entries of 1e9, rounding passes the simplex's
absolute PIVOT_EPS.  Every bundled slot keeps the unit 1 Mbit/s.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .simplex import STATUS_OPTIMAL, LpProblem, LpSolution, chunks, solve, solve_batch
from .topology import SlotGraph

SCALE_BPS = 1e6
LEXICO_SLACK = 1e-9
MAX_LP_CAPACITY = 2.0**20  # Mbit/s, 1 Tbit/s: far above any bundled link, far below 1e9


def _units(fl_bps: np.ndarray, isl_bps: np.ndarray) -> np.ndarray:
    """Each slot's LP unit in Mbit/s: the least power of two, 1 or more, that brings its largest capacity below."""
    top = np.maximum(fl_bps.max((-2, -1), initial=0.0), isl_bps.max((-2, -1), initial=0.0)) / SCALE_BPS
    return np.ldexp(1.0, np.maximum(np.frexp(top / MAX_LP_CAPACITY)[1], 0))


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, run together: each entry's index within its slot."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def build_chunks(graphs: Sequence[SlotGraph]) -> Iterator[list[tuple[SlotGraph, LpProblem]]]:
    """The slot LPs of a block as (graph, problem) pairs, in groups of consecutive
    slots: as many as one simplex chunk of their stage-2 LPs (one row more) holds.

    A relay route (source k, relay l, station j), ordered by (k, l, j), needs a
    usable ISL from k to l, one of positive capacity, and a lit feeder edge from
    l to j, and never ends at k's own serving station.  Isolated satellites get
    no epigraph row, and have no feeder edge or route.  Each slot's shape is
    counted first, from the stacked (N, K, I) feeder and (N, K, K) ISL
    capacities; then each group's LPs are allocated as one buffer, filled in one
    fancy-index write, so that only the groups being built and solved hold LPs.
    """
    if not graphs:
        return
    fl_bps, isl_bps = np.array([g.fl_capacity_bps for g in graphs]), np.array([g.isl_capacity_bps for g in graphs])
    units = _units(fl_bps, isl_bps)[:, None, None]
    fl, isl, lit = fl_bps / SCALE_BPS / units, isl_bps / SCALE_BPS / units, fl_bps > 0.0
    serving = np.array([[-1 if j is None else j for j in graph.serving_gs] for graph in graphs])
    served = np.ones(serving.shape, dtype=bool)
    for n, graph in enumerate(graphs):
        served[n, list(graph.isolated)] = False

    edge_n, edge_k, edge_j = lit.nonzero()  # feeder edges, slot- then k-major
    pair_n, pair_k, pair_l = (isl_bps > 0.0).nonzero()  # usable ISLs, likewise
    ends = lit[pair_n, pair_l] & (np.arange(lit.shape[2]) != serving[pair_n, pair_k, None])  # each ISL's route stations
    route_isl, route_j = ends.nonzero()  # routes, in (slot, k, l, j) order
    route_n, route_k, route_l = pair_n[route_isl], pair_k[route_isl], pair_l[route_isl]
    linked = ends.any(1)  # the ISLs some route takes, one packing row each
    n_edges, n_routes, n_links = (np.bincount(x, minlength=len(graphs)) for x in (edge_n, route_n, pair_n[linked]))
    n_served = served.sum(1)
    packing = n_served + 2 * n_routes  # each slot's first packing row
    rows, cols = packing + n_edges + n_links, 1 + n_edges + 3 * n_routes
    # each entry's place within its slot
    epigraph_row, edge_rank, route_rank = np.cumsum(served, 1) - 1, _ranks(n_edges), _ranks(n_routes)
    edge_row, link_rank = np.zeros(lit.shape, dtype=int), np.zeros(linked.size, dtype=int)
    edge_row[lit], link_rank[linked] = edge_rank, _ranks(n_links)

    for run in chunks(range(len(graphs)), lambda n: (rows[n] + 1, cols[n])):
        a, b = run[0], run[-1] + 1
        e, r = (slice(*np.searchsorted(slot_of, (a, b))) for slot_of in (edge_n, route_n))  # both sorted by slot
        en, ek, ej, ei = edge_n[e], edge_k[e], edge_j[e], edge_rank[e]
        rn, rk, rl, rj, ri = route_n[r], route_k[r], route_l[r], route_j[r], route_rank[r]
        t_n = np.repeat(np.arange(a, b), n_served[a:b])
        v_col, leg = 1 + n_edges[rn] + 3 * ri, n_served[rn] + 2 * ri  # then w_relay and r; two leg caps
        units = np.ones(t_n.size + ei.size + 4 * ri.size)
        # (slot, row, column, value) of every nonzero entry, the +1s first: t;
        # w_direct in its packing row; r in both leg caps; w_relay and v in their
        # packing rows; then r, w_direct, v and w_relay in their other rows
        slot = np.concatenate((t_n, en, *[rn] * 5, en, rn, rn))
        row = np.concatenate((
            _ranks(n_served[a:b]), packing[en] + ei, leg, leg + 1, packing[rn] + edge_row[rn, rl, rj],
            packing[rn] + n_edges[rn] + link_rank[route_isl[r]], epigraph_row[rn, rk], epigraph_row[en, ek], leg, leg + 1,
        ))
        col = np.concatenate((0 * t_n, 1 + ei, v_col + 2, v_col + 2, v_col + 1, v_col, v_col + 2, 1 + ei, v_col, v_col + 1))
        value = np.concatenate((units, -units[: ri.size], -fl[en, ek, ej], -isl[rn, rk, rl], -fl[rn, rl, rj]))
        size, ones = rows[a:b] * cols[a:b], n_edges[a:b] + n_links[a:b]  # entries; packing rows, of rhs 1
        matrices, objectives, rhs = np.zeros(size.sum()), np.zeros(cols[a:b].sum()), np.zeros(rows[a:b].sum())
        matrices[(np.cumsum(size) - size)[slot - a] + row * cols[slot] + col] = value
        objectives[np.cumsum(cols[a:b]) - cols[a:b]] = 1.0  # maximize t, column 0
        rhs[np.repeat(np.cumsum(rows[a:b]) - rows[a:b] + packing[a:b], ones) + _ranks(ones)] = 1.0

        w_tags = [("w_direct", k, j) for k, j in zip(ek.tolist(), ej.tolist())]
        r_tags = [
            tag for k, l, j in zip(rk.tolist(), rl.tolist(), rj.tolist()) for tag in (("v", k, l, j), ("w_relay", k, l, j), ("r", k, l, j))
        ]
        at = [[0, *np.cumsum(x).tolist()] for x in (n_edges[a:b], 3 * n_routes[a:b], size, cols[a:b], rows[a:b])]
        yield [
            (graphs[n], LpProblem(
                objectives[at[3][i] : at[3][i + 1]], matrices[at[2][i] : at[2][i + 1]].reshape(rows[n], cols[n]),
                rhs[at[4][i] : at[4][i + 1]], (("t",), *w_tags[at[0][i] : at[0][i + 1]], *r_tags[at[1][i] : at[1][i + 1]]),
            ))
            for i, n in enumerate(range(a, b))
        ]


def build_problem(graph: SlotGraph) -> LpProblem:
    """The max-min LP of one slot: `build_chunks` of that slot alone."""
    return next(build_chunks([graph]))[0][1]


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
    unit_bps = SCALE_BPS * float(_units(graph.fl_capacity_bps, graph.isl_capacity_bps))  # of one LP unit
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
            through = value * unit_bps
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
        t_star_bps=t_star * unit_bps,
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

    The slots go in the groups of `build_chunks`: each group's stage-1 LPs
    in one `solve_batch`, then its stage-2 LPs in another, so that only one
    group's tableaus are alive at a time.  Each slot gets the result it gets
    alone.  Raises the AllocationError, naming the slot and stage, of the
    first slot whose LP ends other than optimal or whose solve gives up, in
    either stage.
    """
    results = []
    for group in build_chunks(graphs):
        results += _solve_group(group, lexicographic)
    return results


def _solve_group(group: list, lexicographic: bool) -> list[AllocationResult]:
    """`solve_block` of one group of (graph, problem) pairs."""
    failures: dict = {}
    lps = {i: problem for i, (_, problem) in enumerate(group) if problem.rhs.size}
    first = last = _solve_stage(group, 1, lps, None, failures)
    if lexicographic:
        refined = {i: _pinned(lps[i], solution.objective_value) for i, solution in first.items()}
        last = _solve_stage(group, 2, refined, first, failures)
    if failures:
        raise failures[min(failures)]
    results = []
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
