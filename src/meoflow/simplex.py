"""Self-contained dense LP solver: primal simplex, Bland's rule.

The solver is deliberately dependency-free and fully deterministic: the
same problem always walks the same pivot sequence, so downstream results
are bit-identical across runs.  Bland's smallest-index rule guarantees
termination on degenerate problems at the cost of some extra pivots,
which is fine at the few-hundred-variable sizes produced per time slot.

Problems have one shape, `maximize c.x subject to A.x <= b, x >= 0`,
with A a dense matrix.  Each row gets a slack variable; a cold solve
needs b >= 0, so that the all-slack basis (x = 0) is feasible and the
simplex starts from it with no phase 1.  Only a continued solve
(`base=`) takes a row of either rhs sign.  A fills the tableau and
audits the answer.

The tableau is condensed (a dictionary, in Chvatal's *Linear
Programming*, 1983): rows are the basic variables plus the cost row,
columns the nonbasic variables plus the rhs, because a basic column is
a unit vector that every pivot would rewrite unchanged.  `basis[i]` is
the variable of row i and `nonbasic[c]` the variable of column c.  A
pivot hands the entering column's slot to the leaving variable; every
stored entry goes through the same floating-point operations as in the
full tableau (up to the sign of a zero), so both walk the same pivots to
the same values.

`solve_batch` solves many LPs together, which is how the allocator solves
a block of slots: the per-call cost of numpy, not arithmetic, is most of a
pivot at these sizes, so each call of a step works on every LP that has
not yet ended.  Each LP's starting tableau is built whole first, cold or
continued; the batch then pads them into one zero-padded (B, N+1, M+1)
array, column-major so that each tableau column is one contiguous array
row.  Padding sits before each LP's rows and columns, so its rhs column
and cost row sit on the last index.  Zero padding never improves or
leaves, and Bland's rule goes by variable, not position, so every LP walks
the same pivots to the same bits in any batch, alone or with others.
Every LP set up without error takes this one path; one whose start has
no improving column (every ISL-arm stage-2 LP of o3b_rain) ends at the
first step.  While the pivots run, the cost rows sit in one contiguous
(LPs, columns) array: Bland's test reads them and every pivot rewrites
them whole, and the column-major tableau strides them.  `solve` is the
one-LP case, and `chunks` splits a stream of LPs into bounded batches.

Before a batch's first pivot, `_run_simplex` allocates and frees an
untouched block of WARM_BLOCK_TABLEAUS batch tableaus, 16 MiB at most (glibc
moves its dynamic mmap and trim thresholds up to 32 MiB).  That lifts them
past the batch's working set, so the step temporaries, which grow with
fill-in, reuse pages the process holds instead of faulting in fresh ones.

A pivot skips the entries x of the constraint rows where the pivot row
is zero; x - f * 0 would keep x's bits unless x = -0.0 and f * 0 = -0.0.
No constraint row holds -0.0 when A and b hold none, as `build_chunks`'s
do not: x - f * p is -0.0 only for x = -0.0, a row divided by a positive
pivot keeps its signs of zero (barring underflow), and `_continue`'s fold
and clamp write +0.0.  Only the cost row holds -0.0 (from -c), and it is
updated at every column.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

PIVOT_EPS = 1e-9
FEAS_TOL = 1e-8

# The most tableau entries, padding included, of one chunk of LPs pivoted
# together in a `solve_batch`, and so of the group of slots the allocator
# solves at once: 2 MB of float64.  A chunk holds at least one LP.
CHUNK_ENTRIES = 2**18
WARM_BLOCK_TABLEAUS = 4  # the size, in batch tableaus, of the block freed before the first pivot

_NONE = np.iinfo(np.intp).max  # the variable of a padding row or column

STATUS_OPTIMAL = "optimal"
STATUS_UNBOUNDED = "unbounded"


class SimplexIterationError(RuntimeError):
    """Raised when the pivot count exceeds the safety cap."""


@dataclass
class LpProblem:
    """maximize objective . x subject to matrix . x <= rhs, x >= 0.

    Attributes:
        objective: coefficient vector, length n.
        matrix: constraint matrix A, one row per constraint and one
            column per variable.
        rhs: right-hand sides, one per row.
        variable_tags: arbitrary hashable labels, one per variable, used
            by callers to map columns back to model quantities.
    """

    objective: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray
    variable_tags: tuple = ()

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.matrix.shape != (self.rhs.shape[0], self.objective.shape[0]):
            raise ValueError("matrix must have one row per rhs and one column per objective coefficient")
        if self.variable_tags and len(self.variable_tags) != self.objective.shape[0]:
            raise ValueError("variable_tags length must match objective length")

    @property
    def n_variables(self) -> int:
        return int(self.objective.shape[0])

    def column(self, tag) -> int:
        """Index of the variable carrying `tag` (tags must be unique)."""
        return self.variable_tags.index(tag)


@dataclass
class LpSolution:
    """Result of `solve`.

    An optimal solution also keeps what a later `solve(..., base=...)`
    continues from: the final condensed tableau and the variable of each
    of its rows (`basis`) and columns (`nonbasic`).
    """

    status: str
    objective_value: float
    values: np.ndarray
    iteration_count: int
    tableau: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    basis: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    nonbasic: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


class _Start(NamedTuple):
    """One LP set up for `solve_batch`: its condensed tableau and the
    variable of each of its rows and columns."""

    tableau: np.ndarray
    basis: np.ndarray
    nonbasic: np.ndarray


def _start(problem: LpProblem, base: Optional[LpSolution]):
    """The `_Start` of one LP, or the ValueError that refuses it."""
    m, n = problem.matrix.shape
    if base is None:
        if (problem.rhs < 0.0).any():
            return ValueError("a cold solve needs every rhs >= 0, so that x = 0 is feasible")
        # [A | b; -c | 0]: row i's slack is variable n + i and starts basic; x starts nonbasic
        tableau = np.zeros((m + 1, n + 1))
        tableau[:m, :n], tableau[:m, n], tableau[m, :n] = problem.matrix, problem.rhs, -problem.objective
        return _Start(tableau, np.arange(n, n + m), np.arange(n))
    return _continue(problem, base)


def _continue(problem: LpProblem, base: LpSolution):
    """Set up `problem` to continue from `base`'s optimal tableau.

    `problem` must be the LP that `base` solved with one more row
    appended last, of either rhs sign, and any objective.  The new row is
    eliminated against the basis and its slack enters it; if the base
    optimum satisfies the new row, that basis is feasible and the simplex
    runs on from it under the new objective, priced out over the basis
    (Chvatal 1983, adding a constraint to a solved LP).  The pivot count
    and cap cover this solve alone, the new row counted.
    """
    n = problem.n_variables
    if base.status != STATUS_OPTIMAL or base.tableau is None or base.values.shape != (n,):
        return ValueError("the base must be an optimal solution over the same variables")
    b = float(problem.rhs[-1])
    m, width = base.tableau.shape[0] - 1, base.tableau.shape[1]
    # the new row and the new cost over every variable: the base's and the new row's slack
    new = np.zeros((2, m + width))
    new[0, :n], new[1, :n] = problem.matrix[-1], -problem.objective
    basis = np.append(base.basis, m + width - 1)
    tableau = np.empty((m + 2, width))
    tableau[:m] = base.tableau[:m]
    tableau[m:, :-1], tableau[m:, -1] = new[:, base.nonbasic], (b, 0.0)
    tableau[m] = _less_rows(tableau[m], new[0, base.basis], tableau[:m])
    if tableau[m, -1] < -FEAS_TOL * max(1.0, abs(b)):
        return ValueError("the appended row cuts off the base optimum")
    if tableau[m, -1] < 0.0:
        tableau[m, -1] = 0.0
    tableau[m + 1] = _less_rows(tableau[m + 1], new[1, basis], tableau[: m + 1])
    return _Start(tableau, basis, base.nonbasic.copy())


def _less_rows(target: np.ndarray, coefs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """target less coefs[i] * rows[i] for each nonzero coefs[i], in row order.

    One left fold, so that every entry rounds as a loop of in-place
    subtractions would.
    """
    used = coefs.nonzero()[0]
    return np.subtract.accumulate(np.concatenate((target[None], coefs[used, None] * rows[used])))[-1]


def solve(
    problem: LpProblem, max_iterations: Optional[int] = None, *, base: Optional[LpSolution] = None
) -> LpSolution:
    """Solve to proven optimality or unboundedness.

    A cold solve starts from the all-slack basis, x = 0, and raises
    ValueError unless every rhs is >= 0, since only then is that basis
    feasible.  With `base`, the optimal solution of `problem` minus its
    last row, the solve continues from base's final tableau instead of
    starting over; see `_continue`.

    Raises SimplexIterationError if the pivot cap (default
    10 * (rows + variables)) is exhausted; that always indicates a
    modelling or numerical pathology, not a valid answer.
    """
    (outcome,) = solve_batch([problem], max_iterations, bases=[base])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def solve_batch(
    problems: Sequence[LpProblem],
    max_iterations: Optional[int] = None,
    *,
    bases: Optional[Sequence[Optional[LpSolution]]] = None,
) -> list:
    """`solve` each problem, pivoting all of them together.

    bases, if given, holds one entry per problem: None for a cold solve,
    or the base to continue from.  Returns, in order, each problem's
    LpSolution or the ValueError or SimplexIterationError that `solve`
    would raise for it; one LP's failure leaves the others' results
    unchanged.  Every LP set up without error is padded into one array, so
    the caller bounds a batch's size with `chunks`.
    """
    if bases is None:
        bases = [None] * len(problems)
    outcomes = [_start(problem, base) for problem, base in zip(problems, bases)]
    ready = [i for i, start in enumerate(outcomes) if isinstance(start, _Start)]
    starts = [outcomes[i] for i in ready]
    m = np.array([start.basis.size for start in starts], dtype=int)
    n = np.array([start.nonbasic.size for start in starts], dtype=int)
    caps = 10 * (m + n) if max_iterations is None else np.full(len(starts), max_iterations, dtype=int)
    # at least one row and column, so that no reduction is over nothing
    rows, cols = max(1, m.max(initial=0)), max(1, n.max(initial=0))
    top, left = rows - m, cols - n  # each LP's first row and column: its padding in front, rhs and cost last
    tableau = np.zeros((len(starts), cols + 1, rows + 1))  # column-major: [lp, column, row]
    basis = np.full((len(starts), rows), _NONE)
    nonbasic = np.full((len(starts), cols), _NONE)
    for b, start in enumerate(starts):
        tableau[b, left[b] :, top[b] :] = start.tableau.T
        basis[b, top[b] :] = start.basis
        nonbasic[b, left[b] :] = start.nonbasic
    ends: list = [None] * len(starts)
    iterations = _run_simplex(tableau, basis, nonbasic, caps, ends)
    for b, (i, end) in enumerate(zip(ready, ends)):
        problem = problems[i]
        if isinstance(end, Exception):
            outcomes[i] = end
        elif end == STATUS_UNBOUNDED:
            outcomes[i] = LpSolution(STATUS_UNBOUNDED, float("inf"), np.full(problem.n_variables, np.nan), int(iterations[b]))
        else:
            own = tableau[b, left[b] :, top[b] :].T.copy()  # the LP's own corner, row-major again
            outcomes[i] = _optimal(problem, own, basis[b, top[b] :].copy(), nonbasic[b, left[b] :].copy(), int(iterations[b]))
    return outcomes


def chunks(items: Iterable, shape: Callable) -> Iterator[list]:
    """Consecutive runs of `items`, each small enough for one `solve_batch`.

    shape(item) gives the (constraint rows, nonbasic columns) of the item's
    LP.  Padded to the run's most rows and columns, a run fills at most
    CHUNK_ENTRIES tableau entries, cost row and rhs column included, or it
    is one item.  `items` is read lazily: a run is yielded as soon as the
    next item would overflow it.
    """
    run: list = []
    rows = cols = 0
    for item in items:
        m, n = shape(item)
        grown = (max(rows, m), max(cols, n))
        if run and (len(run) + 1) * (grown[0] + 1) * (grown[1] + 1) > CHUNK_ENTRIES:
            yield run
            run, grown = [], (m, n)
        run.append(item)
        rows, cols = grown
    if run:
        yield run


def _run_simplex(tableau, basis, nonbasic, caps, ends) -> np.ndarray:
    """Minimize the cost row of every LP, in place.

    Each step ends, in one place, the LPs at their iteration cap (a
    SimplexIterationError, checked first, as a cap of 0 allows no step),
    optimal or unbounded, and writes each one's end into `ends`.  Every
    live LP pivots once per step, so one step count gives the pivots of
    each, which are returned.  The cost rows sit in `cost`, one contiguous
    (LPs, columns) array, until the loop writes them back at the end.
    """
    np.empty(min(WARM_BLOCK_TABLEAUS * tableau.size, 2**21))  # freed untouched; see the module docstring
    m, n = basis.shape[1], nonbasic.shape[1]
    cost = tableau[:, :, m].copy()
    iterations = np.zeros(len(ends), dtype=int)
    live = np.arange(len(ends))
    step = 0
    while live.size:
        # Bland: the improving column of the smallest variable index
        candidates = np.where(cost[live, :n] < -PIVOT_EPS, nonbasic[live], _NONE)
        entering = candidates.argmin(1)
        col = tableau[live, entering, :m]
        positive = col > PIVOT_EPS
        capped, optimal = caps[live] <= step, candidates.min(1) == _NONE
        done = capped | optimal | ~positive.any(1)
        if done.any():
            for b, cap, opt in zip(live[done], capped[done], optimal[done]):
                ends[b] = SimplexIterationError(f"simplex exceeded {caps[b]} iterations") if cap else STATUS_OPTIMAL if opt else STATUS_UNBOUNDED
            iterations[live[done]] = step
            live, entering, col, positive = live[~done], entering[~done], col[~done], positive[~done]
            if not live.size:
                break
        ratios = np.divide(tableau[live, n, :m], col, out=np.full(col.shape, np.inf), where=positive)
        best = ratios.min(1, keepdims=True)
        # Bland tie-break: among minimal ratios leave the smallest basis index
        tied = ratios <= best + PIVOT_EPS * np.maximum(1.0, np.abs(best))
        leaving = np.where(tied, basis[live], _NONE).argmin(1)
        _pivot(tableau, cost, live, leaving, entering)
        basis[live, leaving], nonbasic[live, entering] = nonbasic[live, entering], basis[live, leaving]
        step += 1
    tableau[:, :, m] = cost
    return iterations


def _pivot(tableau: np.ndarray, cost: np.ndarray, lps: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Pivot LP lps[i] of the column-major padded tableau on (rows[i], cols[i]), for every i.

    The entering column's slot takes the leaving variable's column, which
    is a unit vector before the update, so each stored entry goes through
    the same operations as in the full tableau.  The cost rows, in `cost`,
    are updated at every column; the constraint rows only at the (lp,
    column) pairs where the normalized pivot row is nonzero, each as one
    whole column vector.  Without -0.0 in any constraint row (see the
    module docstring) that keeps every bit of the full update; with one,
    a zero may differ in its sign, and the two compare equal.
    """
    pivot = tableau[lps, cols, rows]
    factors, cost_factors = tableau[lps, cols, :-1], cost[lps, cols]
    factors[np.arange(lps.size), rows] = 0.0
    tableau[lps, cols] = 0.0
    tableau[lps, cols, rows] = 1.0
    cost[lps, cols] = 0.0
    pivot_rows = tableau[lps, :, rows] / pivot[:, None]
    tableau[lps, :, rows] = pivot_rows
    cost[lps] -= cost_factors[:, None] * pivot_rows
    lp, col = pivot_rows.nonzero()
    tableau[lps[lp], col, :-1] -= factors[lp] * pivot_rows[lp, col, None]


def _optimal(problem: LpProblem, tableau, basis, nonbasic, iterations: int):
    """Read the basic solution, audit it and keep the tableau to continue
    from: the LpSolution, or the SimplexIterationError of a failed audit."""
    y = np.zeros(basis.shape[0] + nonbasic.shape[0])
    y[basis] = tableau[:-1, -1]
    x = y[: problem.n_variables]
    try:
        _check_residuals(problem, x)
    except SimplexIterationError as exc:
        return exc
    return LpSolution(STATUS_OPTIMAL, float(problem.objective @ x), x, iterations, tableau, basis, nonbasic)


def _check_residuals(problem: LpProblem, x: np.ndarray) -> None:
    """Defensive post-solve feasibility audit.

    Row i may exceed b_i by FEAS_TOL * max(1, |b_i|, (|A|.|x|)_i), the size
    of the terms it sums, so the tolerance scales with the capacities in A;
    x may fall below 0 by FEAS_TOL * max(1, max |b|).
    """
    rhs = problem.rhs
    v = problem.matrix @ x
    tol = FEAS_TOL * np.maximum(np.maximum(1.0, np.abs(rhs)), np.abs(problem.matrix) @ np.abs(x))
    bad = (v > rhs + tol).nonzero()[0]
    if bad.size:
        i = bad[0]
        raise SimplexIterationError(f"residual violation: {v[i]} <= {rhs[i]}")
    scale = max(1.0, float(np.max(np.abs(rhs))) if rhs.size else 1.0)
    bad = (x < -FEAS_TOL * scale).nonzero()[0]
    if bad.size:
        raise SimplexIterationError(f"bound violation on column {bad[0]}")
