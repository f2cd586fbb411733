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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

PIVOT_EPS = 1e-9
FEAS_TOL = 1e-8

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


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Pivot the condensed tableau on (row, col).

    The entering column's slot takes the leaving variable's column, which
    is a unit vector before the update, so each stored entry goes through
    the same operations as in the full tableau.  (A zero of the full
    tableau may be -0.0 where this one holds +0.0; they compare equal.)
    """
    pivot = tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    tableau[row] /= pivot
    tableau -= factors[:, None] * tableau[row]


def _run_simplex(tableau, basis, nonbasic, max_iterations):
    """Minimize the cost row in place.  Returns (status, iterations)."""
    m = tableau.shape[0] - 1
    cost, rhs = tableau[-1, :-1], tableau[:m, -1]
    it = 0
    while True:
        if it >= max_iterations:
            raise SimplexIterationError(f"simplex exceeded {max_iterations} iterations")
        improving = (cost < -PIVOT_EPS).nonzero()[0]
        if not improving.size:
            return STATUS_OPTIMAL, it
        # Bland: the improving column of the smallest variable index
        entering = int(improving[nonbasic[improving].argmin()])
        col = tableau[:m, entering]
        rows = (col > PIVOT_EPS).nonzero()[0]
        if not rows.size:
            return STATUS_UNBOUNDED, it
        ratios = rhs[rows] / col[rows]
        best = ratios.min()
        # Bland tie-break: among minimal ratios leave the smallest basis index
        tied = rows[ratios <= best + PIVOT_EPS * max(1.0, abs(best))]
        leaving = int(tied[basis[tied].argmin()])
        _pivot(tableau, leaving, entering)
        basis[leaving], nonbasic[entering] = nonbasic[entering], basis[leaving]
        it += 1


def _price(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, cost: np.ndarray) -> None:
    """Write `cost` into the cost row, priced out over the basis."""
    tableau[-1, :-1] = cost[nonbasic]
    tableau[-1, -1] = 0.0
    for i in cost[basis].nonzero()[0]:
        tableau[-1] -= cost[basis[i]] * tableau[i]


def _result(problem: LpProblem, tableau, basis, nonbasic, status, iterations) -> LpSolution:
    """Read the basic solution, audit it and keep the tableau to continue from."""
    n = problem.n_variables
    if status == STATUS_UNBOUNDED:
        return LpSolution(STATUS_UNBOUNDED, float("inf"), np.full(n, np.nan), iterations)
    y = np.zeros(basis.shape[0] + nonbasic.shape[0])
    y[basis] = tableau[:-1, -1]
    x = y[:n]
    _check_residuals(problem, x)
    return LpSolution(STATUS_OPTIMAL, float(problem.objective @ x), x, iterations, tableau, basis, nonbasic)


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
    if base is not None:
        return _continue(problem, base, max_iterations)
    if (problem.rhs < 0.0).any():
        raise ValueError("a cold solve needs every rhs >= 0, so that x = 0 is feasible")
    m, n = problem.matrix.shape
    if max_iterations is None:
        max_iterations = 10 * (m + n)

    # row i's slack is variable n + i and starts basic; x starts nonbasic
    basis = np.arange(n, n + m)
    nonbasic = np.arange(n)
    tableau = np.zeros((m + 1, n + 1))
    tableau[:m, :n] = problem.matrix
    tableau[:m, -1] = problem.rhs
    tableau[-1, :n] = -problem.objective
    status, iterations = _run_simplex(tableau, basis, nonbasic, max_iterations)
    return _result(problem, tableau, basis, nonbasic, status, iterations)


def _continue(problem: LpProblem, base: LpSolution, max_iterations: Optional[int]) -> LpSolution:
    """Solve `problem` by continuing from `base`'s optimal tableau.

    `problem` must be the LP that `base` solved with one more row
    appended last, of either rhs sign, and any objective.  The new row is
    eliminated against the basis and its slack enters it; if the base
    optimum satisfies the new row, that basis is feasible and the simplex
    runs on from it under the new objective (Chvatal 1983, adding a
    constraint to a solved LP).  The pivot count and cap cover this solve
    alone.
    """
    n = problem.n_variables
    if base.status != STATUS_OPTIMAL or base.tableau is None or base.values.shape != (n,):
        raise ValueError("the base must be an optimal solution over the same variables")
    b = float(problem.rhs[-1])
    m, width = base.tableau.shape[0] - 1, base.tableau.shape[1]
    n_total = m + width  # the base's variables and the new row's slack
    if max_iterations is None:
        max_iterations = 10 * (m + 1 + n)

    # the new row over every variable, then over the nonbasic ones and rhs
    coefs = np.zeros(n_total)
    coefs[:n] = problem.matrix[-1]
    tableau = np.zeros((m + 2, width))
    tableau[:m] = base.tableau[:m]
    new = tableau[m]
    new[:-1] = coefs[base.nonbasic]
    new[-1] = b
    for i in coefs[base.basis].nonzero()[0]:
        new -= coefs[base.basis[i]] * tableau[i]
    if new[-1] < -FEAS_TOL * max(1.0, abs(b)):
        raise ValueError("the appended row cuts off the base optimum")
    new[-1] = max(new[-1], 0.0)
    basis = np.append(base.basis, n_total - 1)
    nonbasic = base.nonbasic.copy()

    cost = np.zeros(n_total)
    cost[:n] = -problem.objective
    _price(tableau, basis, nonbasic, cost)
    status, iterations = _run_simplex(tableau, basis, nonbasic, max_iterations)
    return _result(problem, tableau, basis, nonbasic, status, iterations)


def _check_residuals(problem: LpProblem, x: np.ndarray) -> None:
    """Defensive post-solve feasibility audit (absolute tolerance)."""
    rhs = problem.rhs
    scale = max(1.0, float(np.max(np.abs(rhs))) if rhs.size else 1.0)
    tol = FEAS_TOL * scale
    v = problem.matrix @ x
    bad = (v > rhs + tol).nonzero()[0]
    if bad.size:
        i = bad[0]
        raise SimplexIterationError(f"residual violation: {v[i]} <= {rhs[i]}")
    bad = (x < -tol).nonzero()[0]
    if bad.size:
        raise SimplexIterationError(f"bound violation on column {bad[0]}")
