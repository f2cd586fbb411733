"""Self-contained dense LP solver: two-phase primal simplex, Bland's rule.

The solver is deliberately dependency-free and fully deterministic: the
same problem always walks the same pivot sequence, so downstream results
are bit-identical across runs.  Bland's smallest-index rule guarantees
termination on degenerate problems at the cost of some extra pivots,
which is fine at the few-hundred-variable sizes produced per time slot.

Problems are stated as `maximize c.x` over sparse rows with senses
<=, =, >= and per-variable bounds [lo, hi]; internally everything is
shifted and slacked into standard equality form with nonnegative
variables before the tableau runs.  Each solve builds the problem's
dense constraint matrix once: it fills the tableau and audits the answer.

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

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

PIVOT_EPS = 1e-9
FEAS_TOL = 1e-8

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"

LE, EQ, GE = "<=", "=", ">="
_SLACK_SIGN = {LE: 1.0, GE: -1.0, EQ: 0.0}
_AUDIT_OP = {LE: "<=", GE: ">=", EQ: "=="}


class SimplexIterationError(RuntimeError):
    """Raised when the pivot count exceeds the safety cap."""


@dataclass
class LpProblem:
    """maximize objective . x subject to rows (senses) rhs, lo <= x <= hi.

    Attributes:
        objective: dense coefficient vector, length n.
        rows: sparse constraint rows, one {column: coefficient} dict each.
        senses: one of "<=", "=", ">=" per row.
        rhs: right-hand sides.
        bounds: per-variable (lo, hi); hi may be None for +inf.  Lower
            bounds must be finite.
        variable_tags: arbitrary hashable labels, one per variable, used
            by callers to map columns back to model quantities.
    """

    objective: np.ndarray
    rows: list[dict[int, float]]
    senses: list[str]
    rhs: np.ndarray
    bounds: list[tuple[float, Optional[float]]]
    variable_tags: tuple = ()

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        n = self.objective.shape[0]
        if len(self.bounds) != n:
            raise ValueError("bounds length must match objective length")
        if len(self.rows) != len(self.senses) or len(self.rows) != self.rhs.shape[0]:
            raise ValueError("rows, senses and rhs must have equal lengths")
        if not set(self.senses) <= _SLACK_SIGN.keys():
            unknown = next(s for s in self.senses if s not in _SLACK_SIGN)
            raise ValueError(f"unknown sense {unknown!r}")
        for lo, hi in self.bounds:
            if not math.isfinite(lo):
                raise ValueError("lower bounds must be finite")
            if hi is not None and hi < lo:
                raise ValueError("upper bound below lower bound")
        if self.variable_tags and len(self.variable_tags) != n:
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
    continues from: the final condensed tableau, the variable of each of
    its rows (`basis`) and columns (`nonbasic`), and the problem's dense
    constraint matrix.
    """

    status: str
    objective_value: float
    values: np.ndarray
    iteration_count: int
    tableau: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    basis: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    nonbasic: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    matrix: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def _dense(rows: list[dict[int, float]], n: int) -> np.ndarray:
    """The rows as a dense (rows, n) matrix."""
    matrix = np.zeros((len(rows), n))
    lengths = [len(row) for row in rows]
    count = sum(lengths)
    chain = itertools.chain.from_iterable
    cols = np.fromiter(chain(rows), dtype=np.intp, count=count)
    coefs = np.fromiter(chain(row.values() for row in rows), dtype=float, count=count)
    matrix[np.repeat(np.arange(len(rows)), lengths), cols] = coefs
    return matrix


def _slack_signs(senses: Sequence[str]) -> np.ndarray:
    """The slack coefficient of each row: +1 for <=, -1 for >=, 0 for =."""
    return np.array([_SLACK_SIGN[s] for s in senses])


def _bound_arrays(bounds) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds as arrays, +inf where there is no upper bound."""
    lo = np.array([lo for lo, _ in bounds], dtype=float)
    hi = np.array([np.inf if hi is None else hi for _, hi in bounds], dtype=float)
    return lo, hi


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


def _run_simplex(tableau, basis, nonbasic, max_iterations, iteration_offset=0):
    """Minimize the cost row in place.  Returns (status, iterations)."""
    m = tableau.shape[0] - 1
    cost, rhs = tableau[-1, :-1], tableau[:m, -1]
    it = iteration_offset
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


def _drop_artificials(tableau, basis, nonbasic, first_art):
    """Drive zero-level artificials out of the basis after phase 1.

    A row whose artificial cannot leave is a redundant constraint and is
    dropped; then the artificial columns go.
    """
    drop = []
    for i in (basis >= first_art).nonzero()[0]:
        nonzero = np.abs(tableau[i, :-1]) > PIVOT_EPS
        candidates = (nonzero & (nonbasic < first_art)).nonzero()[0]
        if candidates.size:
            col = int(candidates[nonbasic[candidates].argmin()])
            _pivot(tableau, i, col)
            basis[i], nonbasic[col] = nonbasic[col], basis[i]
        else:
            drop.append(i)
    kept = nonbasic < first_art
    # compress keeps C order; tableau[:, mask] would be Fortran-ordered
    # and make every later row update of phase 2 strided
    tableau = tableau.compress(np.append(kept, True), axis=1)
    if drop:
        tableau, basis = np.delete(tableau, drop, axis=0), np.delete(basis, drop)
    return tableau, basis, nonbasic[kept]


def _optimal(problem: LpProblem, tableau, basis, nonbasic, matrix, lo, hi, iterations) -> LpSolution:
    """Read the basic solution, audit it and keep the tableau to continue from."""
    y = np.zeros(basis.shape[0] + nonbasic.shape[0])
    y[basis] = tableau[:-1, -1]
    x = lo + y[: problem.n_variables]
    value = float(problem.objective @ x)
    _check_residuals(problem, matrix, lo, hi, x)
    return LpSolution(STATUS_OPTIMAL, value, x, iterations, tableau, basis, nonbasic, matrix)


def solve(
    problem: LpProblem, max_iterations: Optional[int] = None, *, base: Optional[LpSolution] = None
) -> LpSolution:
    """Solve to proven optimality, infeasibility or unboundedness.

    With `base`, the optimal solution of `problem` minus its last row,
    the solve continues from base's final tableau instead of starting
    over; see `_continue`.

    Raises SimplexIterationError if the pivot cap (default
    10 * (tableau rows + variables), counting every phase) is exhausted;
    that always indicates a modelling or numerical pathology, not a valid
    answer.
    """
    if base is not None:
        return _continue(problem, base, max_iterations)
    n = problem.n_variables
    matrix = _dense(problem.rows, n)
    lo, hi = _bound_arrays(problem.bounds)

    # shift x = lo + y (row by row in dict order, as a product with the
    # matrix would round differently); one row x_j <= hi - lo per finite hi
    rhs = problem.rhs.copy()
    if np.count_nonzero(lo):
        for i, row in enumerate(problem.rows):
            rhs[i] -= sum(coef * lo[j] for j, coef in row.items())
    upper = (hi < np.inf).nonzero()[0]
    sign = np.concatenate([_slack_signs(problem.senses), np.ones(upper.size)])
    b = np.concatenate([rhs, hi[upper] - lo[upper]])
    m0, m = matrix.shape[0], b.shape[0]
    if max_iterations is None:
        max_iterations = 10 * (m + n)

    # equality form: one slack/surplus variable per inequality, rhs >= 0;
    # the slacks left at +1 start basic, artificials take the other rows
    has_slack = sign != 0.0
    flip = b < 0.0
    starts_basic = has_slack & ((sign > 0.0) != flip)
    total = n + np.count_nonzero(has_slack)
    slack = n - 1 + has_slack.cumsum()
    art_rows = ~starts_basic
    basis = np.where(starts_basic, slack, total - 1 + art_rows.cumsum())
    column_rows = (has_slack & art_rows).nonzero()[0]
    nonbasic = np.concatenate([np.arange(n), slack[column_rows]])

    tableau = np.zeros((m + 1, nonbasic.shape[0] + 1))
    tableau[:m0, :n] = matrix
    tableau[np.arange(m0, m), upper] = 1.0
    tableau[column_rows, n + np.arange(column_rows.size)] = sign[column_rows]
    tableau[:m, -1] = b
    tableau[flip.nonzero()[0]] *= -1.0

    iterations = 0
    n_total = m + nonbasic.shape[0]
    if n_total > total:
        # phase 1: minimize the sum of artificials
        cost = np.zeros(n_total)
        cost[total:] = 1.0
        _price(tableau, basis, nonbasic, cost)
        status, iterations = _run_simplex(tableau, basis, nonbasic, max_iterations)
        if status != STATUS_OPTIMAL:
            raise SimplexIterationError("phase 1 ended abnormally")
        if -tableau[-1, -1] > FEAS_TOL:
            return LpSolution(STATUS_INFEASIBLE, float("nan"), np.full(n, np.nan), iterations)
        tableau, basis, nonbasic = _drop_artificials(tableau, basis, nonbasic, total)

    # phase 2: minimize -objective over the shifted variables
    cost = np.zeros(total)
    cost[:n] = -problem.objective
    _price(tableau, basis, nonbasic, cost)
    status, iterations = _run_simplex(tableau, basis, nonbasic, max_iterations, iterations)
    if status == STATUS_UNBOUNDED:
        return LpSolution(STATUS_UNBOUNDED, float("inf"), np.full(n, np.nan), iterations)
    return _optimal(problem, tableau, basis, nonbasic, matrix, lo, hi, iterations)


def _continue(problem: LpProblem, base: LpSolution, max_iterations: Optional[int]) -> LpSolution:
    """Solve `problem` by continuing from `base`'s optimal tableau.

    `problem` must be the LP that `base` solved with one more `<=` or `>=`
    row appended last, the same bounds and any objective.  The new row is
    eliminated against the basis and its slack enters it; if the base
    optimum satisfies the new row, that basis is feasible and only phase 2
    runs, under the new objective (Chvatal 1983, adding a constraint to a
    solved LP).  The pivot count and cap cover this phase 2 alone.
    """
    n = problem.n_variables
    if base.status != STATUS_OPTIMAL or base.tableau is None or base.values.shape != (n,):
        raise ValueError("the base must be an optimal solution over the same variables")
    row, sense, b = problem.rows[-1], problem.senses[-1], float(problem.rhs[-1])
    if sense == EQ:
        raise ValueError("the appended row must be an inequality")
    lo, hi = _bound_arrays(problem.bounds)
    if np.count_nonzero(lo):
        for j, coef in row.items():
            b -= coef * lo[j]
    m, width = base.tableau.shape[0] - 1, base.tableau.shape[1]
    n_total = m + width  # the base's variables and the new row's slack
    if max_iterations is None:
        max_iterations = 10 * (m + 1 + n)

    # the new row over every variable, then over the nonbasic ones and rhs
    coefs = np.zeros(n_total)
    coefs[list(row)] = list(row.values())
    tableau = np.zeros((m + 2, width))
    tableau[:m] = base.tableau[:m]
    new = tableau[m]
    new[:-1] = coefs[base.nonbasic]
    new[-1] = b
    for i in coefs[base.basis].nonzero()[0]:
        new -= coefs[base.basis[i]] * tableau[i]
    new /= 1.0 if sense == LE else -1.0
    if new[-1] < -FEAS_TOL * max(1.0, abs(b)):
        raise ValueError("the appended row cuts off the base optimum")
    new[-1] = max(new[-1], 0.0)
    basis = np.append(base.basis, n_total - 1)
    nonbasic = base.nonbasic.copy()
    matrix = np.vstack([base.matrix, coefs[:n]])

    cost = np.zeros(n_total)
    cost[:n] = -problem.objective
    _price(tableau, basis, nonbasic, cost)
    status, iterations = _run_simplex(tableau, basis, nonbasic, max_iterations)
    if status == STATUS_UNBOUNDED:
        return LpSolution(STATUS_UNBOUNDED, float("inf"), np.full(n, np.nan), iterations)
    return _optimal(problem, tableau, basis, nonbasic, matrix, lo, hi, iterations)


def _check_residuals(problem: LpProblem, matrix: np.ndarray, lo, hi, x: np.ndarray) -> None:
    """Defensive post-solve feasibility audit (absolute tolerance).

    `matrix` is the problem's dense constraint matrix, `lo` and `hi` its
    bounds as arrays (`_bound_arrays`).
    """
    rhs = problem.rhs
    scale = max(1.0, float(np.max(np.abs(rhs))) if rhs.size else 1.0)
    tol = FEAS_TOL * scale
    v = matrix @ x
    sign = _slack_signs(problem.senses)
    bad = (((v > rhs + tol) & (sign >= 0.0)) | ((v < rhs - tol) & (sign <= 0.0))).nonzero()[0]
    if bad.size:
        i = bad[0]
        op = _AUDIT_OP[problem.senses[i]]
        raise SimplexIterationError(f"residual violation: {v[i]} {op} {rhs[i]}")
    bad = ((x < lo - tol) | (x > hi + tol)).nonzero()[0]
    if bad.size:
        raise SimplexIterationError(f"bound violation on column {bad[0]}")


def dump_lp_text(problem: LpProblem, name: str = "problem") -> str:
    """Render the problem in CPLEX LP text format for external cross-checks."""
    def var(j):
        return f"x{j}"

    def terms(row):
        parts = []
        for j in sorted(row):
            coef = row[j]
            sign = "-" if coef < 0 else "+"
            parts.append(f"{sign} {abs(coef):.12g} {var(j)}")
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else s

    lines = [f"\\ {name}", "Maximize", " obj: " + terms({j: c for j, c in enumerate(problem.objective) if c})]
    lines.append("Subject To")
    for i, (row, sense, b) in enumerate(zip(problem.rows, problem.senses, problem.rhs)):
        op = {LE: "<=", EQ: "=", GE: ">="}[sense]
        lines.append(f" c{i}: {terms(row)} {op} {b:.12g}")
    lines.append("Bounds")
    for j, (l, h) in enumerate(problem.bounds):
        hi = "+inf" if h is None else f"{h:.12g}"
        lines.append(f" {l:.12g} <= {var(j)} <= {hi}")
    lines.append("End")
    return "\n".join(lines) + "\n"
