"""Self-contained dense LP solver: two-phase primal simplex, Bland's rule.

The solver is deliberately dependency-free and fully deterministic: the
same problem always walks the same pivot sequence, so downstream results
are bit-identical across runs.  Bland's smallest-index rule guarantees
termination on degenerate problems at the cost of some extra pivots,
which is fine at the few-hundred-variable sizes produced per time slot.

Problems are stated as `maximize c.x` over sparse rows with senses
<=, =, >= and per-variable bounds [lo, hi]; internally everything is
shifted and slacked into standard equality form with nonnegative
variables before the tableau runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

PIVOT_EPS = 1e-9
FEAS_TOL = 1e-8

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"

LE, EQ, GE = "<=", "=", ">="


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
        for s in self.senses:
            if s not in (LE, EQ, GE):
                raise ValueError(f"unknown sense {s!r}")
        for lo, hi in self.bounds:
            if not np.isfinite(lo):
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

    An optimal solution also keeps its final tableau (shifted variables
    and slacks, rhs last, cost row last) and the basic column of each
    row, so a later `solve(..., base=...)` can continue from it.
    """

    status: str
    objective_value: float
    values: np.ndarray
    iteration_count: int
    tableau: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    basis: Optional[list[int]] = field(default=None, repr=False, compare=False)


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]


def _run_simplex(tableau, basis, n_cols, max_iterations, iteration_offset=0):
    """Minimize the cost row in place.  Returns (status, iterations)."""
    m = tableau.shape[0] - 1
    it = iteration_offset
    while True:
        if it >= max_iterations:
            raise SimplexIterationError(f"simplex exceeded {max_iterations} iterations")
        improving = tableau[-1, :n_cols] < -PIVOT_EPS
        entering = int(np.argmax(improving))  # Bland: first improving column
        if not improving[entering]:
            return STATUS_OPTIMAL, it
        col = tableau[:m, entering]
        rows = (col > PIVOT_EPS).nonzero()[0]
        if not rows.size:
            return STATUS_UNBOUNDED, it
        ratios = tableau[rows, -1] / col[rows]
        best = ratios.min()
        # Bland tie-break: among minimal ratios leave the smallest basis index
        tied = rows[ratios <= best + PIVOT_EPS * max(1.0, abs(best))]
        leaving = int(min(tied, key=basis.__getitem__))
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        it += 1


def _price(tableau: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    """Write `cost` into the cost row, priced out over the basis."""
    tableau[-1, :-1] = cost
    tableau[-1, -1] = 0.0
    for i, j in enumerate(basis):
        if cost[j] != 0.0:
            tableau[-1] -= cost[j] * tableau[i]


def _optimal(problem: LpProblem, tableau, basis, lo, iterations) -> LpSolution:
    """Read the basic solution, audit it and keep the tableau to continue from."""
    n = problem.n_variables
    y = np.zeros(tableau.shape[1] - 1)
    for i, j in enumerate(basis):
        y[j] = tableau[i, -1]
    x = lo + y[:n]
    value = float(problem.objective @ x)
    _check_residuals(problem, x)
    return LpSolution(STATUS_OPTIMAL, value, x, iterations, tableau, basis)


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
    lo = np.array([b[0] for b in problem.bounds])

    # shift x = lo + y, append rows for finite upper bounds
    rows: list[dict[int, float]] = [dict(r) for r in problem.rows]
    senses = list(problem.senses)
    rhs = problem.rhs.copy()
    for i, row in enumerate(rows):
        rhs[i] -= sum(coef * lo[j] for j, coef in row.items())
    for j, (l, h) in enumerate(problem.bounds):
        if h is not None:
            rows.append({j: 1.0})
            senses.append(LE)
            rhs = np.append(rhs, h - l)

    m = len(rows)
    if max_iterations is None:
        max_iterations = 10 * (m + n)

    # equality form: one slack/surplus column per inequality
    n_slack = sum(1 for s in senses if s != EQ)
    total = n + n_slack
    a = np.zeros((m, total))
    b = rhs.copy()
    si = n
    slack_of_row = [-1] * m
    for i, row in enumerate(rows):
        for j, coef in row.items():
            a[i, j] = coef
        if senses[i] == LE:
            a[i, si] = 1.0
            slack_of_row[i] = si
            si += 1
        elif senses[i] == GE:
            a[i, si] = -1.0
            slack_of_row[i] = si
            si += 1
    # normalize rhs >= 0
    for i in range(m):
        if b[i] < 0:
            a[i] *= -1.0
            b[i] *= -1.0

    # starting basis: surviving +1 slacks, artificials elsewhere
    basis = [-1] * m
    for i in range(m):
        s = slack_of_row[i]
        if s >= 0 and a[i, s] == 1.0:
            basis[i] = s
    art_rows = [i for i in range(m) if basis[i] < 0]
    art_cols = list(range(total, total + len(art_rows)))
    if art_rows:
        a = np.hstack([a, np.zeros((m, len(art_rows)))])
        for i, j in zip(art_rows, art_cols):
            a[i, j] = 1.0
            basis[i] = j

    iterations = 0
    if art_cols:
        # phase 1: minimize the sum of artificials
        tableau = np.zeros((m + 1, a.shape[1] + 1))
        tableau[:m, :-1] = a
        tableau[:m, -1] = b
        cost = np.zeros(a.shape[1])
        cost[art_cols] = 1.0
        _price(tableau, basis, cost)
        status, iterations = _run_simplex(tableau, basis, a.shape[1], max_iterations)
        if status != STATUS_OPTIMAL:
            raise SimplexIterationError("phase 1 ended abnormally")
        if -tableau[-1, -1] > FEAS_TOL:
            return LpSolution(STATUS_INFEASIBLE, float("nan"), np.full(n, np.nan), iterations)
        # drive leftover zero-level artificials out of the basis
        first_art = min(art_cols)
        drop_rows = []
        for i in range(m):
            if basis[i] >= first_art:
                row = tableau[i, :first_art]
                candidates = np.where(np.abs(row) > PIVOT_EPS)[0]
                if candidates.size:
                    _pivot(tableau, i, int(candidates[0]))
                    basis[i] = int(candidates[0])
                else:
                    drop_rows.append(i)  # redundant constraint
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            tableau = tableau[keep + [m], :]
            basis = [basis[i] for i in keep]
            m = len(keep)
        a = tableau[:m, :first_art]
        b = tableau[:m, -1].copy()
        total = first_art

    # phase 2: minimize -objective over the shifted variables
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :total] = a[:, :total]
    tableau[:m, -1] = b
    cost = np.zeros(total)
    cost[:n] = -problem.objective
    _price(tableau, basis, cost)
    status, iterations = _run_simplex(tableau, basis, total, max_iterations, iterations)
    if status == STATUS_UNBOUNDED:
        return LpSolution(STATUS_UNBOUNDED, float("inf"), np.full(n, np.nan), iterations)
    return _optimal(problem, tableau, basis, lo, iterations)


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
    lo = np.array([bd[0] for bd in problem.bounds])
    m, width = base.tableau.shape[0] - 1, base.tableau.shape[1] + 1
    if max_iterations is None:
        max_iterations = 10 * (m + 1 + n)

    # old columns, the new row's slack, rhs; old rows, the new row, cost
    tableau = np.zeros((m + 2, width))
    tableau[:m, :-2] = base.tableau[:m, :-1]
    tableau[:m, -1] = base.tableau[:m, -1]
    new = tableau[m]
    for j, coef in row.items():
        new[j] = coef
        b -= coef * lo[j]
    new[-2] = 1.0 if sense == LE else -1.0
    new[-1] = b
    for i, j in enumerate(base.basis):
        if new[j] != 0.0:
            new -= new[j] * tableau[i]
    new /= new[-2]
    if new[-1] < -FEAS_TOL * max(1.0, abs(b)):
        raise ValueError("the appended row cuts off the base optimum")
    new[-1] = max(new[-1], 0.0)
    basis = list(base.basis) + [width - 2]

    cost = np.zeros(width - 1)
    cost[:n] = -problem.objective
    _price(tableau, basis, cost)
    status, iterations = _run_simplex(tableau, basis, width - 1, max_iterations)
    if status == STATUS_UNBOUNDED:
        return LpSolution(STATUS_UNBOUNDED, float("inf"), np.full(n, np.nan), iterations)
    return _optimal(problem, tableau, basis, lo, iterations)


def _check_residuals(problem: LpProblem, x: np.ndarray) -> None:
    """Defensive post-solve feasibility audit (absolute tolerance)."""
    scale = max(1.0, float(np.max(np.abs(problem.rhs))) if problem.rhs.size else 1.0)
    tol = FEAS_TOL * scale
    for row, sense, b in zip(problem.rows, problem.senses, problem.rhs):
        v = sum(coef * x[j] for j, coef in row.items())
        if sense == LE and v > b + tol:
            raise SimplexIterationError(f"residual violation: {v} <= {b}")
        if sense == GE and v < b - tol:
            raise SimplexIterationError(f"residual violation: {v} >= {b}")
        if sense == EQ and abs(v - b) > tol:
            raise SimplexIterationError(f"residual violation: {v} == {b}")
    for j, (l, h) in enumerate(problem.bounds):
        if x[j] < l - tol or (h is not None and x[j] > h + tol):
            raise SimplexIterationError(f"bound violation on column {j}")


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
