"""Exact certificate of a simplex basis, in rational arithmetic.

`certify` takes an `LpProblem` (maximize c.x subject to A.x <= b, x >= 0)
and the basis an `LpSolution` ends on, and checks in `fractions.Fraction`
arithmetic, with no tolerance, that the basis is optimal: the basic
solution x_B = B^-1 b is primal feasible and the duals y = B^-T c_B are
dual feasible (Applegate, Cook, Dash and Espinoza, "Exact solutions to
linear programming problems", Oper. Res. Lett., 2007).  Every float is
converted to the rational number it holds, so the check is of the LP the
solver was given, bit for bit.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional


def _gauss_jordan(rows: list[dict], rhs: list) -> Optional[list]:
    """The x with sum_j rows[i][j] * x[j] = rhs[i] for every i, or None if the rows are singular.

    rows[i] maps a column in range(len(rows)) to its nonzero entry.  Each
    column pivots on the sparsest row that holds it, and is eliminated from
    every other row, so that each pivot row ends with its pivot alone.
    """
    rows, rhs = [dict(row) for row in rows], list(rhs)
    free = set(range(len(rows)))
    pivot_row = []
    for col in range(len(rows)):
        holding = [i for i in free if col in rows[i]]
        if not holding:
            return None
        p = min(holding, key=lambda i: (len(rows[i]), i))
        free.remove(p)
        pivot = rows[p].pop(col)
        row = {k: v / pivot for k, v in rows[p].items()}
        rows[p], rhs[p] = row, rhs[p] / pivot
        for i, other in enumerate(rows):
            f = other.pop(col, None) if i != p else None
            if f is None:
                continue
            for k, v in row.items():
                new = other.get(k, 0) - f * v
                if new:
                    other[k] = new
                else:
                    other.pop(k, None)
            rhs[i] -= f * rhs[p]
        pivot_row.append(p)
    return [rhs[p] for p in pivot_row]


def certify(problem, basis) -> tuple[Optional[str], Optional[Fraction]]:
    """Check exactly that `basis` is an optimal basis of `problem`.

    `basis` names a column of [A | I] for each row: variable j < n is
    column j of A and variable n + i is the slack of row i.  Returns the
    first failure of x_B >= 0, y >= 0 and A^T y >= c (or a singular B) as
    a message, None when there is none, and the exact objective c_B . x_B
    (None for a singular B).
    """
    m, n = problem.matrix.shape
    columns = [
        {i: Fraction(v) for i, v in enumerate(column) if v} for column in problem.matrix.T.tolist()
    ] + [{i: Fraction(1)} for i in range(m)]
    cost = [Fraction(v) for v in problem.objective.tolist()] + [Fraction(0)] * m
    basis = [int(var) for var in basis]
    rows = [{} for _ in range(m)]  # B by rows: row i holds column basis[p]'s entry at position p
    for p, var in enumerate(basis):
        for i, v in columns[var].items():
            rows[i][p] = v
    x_basic = _gauss_jordan(rows, [Fraction(v) for v in problem.rhs.tolist()])
    y = _gauss_jordan([columns[var] for var in basis], [cost[var] for var in basis])
    if x_basic is None or y is None:
        return "the basis matrix is singular", None
    objective = sum(cost[var] * x for var, x in zip(basis, x_basic))
    for var, x in zip(basis, x_basic):
        if x < 0:
            return f"primal infeasible: basic variable {var} is {float(x)!r}", objective
    for i, yi in enumerate(y):
        if yi < 0:
            return f"dual infeasible: y of row {i} is {float(yi)!r}", objective
    for j in range(n):
        reduced = sum(v * y[i] for i, v in columns[j].items()) - cost[j]
        if reduced < 0:
            return f"dual infeasible: reduced cost of column {j} is {float(reduced)!r}", objective
    return None, objective
