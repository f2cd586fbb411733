"""Property tests: `solve` on random small LPs against HiGHS.

The LPs mix <=, >= and = rows, zero and nonzero lower bounds and finite
and infinite upper bounds, so they reach phase 1, the bound shift, the
upper-bound rows, infeasible and unbounded endings, and the continued
solve from a base.
"""
import numpy as np
import pytest

pytest.importorskip("scipy.optimize")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_oracle import highs  # noqa: E402

from meoflow.simplex import (  # noqa: E402
    EQ,
    GE,
    LE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    LpProblem,
    solve,
)

HIGHS_STATUS = {0: STATUS_OPTIMAL, 2: STATUS_INFEASIBLE, 3: STATUS_UNBOUNDED}
SETTINGS = hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)

coefficient = st.integers(-4, 4).map(float)


@st.composite
def small_lps(draw, nonzero_bounds, feasible=False):
    """LPs of up to 5 rows and 5 columns; `feasible` ones contain a drawn point."""
    n = draw(st.integers(1, 5))
    bounds = []
    for _ in range(n):
        lo = float(draw(st.integers(-3, 3))) if nonzero_bounds else 0.0
        width = draw(st.one_of(st.none(), st.integers(0, 6)))
        bounds.append((lo, None if width is None else lo + width))
    point = [lo + draw(st.integers(0, 6 if hi is None else int(hi - lo))) for lo, hi in bounds]
    rows, senses, rhs = [], [], []
    for _ in range(draw(st.integers(1, 5))):
        dense = draw(st.lists(coefficient, min_size=n, max_size=n))
        rows.append({j: c for j, c in enumerate(dense) if c})
        senses.append(draw(st.sampled_from([LE, GE, EQ])))
        if feasible:
            gap = {LE: 1.0, GE: -1.0, EQ: 0.0}[senses[-1]] * draw(st.integers(0, 2))
            rhs.append(float(np.dot(dense, point)) + gap)
        else:
            rhs.append(float(draw(st.integers(-6, 6))))
    objective = draw(st.lists(coefficient, min_size=n, max_size=n))
    return LpProblem(np.array(objective), rows, senses, np.array(rhs), bounds)


def assert_matches_highs(problem, solution):
    res = highs(problem, problem.objective)
    assert res.status in HIGHS_STATUS, res.message
    assert solution.status == HIGHS_STATUS[res.status]
    if solution.status == STATUS_OPTIMAL:
        assert solution.objective_value == pytest.approx(-res.fun, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("nonzero_bounds", [False, True])
def test_solve_matches_highs(nonzero_bounds):
    @SETTINGS
    @hypothesis.given(small_lps(nonzero_bounds))
    def check(problem):
        assert_matches_highs(problem, solve(problem))

    check()


@pytest.mark.parametrize("nonzero_bounds", [False, True])
def test_solve_from_base_matches_cold_solve_on_an_appended_inequality(nonzero_bounds):
    @SETTINGS
    @hypothesis.given(small_lps(nonzero_bounds, feasible=True), st.data())
    def check(problem, data):
        base = solve(problem)
        hypothesis.assume(base.status == STATUS_OPTIMAL)
        n = problem.n_variables
        dense = data.draw(st.lists(coefficient, min_size=n, max_size=n))
        extra = {j: c for j, c in enumerate(dense) if c}
        at_base = sum(coef * base.values[j] for j, coef in extra.items())
        margin = float(data.draw(st.integers(0, 3)))
        sense = data.draw(st.sampled_from([LE, GE]))
        bound = at_base + margin if sense == LE else at_base - margin
        objective = np.array(data.draw(st.lists(coefficient, min_size=n, max_size=n)))
        appended = LpProblem(
            objective,
            problem.rows + [extra],
            problem.senses + [sense],
            np.append(problem.rhs, bound),
            problem.bounds,
        )
        warm, cold = solve(appended, base=base), solve(appended)
        assert warm.status == cold.status
        if cold.status == STATUS_OPTIMAL:
            assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-7, abs=1e-7)
        assert_matches_highs(appended, warm)

    check()
