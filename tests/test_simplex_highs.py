"""Property tests: `solve` on random small LPs against HiGHS.

The LPs have the one shape the solver takes: <= rows with rhs >= 0 and
x >= 0, so they end optimal or unbounded: an `LpSolution` or the
ValueError "LP unbounded".  `zero_one_rhs` draws every
rhs from {0, 1}, as in the allocation LP, where most vertices are
degenerate.  The continued solve from a base appends one <= row of
either rhs sign.
"""
import numpy as np
import pytest

pytest.importorskip("scipy.optimize")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_oracle import highs  # noqa: E402

from meoflow.simplex import LpProblem, solve  # noqa: E402

HIGHS_OPTIMAL, HIGHS_UNBOUNDED = 0, 3  # scipy's linprog status codes
SETTINGS = hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)

coefficient = st.integers(-4, 4).map(float)


@st.composite
def small_lps(draw, zero_one_rhs):
    """LPs of up to 5 rows and 5 columns."""
    n = draw(st.integers(1, 5))
    rows, rhs = [], []
    for _ in range(draw(st.integers(1, 5))):
        rows.append(draw(st.lists(coefficient, min_size=n, max_size=n)))
        rhs.append(float(draw(st.integers(0, 1 if zero_one_rhs else 6))))
    objective = draw(st.lists(coefficient, min_size=n, max_size=n))
    return LpProblem(np.array(objective), rows, np.array(rhs))


def outcome(problem, base=None):
    """`solve`'s LpSolution, or the ValueError it raises."""
    try:
        return solve(problem, base=base)
    except ValueError as exc:
        return exc


def assert_matches_highs(problem, solution):
    res = highs(problem, problem.objective)
    assert res.status in (HIGHS_OPTIMAL, HIGHS_UNBOUNDED), res.message
    if res.status == HIGHS_UNBOUNDED:
        assert isinstance(solution, ValueError) and str(solution) == "LP unbounded"
    else:
        assert solution.objective_value == pytest.approx(-res.fun, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("zero_one_rhs", [False, True])
def test_solve_matches_highs(zero_one_rhs):
    @SETTINGS
    @hypothesis.given(small_lps(zero_one_rhs))
    def check(problem):
        assert_matches_highs(problem, outcome(problem))

    check()


@pytest.mark.parametrize("zero_one_rhs", [False, True])
def test_solve_from_base_matches_cold_solve_on_an_appended_inequality(zero_one_rhs):
    @SETTINGS
    @hypothesis.given(small_lps(zero_one_rhs), st.data())
    def check(problem, data):
        base = outcome(problem)
        hypothesis.assume(not isinstance(base, ValueError))
        n = problem.n_variables
        extra = data.draw(st.lists(coefficient, min_size=n, max_size=n))
        at_base = sum(coef * base.values[j] for j, coef in enumerate(extra) if coef)
        if at_base > 0.0 and data.draw(st.booleans()):
            # a >= row written as its negation, as stage 2 writes its pin:
            # the rhs turns negative once at_base exceeds the margin
            extra = [-c for c in extra]
            at_base = -at_base
        margin = float(data.draw(st.integers(0, 3)))
        objective = np.array(data.draw(st.lists(coefficient, min_size=n, max_size=n)))
        appended = LpProblem(objective, np.vstack([problem.matrix, extra]), np.append(problem.rhs, at_base + margin))
        warm = outcome(appended, base)
        if at_base + margin >= 0.0:
            cold = outcome(appended)
            assert type(warm) is type(cold)
            if not isinstance(cold, ValueError):
                assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-7, abs=1e-7)
        assert_matches_highs(appended, warm)

    check()
