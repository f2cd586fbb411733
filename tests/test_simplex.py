"""LP solver: correctness against a vertex-enumeration oracle."""
import itertools

import numpy as np
import pytest

from meoflow import simplex
from meoflow.simplex import (
    FEAS_TOL,
    PIVOT_EPS,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    LpProblem,
    SimplexIterationError,
    solve,
)


def box_problem(a, b, c):
    """maximize c.x st a x <= b, x >= 0."""
    return LpProblem(objective=np.asarray(c, dtype=float), matrix=a, rhs=np.asarray(b, dtype=float))


def vertex_enumeration_optimum(a, b, c):
    """Best objective over all basic feasible points of {a x <= b, x >= 0}."""
    m, n = a.shape
    full = np.hstack([a, np.eye(m)])  # slack columns
    best = -np.inf
    for cols in itertools.combinations(range(n + m), m):
        sub = full[:, cols]
        try:
            xb = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(xb < -1e-9):
            continue
        x = np.zeros(n + m)
        x[list(cols)] = xb
        best = max(best, float(np.dot(c, x[:n])))
    return best


class TestBasics:
    def test_epigraph_two_caps(self):
        # maximize t st t <= 3, t <= 5
        p = LpProblem(np.array([1.0]), [[1.0], [1.0]], np.array([3.0, 5.0]))
        s = solve(p)
        assert s.status == STATUS_OPTIMAL
        assert s.objective_value == pytest.approx(3.0, abs=1e-12)

    def test_infeasible(self):
        # x >= 5 and x <= 3: an LP with rhs >= 0 always has the feasible
        # point x = 0, so an infeasible one has a negative rhs, which a
        # cold solve refuses
        p = LpProblem(np.array([1.0]), [[-1.0], [1.0]], np.array([-5.0, 3.0]))
        with pytest.raises(ValueError, match="rhs >= 0"):
            solve(p)

    @pytest.mark.parametrize("matrix", [[[1.0, 0.0]], [[1.0], [1.0]], [1.0]])
    def test_matrix_shape_must_match_rhs_and_objective(self, matrix):
        # one objective coefficient and one rhs take a 1 x 1 matrix
        with pytest.raises(ValueError, match="matrix must have one row per rhs"):
            LpProblem(np.array([1.0]), matrix, np.array([1.0]))

    def test_unbounded(self):
        p = LpProblem(np.array([1.0, 0.0]), [[0.0, 1.0]], np.array([1.0]))
        assert solve(p).status == STATUS_UNBOUNDED

    @pytest.mark.parametrize("coef,pivots", [(PIVOT_EPS / 2, 0), (2 * PIVOT_EPS, 1)])
    def test_pivot_eps_decides_whether_a_column_improves(self, coef, pivots):
        # maximize coef * x st x <= 1: the all-slack start is optimal unless
        # x's reduced cost beats PIVOT_EPS
        s = solve(LpProblem(np.array([coef]), [[1.0]], np.array([1.0])))
        assert s.status == STATUS_OPTIMAL and s.iteration_count == pivots
        assert s.values[0] == float(pivots)

    def test_degenerate_beale_terminates(self):
        # classic cycling instance for naive pivoting; Bland must finish
        a = np.array(
            [
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        b = np.array([0.0, 0.0, 1.0])
        c = np.array([0.75, -150.0, 0.02, -6.0])
        s = solve(box_problem(a, b, c))
        assert s.status == STATUS_OPTIMAL
        assert s.objective_value == pytest.approx(vertex_enumeration_optimum(a, b, c), abs=1e-9)

    def test_iteration_cap_raises(self):
        rng = np.random.RandomState(0)
        a = rng.uniform(0.1, 2.0, size=(6, 8))
        p = box_problem(a, rng.uniform(1, 5, size=6), rng.uniform(0.5, 2.0, size=8))
        with pytest.raises(SimplexIterationError):
            solve(p, max_iterations=1)


class TestRandomOracle:
    def test_matches_vertex_enumeration(self):
        rng = np.random.RandomState(42)
        for trial in range(60):
            m, n = 6, 8
            a = rng.uniform(0.1, 2.0, size=(m, n))
            b = rng.uniform(1.0, 5.0, size=m)
            c = rng.uniform(-1.0, 2.0, size=n)
            p = box_problem(a, b, c)
            s = solve(p)
            assert s.status == STATUS_OPTIMAL, f"trial {trial}"
            expected = vertex_enumeration_optimum(a, b, c)
            assert s.objective_value == pytest.approx(expected, abs=1e-7), f"trial {trial}"

    def test_residuals_within_tolerance(self):
        rng = np.random.RandomState(7)
        for _ in range(30):
            a = rng.uniform(0.1, 2.0, size=(6, 8))
            b = rng.uniform(1.0, 5.0, size=6)
            c = rng.uniform(-1.0, 2.0, size=8)
            p = box_problem(a, b, c)
            s = solve(p)
            for row, rhs in zip(p.matrix, p.rhs):
                v = sum(coef * s.values[j] for j, coef in enumerate(row) if coef)
                assert v <= rhs + 1e-8
            assert np.all(s.values >= -1e-8)


class TestContinueFromBase:
    def test_appended_row_and_new_objective_match_cold_solve(self):
        # odd trials append a <= row, even ones a >= row written as its
        # negation; a cold solve takes only the rows with rhs >= 0, vertex
        # enumeration the others
        rng = np.random.RandomState(8)
        cold_solved = 0
        for trial in range(40):
            a = rng.uniform(0.1, 2.0, size=(5, 6))
            p = box_problem(a, rng.uniform(1.0, 5.0, size=5), rng.uniform(0.5, 2.0, size=6))
            base = solve(p)
            extra = rng.uniform(-1.0, 1.0, size=6)
            at_base = float(extra @ base.values)
            if trial % 2 == 0:
                extra, at_base = -extra, -at_base
            c = rng.uniform(-1.0, 2.0, size=6)
            q = box_problem(np.vstack([a, extra]), np.append(p.rhs, at_base + 0.3), c)
            warm = solve(q, base=base)
            assert warm.status == STATUS_OPTIMAL, f"trial {trial}"
            if q.rhs[-1] >= 0.0:
                cold_solved += 1
                expected = solve(q).objective_value
            else:
                expected = vertex_enumeration_optimum(np.vstack([a, extra]), q.rhs, c)
            assert warm.objective_value == pytest.approx(expected, abs=1e-9), f"trial {trial}"
        assert 0 < cold_solved < 40

    def test_row_that_cuts_off_the_base_optimum_is_refused(self):
        p = LpProblem(np.array([1.0]), [[1.0]], np.array([3.0]))
        q = LpProblem(np.array([1.0]), [[1.0], [1.0]], np.array([3.0, 2.0]))
        with pytest.raises(ValueError, match="cuts off"):
            solve(q, base=solve(p))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("violation,accepted", [(FEAS_TOL / 2, True), (2 * FEAS_TOL, False)])
    def test_feas_tol_bounds_how_far_the_base_optimum_may_violate_the_row(self, sign, violation, accepted):
        # the base optimum is x = 1; the appended row x <= 1 - violation, or
        # x >= 1 + violation written as -x <= -(1 + violation)
        p = LpProblem(np.array([1.0]), [[1.0]], np.array([1.0]))
        q = LpProblem(np.array([1.0]), [[1.0], [sign]], np.array([1.0, sign * (1.0 - sign * violation)]))
        if accepted:
            s = solve(q, base=solve(p))
            assert s.status == STATUS_OPTIMAL and s.values[0] == 1.0
        else:
            with pytest.raises(ValueError, match="cuts off"):
                solve(q, base=solve(p))


class TestResidualAudit:
    # The audit that closes every optimal solve never fires on a correct
    # solver, so it is driven here with points just inside and just
    # outside x0 + x1 <= 2, >= 2 and = 2, and x >= 0 (tol = FEAS_TOL *
    # max |rhs| = 2e-8).  A >= row is audited as its negated <= row, as
    # stage 2 writes its pin; an equality as both rows.
    ROWS = {
        "<=": ([[1.0, 1.0]], [2.0]),
        ">=": ([[-1.0, -1.0]], [-2.0]),
        "=": ([[1.0, 1.0], [-1.0, -1.0]], [2.0, -2.0]),
    }

    @pytest.mark.parametrize(
        "sense,x,error",
        [
            ("<=", [1.0, 1.0 + 1e-9], None),
            ("<=", [1.0, 1.0 + 1e-6], r"residual violation: .* <= 2\.0"),
            (">=", [1.0, 1.0 - 1e-9], None),
            (">=", [1.0, 1.0 - 1e-6], r"residual violation: .* <= -2\.0"),
            ("=", [1.0, 1.0 + 1e-6], r"residual violation: .* <= 2\.0"),
            ("=", [1.0, 1.0 - 1e-6], r"residual violation: .* <= -2\.0"),
            ("=", [2.0 + 1e-9, -1e-9], None),
            ("=", [-1e-6, 2.0 + 1e-6], "bound violation on column 0"),
            ("=", [2.0 + 1e-6, -1e-6], "bound violation on column 1"),
        ],
    )
    def test_rows_and_bounds_within_tolerance(self, sense, x, error):
        rows, rhs = self.ROWS[sense]
        p = LpProblem(np.zeros(2), rows, np.array(rhs))
        audit = lambda: simplex._check_residuals(p, np.array(x))
        if error is None:
            audit()
        else:
            with pytest.raises(SimplexIterationError, match=error):
                audit()


class TestDeterminism:
    def test_bit_identical_reruns(self):
        rng = np.random.RandomState(3)
        a = rng.uniform(0.1, 2.0, size=(6, 8))
        b = rng.uniform(1.0, 5.0, size=6)
        c = rng.uniform(-1.0, 2.0, size=8)
        s1 = solve(box_problem(a, b, c))
        s2 = solve(box_problem(a, b, c))
        assert s1.objective_value == s2.objective_value
        assert np.array_equal(s1.values, s2.values)
        assert s1.iteration_count == s2.iteration_count
