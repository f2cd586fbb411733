"""LP solver: correctness against a vertex-enumeration oracle."""
import itertools
import math

import numpy as np
import pytest

from meoflow import simplex
from meoflow.simplex import (
    EQ,
    GE,
    LE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    LpProblem,
    LpSolution,
    SimplexIterationError,
    dump_lp_text,
    solve,
)


def box_problem(a, b, c):
    """maximize c.x st a x <= b, x >= 0 (dense rows)."""
    m, n = a.shape
    rows = [{j: float(a[i, j]) for j in range(n) if a[i, j] != 0.0} for i in range(m)]
    return LpProblem(
        objective=np.asarray(c, dtype=float),
        rows=rows,
        senses=[LE] * m,
        rhs=np.asarray(b, dtype=float),
        bounds=[(0.0, None)] * n,
    )


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
        p = LpProblem(np.array([1.0]), [{0: 1.0}, {0: 1.0}], [LE, LE], np.array([3.0, 5.0]), [(0.0, None)])
        s = solve(p)
        assert s.status == STATUS_OPTIMAL
        assert s.objective_value == pytest.approx(3.0, abs=1e-12)

    def test_equality_and_ge(self):
        # maximize x + y st x + y = 4, x >= 1, y <= 2  ->  x=2,y=2 value 4
        p = LpProblem(
            np.array([1.0, 1.0]),
            [{0: 1.0, 1: 1.0}, {0: 1.0}, {1: 1.0}],
            [EQ, GE, LE],
            np.array([4.0, 1.0, 2.0]),
            [(0.0, None), (0.0, None)],
        )
        s = solve(p)
        assert s.status == STATUS_OPTIMAL
        assert s.objective_value == pytest.approx(4.0, abs=1e-9)
        assert s.values[1] <= 2.0 + 1e-9

    def test_infeasible(self):
        p = LpProblem(
            np.array([1.0]),
            [{0: 1.0}, {0: 1.0}],
            [GE, LE],
            np.array([5.0, 3.0]),
            [(0.0, None)],
        )
        assert solve(p).status == STATUS_INFEASIBLE

    def test_unbounded(self):
        p = LpProblem(np.array([1.0, 0.0]), [{1: 1.0}], [LE], np.array([1.0]), [(0.0, None), (0.0, None)])
        assert solve(p).status == STATUS_UNBOUNDED

    def test_finite_bounds_shift(self):
        # maximize x + 2y with 1 <= x <= 3, -2 <= y <= 1, x + y <= 3
        p = LpProblem(
            np.array([1.0, 2.0]),
            [{0: 1.0, 1: 1.0}],
            [LE],
            np.array([3.0]),
            [(1.0, 3.0), (-2.0, 1.0)],
        )
        s = solve(p)
        assert s.status == STATUS_OPTIMAL
        assert s.objective_value == pytest.approx(4.0, abs=1e-9)  # x=2, y=1
        assert s.values[0] == pytest.approx(2.0, abs=1e-9)
        assert s.values[1] == pytest.approx(1.0, abs=1e-9)

    def test_negative_lower_bound_only(self):
        # maximize -x with x >= -4  ->  4 at x=-4
        p = LpProblem(np.array([-1.0]), [], [], np.array([]), [(-4.0, None)])
        s = solve(p)
        assert s.objective_value == pytest.approx(4.0, abs=1e-12)

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
            for row, rhs in zip(p.rows, p.rhs):
                v = sum(coef * s.values[j] for j, coef in row.items())
                assert v <= rhs + 1e-8
            assert np.all(s.values >= -1e-8)

    def test_mixed_senses_against_shifted_oracle(self):
        # maximize c.x st a1 x <= b1, a2 x >= b2 with x >= 0; recast the
        # >= rows as <= for the oracle
        rng = np.random.RandomState(21)
        for _ in range(25):
            a1 = rng.uniform(0.2, 2.0, size=(4, 5))
            b1 = rng.uniform(2.0, 6.0, size=4)
            a2 = rng.uniform(0.05, 0.3, size=(2, 5))
            b2 = rng.uniform(0.1, 0.4, size=2)
            c = rng.uniform(-0.5, 1.5, size=5)
            rows = [{j: float(a1[i, j]) for j in range(5)} for i in range(4)]
            rows += [{j: float(a2[i, j]) for j in range(5)} for i in range(2)]
            p = LpProblem(c, rows, [LE] * 4 + [GE] * 2, np.concatenate([b1, b2]), [(0.0, None)] * 5)
            s = solve(p)
            a_all = np.vstack([a1, -a2])
            b_all = np.concatenate([b1, -b2])
            expected = vertex_enumeration_optimum(a_all, b_all, c)
            if s.status == STATUS_OPTIMAL:
                assert s.objective_value == pytest.approx(expected, abs=1e-7)
            else:
                assert expected == -np.inf


class TestContinueFromBase:
    def test_appended_row_and_new_objective_match_cold_solve(self):
        rng = np.random.RandomState(8)
        for trial in range(40):
            a = rng.uniform(0.1, 2.0, size=(6, 8))
            p = box_problem(a, rng.uniform(1.0, 5.0, size=6), rng.uniform(0.5, 2.0, size=8))
            base = solve(p)
            extra = {j: float(rng.uniform(-1.0, 1.0)) for j in range(8)}
            at_base = sum(coef * base.values[j] for j, coef in extra.items())
            sense, rhs = (LE, at_base + 0.3) if trial % 2 else (GE, at_base - 0.3)
            q = LpProblem(rng.uniform(-1.0, 2.0, size=8), p.rows + [extra], p.senses + [sense],
                          np.append(p.rhs, rhs), p.bounds)
            warm, cold = solve(q, base=base), solve(q)
            assert warm.status == cold.status, f"trial {trial}"
            if cold.status == STATUS_OPTIMAL:
                assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)

    def test_row_that_cuts_off_the_base_optimum_is_refused(self):
        p = LpProblem(np.array([1.0]), [{0: 1.0}], [LE], np.array([3.0]), [(0.0, None)])
        q = LpProblem(np.array([1.0]), p.rows + [{0: 1.0}], [LE, LE], np.array([3.0, 2.0]), p.bounds)
        with pytest.raises(ValueError, match="cuts off"):
            solve(q, base=solve(p))


class TestResidualAudit:
    # The audit that closes every optimal solve never fires on a correct
    # solver, so it is driven here with points just inside and just
    # outside each kind of row and bound (tol = FEAS_TOL * max |rhs| = 2e-8).
    @pytest.mark.parametrize(
        "sense,x,error",
        [
            (LE, [1.0, 1.0 + 1e-9], None),
            (LE, [1.0, 1.0 + 1e-6], r"residual violation: .* <= 2\.0"),
            (GE, [1.0, 1.0 - 1e-9], None),
            (GE, [1.0, 1.0 - 1e-6], r"residual violation: .* >= 2\.0"),
            (EQ, [1.0, 1.0 + 1e-6], r"residual violation: .* == 2\.0"),
            (EQ, [1.0, 1.0 - 1e-6], r"residual violation: .* == 2\.0"),
            (EQ, [2.0 + 1e-9, -1e-9], None),
            (EQ, [3.0 + 1e-6, -1.0 - 1e-6], "bound violation on column 0"),
            (EQ, [2.0 + 1e-6, -1e-6], "bound violation on column 1"),
        ],
    )
    def test_rows_and_bounds_within_tolerance(self, sense, x, error):
        p = LpProblem(np.zeros(2), [{0: 1.0, 1: 1.0}], [sense], np.array([2.0]), [(0.0, 3.0), (0.0, None)])
        lo, hi = simplex._bound_arrays(p.bounds)
        audit = lambda: simplex._check_residuals(p, simplex._dense(p.rows, 2), lo, hi, np.array(x))
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


def test_lp_text_dump_round_trippable_shape():
    p = LpProblem(
        np.array([1.0, -0.5]),
        [{0: 1.0, 1: 2.0}, {0: -1.0}],
        [LE, GE],
        np.array([3.0, -1.0]),
        [(0.0, None), (0.0, 4.0)],
        variable_tags=(("t",), ("r", 0)),
    )
    text = dump_lp_text(p, name="slot0")
    assert text.startswith("\\ slot0\nMaximize")
    assert "Subject To" in text and "Bounds" in text and text.endswith("End\n")
    assert "c0:" in text and "c1:" in text
    assert "x0" in text and "x1" in text
    assert p.column(("r", 0)) == 1
