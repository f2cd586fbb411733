"""LP solver: correctness against a vertex-enumeration oracle."""
import itertools
import re

import numpy as np
import pytest

from meoflow import simplex
from meoflow.simplex import (
    FEAS_TOL,
    PIVOT_EPS,
    LpProblem,
    LpSolution,
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
        with pytest.raises(ValueError, match="^LP unbounded$"):
            solve(p)

    @pytest.mark.parametrize("coef,pivots", [(PIVOT_EPS / 2, 0), (2 * PIVOT_EPS, 1)])
    def test_pivot_eps_decides_whether_a_column_improves(self, coef, pivots):
        # maximize coef * x st x <= 1: the all-slack start is optimal unless
        # x's reduced cost beats PIVOT_EPS
        s = solve(LpProblem(np.array([coef]), [[1.0]], np.array([1.0])))
        assert s.iteration_count == pivots
        assert s.values[0] == float(pivots)

    @pytest.mark.parametrize("gap,basis,x", [(PIVOT_EPS / 2, [0, 2], 1.0 + PIVOT_EPS / 2), (2 * PIVOT_EPS, [1, 0], 1.0)])
    def test_pivot_eps_decides_whether_two_ratios_tie(self, gap, basis, x):
        # maximize x st x <= 1 + gap (slack 1), x <= 1 (slack 2): the larger
        # ratio is on the row of the smaller basis index, so it leaves only
        # when the two ratios tie within PIVOT_EPS * max(1, |best|)
        s = solve(LpProblem(np.array([1.0]), [[1.0], [1.0]], np.array([1.0 + gap, 1.0])))
        assert s.iteration_count == 1
        assert s.basis.tolist() == basis and s.values[0] == x

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
        assert s.objective_value == pytest.approx(vertex_enumeration_optimum(a, b, c), abs=1e-9)

    @pytest.mark.parametrize("cap,raises", [(0, True), (1, True), (2, False)])
    def test_cap_is_checked_before_optimality(self, cap, raises):
        # maximize x st x <= 1 is optimal after one pivot; a cap of one pivot
        # still raises, since the cap is checked before the optimality test
        p = LpProblem(np.array([1.0]), [[1.0]], np.array([1.0]))
        if raises:
            with pytest.raises(SimplexIterationError, match=f"exceeded {cap} iterations"):
                solve(p, max_iterations=cap)
        else:
            assert solve(p, max_iterations=cap).iteration_count == 1

    def test_default_caps_count_each_lps_rows_and_variables(self, monkeypatch):
        # 10 * (rows + variables), a continued solve's appended row counted;
        # the continued LP maximizes y, so it has an improving column and is batched
        seen = []
        run = simplex._run_simplex
        monkeypatch.setattr(simplex, "_run_simplex", lambda *args: seen.append(args[3].tolist()) or run(*args))
        p = box_problem([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.5], [1.0, 1.0])
        pinned = LpProblem([0.0, 1.0], np.vstack([p.matrix, [-1.0, 0.0]]), np.append(p.rhs, -0.25))
        simplex.solve_batch([p, pinned], bases=[None, solve(p)])
        simplex.solve_batch([p, p], 7)
        assert seen[1:] == [[10 * (3 + 2), 10 * (4 + 2)], [7, 7]]

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
            if q.rhs[-1] >= 0.0:
                cold_solved += 1
                expected = solve(q).objective_value
            else:
                expected = vertex_enumeration_optimum(np.vstack([a, extra]), q.rhs, c)
            assert warm.objective_value == pytest.approx(expected, abs=1e-9), f"trial {trial}"
        assert 0 < cold_solved < 40

    def test_continued_start_is_built_row_by_row_in_basis_order(self):
        # under the base's own objective, with a row the base optimum meets
        # with room to spare, the continued start is already optimal, so its
        # tableau is the start itself; a loop over the basis rebuilds it bit
        # for bit
        rng = np.random.RandomState(21)
        a, c = rng.uniform(0.1, 2.0, (5, 6)), rng.uniform(0.5, 2.0, 6)
        p = box_problem(a, rng.uniform(1.0, 5.0, 5), c)
        base = solve(p)
        extra = rng.uniform(-1.0, 1.0, 6)
        q = box_problem(np.vstack([a, extra]), np.append(p.rhs, extra @ base.values + 0.3), c)
        got = solve(q, base=base)
        assert got.iteration_count == 0
        m, width = base.tableau.shape[0] - 1, base.tableau.shape[1]
        coefs, cost = np.zeros(m + width), np.zeros(m + width)
        coefs[:6], cost[:6] = extra, -c
        basis = np.append(base.basis, m + width - 1)
        want = np.zeros((m + 2, width))
        want[:m] = base.tableau[:m]
        want[m] = np.append(coefs[base.nonbasic], q.rhs[-1])
        for i in range(m):
            if coefs[basis[i]]:
                want[m] -= coefs[basis[i]] * want[i]
        want[-1, :-1] = cost[base.nonbasic]
        for i in range(m + 1):
            if cost[basis[i]]:
                want[-1] -= cost[basis[i]] * want[i]
        assert got.tableau.tobytes() == want.tobytes()

    def test_row_that_cuts_off_the_base_optimum_is_refused(self):
        p = LpProblem(np.array([1.0]), [[1.0]], np.array([3.0]))
        q = LpProblem(np.array([1.0]), [[1.0], [1.0]], np.array([3.0, 2.0]))
        with pytest.raises(ValueError, match="cuts off"):
            solve(q, base=solve(p))

    # the base maximizes x0 + x1 with x0 <= 3 and x1 <= 3, at (3, 3); a
    # continued problem must be that LP with exactly one row appended
    @pytest.mark.parametrize(
        "rows,rhs",
        [
            ([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [3.0, 3.0, 1.0, 10.0]),  # two rows, the first cuts off
            ([[1.0, 0.0], [0.0, 1.0]], [3.0, 3.0]),  # no row appended
            ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 1.0]], [3.0, 3.0, 10.0, 5.0]),  # two rows, both met
        ],
        ids=["two_rows_first_cuts_off", "no_row", "two_rows_both_met"],
    )
    def test_problem_that_is_not_the_base_with_one_row_appended_is_refused(self, rows, rhs):
        base = solve(LpProblem(np.ones(2), np.eye(2), np.array([3.0, 3.0])))
        assert base.values.tolist() == [3.0, 3.0]
        bad = LpProblem(np.ones(2), rows, np.array(rhs))
        with pytest.raises(ValueError, match="must be its base's LP with one row appended"):
            solve(bad, base=base)
        # in a batch, the refusal is that LP's alone
        good = LpProblem(np.ones(2), [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.array([3.0, 3.0, 10.0]))
        refused, solved = simplex.solve_batch([bad, good], bases=[base, base])
        assert isinstance(refused, ValueError)
        assert_same_outcome(solved, solve(good, base=base))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("violation,accepted", [(FEAS_TOL / 2, True), (2 * FEAS_TOL, False)])
    def test_feas_tol_bounds_how_far_the_base_optimum_may_violate_the_row(self, sign, violation, accepted):
        # the base optimum is x = 1; the appended row x <= 1 - violation, or
        # x >= 1 + violation written as -x <= -(1 + violation)
        p = LpProblem(np.array([1.0]), [[1.0]], np.array([1.0]))
        q = LpProblem(np.array([1.0]), [[1.0], [sign]], np.array([1.0, sign * (1.0 - sign * violation)]))
        if accepted:
            s = solve(q, base=solve(p))
            assert s.values[0] == 1.0
            assert s.tableau[:-1, -1].min() >= 0.0  # the new row's rhs within FEAS_TOL is clamped to 0
        else:
            with pytest.raises(ValueError, match="cuts off"):
                solve(q, base=solve(p))


def assert_audit(got, error):
    """`got`, an audit's outcome, is None if `error` is, else the
    SimplexIterationError whose message matches `error`."""
    if error is None:
        assert got is None
    else:
        assert isinstance(got, SimplexIterationError) and re.search(error, str(got))


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
        assert_audit(simplex._check_residuals(p, np.array(x)), error)

    @pytest.mark.parametrize("scale", [1.0, 1e8])
    @pytest.mark.parametrize("factor,accepted", [(0.5, True), (2.0, False)])
    def test_row_tolerance_scales_with_the_terms_of_the_row(self, scale, factor, accepted):
        # t - c w <= 0 at w = 1 sums terms of size c, so the row may exceed
        # 0 by FEAS_TOL * (t + c w), about 2 * FEAS_TOL * c; at c = 3e8 that
        # is 6, where the rounding of a large capacity lands
        c = 3.0 * scale
        tol = 2 * FEAS_TOL * c
        p = LpProblem(np.zeros(2), [[1.0, -c]], np.array([0.0]))
        error = None if accepted else r"residual violation: .* <= 0\.0"
        assert_audit(simplex._check_residuals(p, np.array([c + factor * tol, 1.0])), error)


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


def beale():
    """Beale's cycling instance, degenerate at the start."""
    a = np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]])
    return box_problem(a, [0.0, 0.0, 1.0], [0.75, -150.0, 0.02, -6.0])


def mixed_batch():
    """LPs of many shapes and ends, each with its base (None for a cold solve)."""
    rng = np.random.RandomState(11)
    problems = []
    for m, n in [(6, 8), (3, 2), (9, 5), (1, 1), (12, 14), (2, 7)]:
        problems.append(box_problem(rng.uniform(0.1, 2.0, (m, n)), rng.uniform(1.0, 5.0, m), rng.uniform(-1.0, 2.0, n)))
    problems.append(beale())
    problems.append(box_problem(np.ones((4, 3)), np.ones(4), np.ones(3)))  # every ratio ties
    problems.append(LpProblem(np.array([1.0, 0.0]), [[0.0, 1.0]], np.array([1.0])))  # unbounded
    problems.append(LpProblem(np.array([1.0]), [[-1.0], [1.0]], np.array([-5.0, 3.0])))  # rhs < 0, refused
    bases = [None] * len(problems)
    # stage-2 continuations: the first appended row cuts off its base optimum
    for slack in (-0.5, 0.3, 0.3, 0.3):
        a = rng.uniform(0.1, 2.0, (5, 6))
        p = box_problem(a, rng.uniform(1.0, 5.0, 5), rng.uniform(0.5, 2.0, 6))
        base = solve(p)
        extra = rng.uniform(-1.0, 1.0, 6)
        problems.append(box_problem(np.vstack([a, extra]), np.append(p.rhs, extra @ base.values + slack), rng.uniform(-1.0, 2.0, 6)))
        bases.append(base)
    # a continuation from a base over other variables, refused
    problems.append(LpProblem(np.array([1.0, 0.0]), [[0.0, 1.0], [1.0, 1.0]], np.array([1.0, 2.0])))
    bases.append(solve(LpProblem(np.array([1.0]), [[1.0]], np.array([1.0]))))
    return problems, bases


def alone(problem, max_iterations, base):
    try:
        return solve(problem, max_iterations, base=base)
    except (ValueError, SimplexIterationError) as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert (got.objective_value, got.iteration_count) == (want.objective_value, want.iteration_count)
    for name in ("values", "tableau", "basis", "nonbasic"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if w is not None:
            # bytes, so that the sign of a zero counts
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), name


def kinds(outcomes):
    """How the outcomes end: "optimal", "unbounded", or the name of the
    exception that refused or capped an LP."""
    return {"optimal" if isinstance(o, LpSolution) else "unbounded" if str(o) == "LP unbounded" else type(o).__name__ for o in outcomes}


class TestBatch:
    # the 15 LPs in consecutive batches: all in one, one per batch, and the
    # five that pad to 12 rows and 14 columns apart from the ten that pad to
    # 6 x 7 (three of them refused before any pivot), so batch boundaries
    # fall between LPs of every shape
    @pytest.mark.parametrize("pieces", [[15], [1] * 15, [5, 10]])
    @pytest.mark.parametrize("max_iterations", [None, 3])
    def test_batch_equals_each_lp_alone(self, max_iterations, pieces):
        problems, bases = mixed_batch()
        want = [alone(p, max_iterations, b) for p, b in zip(problems, bases)]
        expected_kinds = {"optimal", "unbounded", "ValueError"}
        assert kinds(want) == expected_kinds | ({"SimplexIterationError"} if max_iterations else set())
        assert sum(pieces) == len(problems)
        got = []
        for size in pieces:
            first = len(got)
            got += simplex.solve_batch(problems[first : first + size], max_iterations, bases=bases[first : first + size])
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_outcome(g, w)

    def test_failures_leave_the_other_lps_unchanged(self):
        problems, bases = mixed_batch()
        full = simplex.solve_batch(problems, 3, bases=bases)
        kept = [i for i, o in enumerate(full) if isinstance(o, LpSolution)]
        assert 0 < len(kept) < len(problems)
        only = simplex.solve_batch([problems[i] for i in kept], 3, bases=[bases[i] for i in kept])
        for i, o in zip(kept, only):
            assert_same_outcome(full[i], o)

    def test_cold_batch_without_bases(self):
        problems = [beale(), box_problem(np.ones((4, 3)), np.ones(4), np.ones(3))]
        for g, p in zip(simplex.solve_batch(problems), problems):
            assert_same_outcome(g, solve(p))

    def test_empty_batch(self):
        assert simplex.solve_batch([]) == []


class TestStage2ThatCannotMove:
    """A stage-2 LP whose start has no improving column takes the padded
    path like every other LP and ends at the first step, with the same
    bytes."""

    @staticmethod
    def batch():
        # the stuck LP pins what its base optimum already meets and keeps its
        # objective; two cold LPs and one continued LP pivot beside it
        rng = np.random.RandomState(3)
        a = rng.uniform(0.1, 2.0, (5, 6))
        p = box_problem(a, rng.uniform(1.0, 5.0, 5), rng.uniform(0.5, 2.0, 6))
        base = solve(p)
        stuck = box_problem(np.vstack([a, -np.eye(6)[0]]), np.append(p.rhs, -base.values[0] + 0.25), p.objective)
        moving = box_problem(np.vstack([a, -np.eye(6)[0]]), np.append(p.rhs, -base.values[0] + 0.25), rng.uniform(0.5, 2.0, 6))
        problems = [beale(), stuck, p, moving]
        return problems, [None, base, None, base]

    def test_reads_out_the_padded_paths_bytes(self, monkeypatch):
        problems, bases = self.batch()
        batched = []
        run = simplex._run_simplex
        monkeypatch.setattr(simplex, "_run_simplex", lambda *args: batched.append(args[0].shape[0]) or run(*args))
        got = simplex.solve_batch(problems, bases=bases)
        assert batched == [4]  # the stuck LP is padded in with the others
        assert got[1].iteration_count == 0
        assert_same_outcome(got[1], solve(problems[1], base=bases[1]))

    def test_the_cap_comes_first(self):
        problems, bases = self.batch()
        got = simplex.solve_batch(problems, 0, bases=bases)
        assert all(isinstance(o, SimplexIterationError) and str(o) == "simplex exceeded 0 iterations" for o in got)

    def test_the_other_lps_are_unchanged(self):
        problems, bases = self.batch()
        got = simplex.solve_batch(problems, bases=bases)
        assert all(o.iteration_count > 0 for i, o in enumerate(got) if i != 1)
        for i in (0, 2, 3):
            assert_same_outcome(got[i], solve(problems[i], base=bases[i]))


def reference_solve(problem, max_iterations=None):
    """A cold solve as a plain loop over one LP's condensed tableau: Bland's
    entering and leaving rules, the solver's ratio test and tie window, and
    every row but the pivot row updated at every column.  Returns the
    SimplexIterationError of a capped solve, the ValueError of an unbounded
    one, or (pivots, tableau, basis, nonbasic, values) of an optimum."""
    (m, n), c = problem.matrix.shape, problem.objective
    t = np.zeros((m + 1, n + 1))
    t[:m, :n], t[:m, n], t[m, :n] = problem.matrix, problem.rhs, -c
    basis, nonbasic = np.arange(n, n + m), np.arange(n)
    cap = 10 * (m + n) if max_iterations is None else max_iterations
    pivots = 0
    while True:
        if pivots >= cap:
            return SimplexIterationError(f"simplex exceeded {cap} iterations")
        improving = [j for j in range(n) if t[m, j] < -PIVOT_EPS]
        if not improving:
            y = np.zeros(m + n)
            y[basis] = t[:m, n]
            return pivots, t, basis, nonbasic, y[:n]
        e = min(improving, key=lambda j: nonbasic[j])
        rows = [i for i in range(m) if t[i, e] > PIVOT_EPS]
        if not rows:
            return ValueError("LP unbounded")
        ratios = {i: t[i, n] / t[i, e] for i in rows}
        best = min(ratios.values())
        r = min((i for i in rows if ratios[i] <= best + PIVOT_EPS * max(1.0, abs(best))), key=lambda i: basis[i])
        factors = t[:, e].copy()
        # the leaving variable's column, a unit vector, takes the entering slot
        t[:, e] = 0.0
        t[r, e] = 1.0
        t[r] = t[r] / factors[r]
        for i in range(m + 1):
            if i != r:
                t[i] = t[i] - factors[i] * t[r]
        basis[r], nonbasic[e] = nonbasic[e], basis[r]
        pivots += 1


def sparse_problem(rng, m, n, plant_negative_zero=False):
    """A cold LP with a sparse A of both signs, some zero rhs (degenerate
    starts) and some zero costs (a -0.0 in the cost row); no -0.0 in A or b
    unless one is planted."""
    a = np.where(rng.rand(m, n) < 0.3, rng.uniform(-1.0, 2.0, (m, n)), 0.0)
    b = np.where(rng.rand(m) < 0.8, rng.uniform(0.0, 5.0, m), 0.0)
    c = np.where(rng.rand(n) < 0.8, rng.uniform(-1.0, 2.0, n), 0.0)
    if plant_negative_zero:
        a[rng.randint(m), rng.randint(n)] = -0.0
    return box_problem(a, b, c)


def sparse_problems(plant_negative_zero=False):
    rng = np.random.RandomState(13)
    return [sparse_problem(rng, m, n, plant_negative_zero) for m, n in [(6, 8), (12, 10), (3, 9), (20, 25), (9, 4)] * 8]


def has_negative_zero(a):
    return bool((np.signbit(a) & (a == 0.0)).any())


def assert_matches_reference(got, problem, max_iterations, exact=True):
    want = reference_solve(problem, max_iterations)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    pivots, tableau, basis, nonbasic, values = want
    assert got.iteration_count == pivots
    for name, w in [("tableau", tableau), ("basis", basis), ("nonbasic", nonbasic), ("values", values)]:
        g = getattr(got, name)
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        if exact:
            assert g.tobytes() == w.tobytes(), name
        else:
            assert np.array_equal(g, w), name


class TestReferenceKernel:
    # The batch kernel against `reference_solve`.  Without a -0.0 in A or b
    # no constraint row ever holds one, so the bytes must match, sign of
    # every zero included; with one planted, the values must.
    @pytest.mark.parametrize("max_iterations", [None, 5])
    def test_each_lp_alone_matches_the_reference(self, max_iterations):
        problems = sparse_problems()
        assert not any(has_negative_zero(p.matrix) or has_negative_zero(p.rhs) for p in problems)
        outcomes = [alone(p, max_iterations, None) for p in problems]
        assert kinds(outcomes) >= {"optimal", "unbounded"}
        for got, problem in zip(outcomes, problems):
            assert_matches_reference(got, problem, max_iterations)

    @pytest.mark.parametrize("max_iterations", [None, 5])
    def test_each_lp_in_a_mixed_batch_matches_the_reference(self, max_iterations):
        problems = sparse_problems()
        others, bases = mixed_batch()
        outcomes = simplex.solve_batch(others + problems, max_iterations, bases=bases + [None] * len(problems))
        for got, problem in zip(outcomes[len(others) :], problems):
            assert_matches_reference(got, problem, max_iterations)

    @pytest.mark.parametrize(
        "max_iterations,ends",
        [(None, {"optimal", "unbounded"}), (0, {"SimplexIterationError"}), (1, {"unbounded", "SimplexIterationError"})],
    )
    def test_lps_that_end_at_the_first_step_match_the_reference(self, max_iterations, ends):
        # cold LPs with no improving column, one cost -0.0, padded in with
        # LPs that pivot: at a cap of 1, only the LPs that end at the first
        # step are not capped
        rng = np.random.RandomState(5)
        stuck = [box_problem(rng.uniform(0.0, 2.0, (m, n)), rng.uniform(0.0, 5.0, m), -rng.uniform(0.0, 1.0, n)) for m, n in [(4, 6), (11, 3)]]
        stuck.append(box_problem(rng.uniform(0.0, 2.0, (3, 2)), [1.0, 0.0, 2.0], [-0.0, 0.0]))
        assert has_negative_zero(stuck[-1].objective)
        problems = stuck + sparse_problems()
        outcomes = simplex.solve_batch(problems, max_iterations)
        assert kinds(outcomes[len(stuck) :]) == ends
        if max_iterations != 0:
            assert all(isinstance(o, LpSolution) and o.iteration_count == 0 for o in outcomes[: len(stuck)])
        for got, problem in zip(outcomes, problems):
            assert_matches_reference(got, problem, max_iterations)

    def test_a_planted_negative_zero_leaves_the_values_equal(self):
        problems = sparse_problems(plant_negative_zero=True)
        assert all(has_negative_zero(p.matrix) for p in problems)
        for got, problem in zip(simplex.solve_batch(problems), problems):
            assert_matches_reference(got, problem, None, exact=False)


class TestChunks:
    # shape (255, 255) pads to 256 x 256 entries, a quarter of CHUNK_ENTRIES
    QUARTER = (255, 255)

    def test_items_are_read_lazily(self):
        read = []

        def items():
            for i in range(10):
                read.append(i)
                yield i

        runs = simplex.chunks(items(), lambda i: self.QUARTER)
        assert next(runs) == [0, 1, 2, 3]
        assert read == [0, 1, 2, 3, 4]  # the fifth item was read to close the run, and no more

    def test_a_run_of_exactly_chunk_entries_is_allowed(self):
        assert 4 * (self.QUARTER[0] + 1) * (self.QUARTER[1] + 1) == simplex.CHUNK_ENTRIES
        assert list(simplex.chunks(range(4), lambda i: self.QUARTER)) == [[0, 1, 2, 3]]

    def test_a_run_closes_when_the_next_item_would_overflow_it(self):
        # three quarters fit; a fourth item one row taller pads all four to
        # 257 rows, past CHUNK_ENTRIES, so it starts the next run
        shapes = [self.QUARTER] * 3 + [(256, 255), (1, 1)]
        assert list(simplex.chunks(range(5), shapes.__getitem__)) == [[0, 1, 2], [3, 4]]

    def test_an_oversize_item_is_a_run_alone(self):
        shapes = [(1, 1), (1023, 1023), (1, 1), (1, 1)]
        assert list(simplex.chunks(range(4), shapes.__getitem__)) == [[0], [1], [2, 3]]

    def test_no_items_no_runs(self):
        assert list(simplex.chunks([], lambda i: self.QUARTER)) == []
