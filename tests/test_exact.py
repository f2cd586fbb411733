"""The simplex's final bases of both LP stages, certified in exact arithmetic.

A sample of slots of o3b_rain and o3b_clear, in both arms: every 12th
slot, and slots 56, 61, 148 and 241.  Each slot's stage-1 LP and its
stage-2 LP, pinned at the stage-1 optimum, are solved as the allocator
solves them (one `solve_batch` per stage, stage 2 continued from stage 1),
and `exact.certify` checks each final basis with no tolerance.
"""
import dataclasses

import pytest

from exact import certify
from meoflow.allocation import _pinned, build_problem
from meoflow.scenario import parse_scenario
from meoflow.simplex import solve, solve_batch
from test_slot_range import bundled, wrapper_graph

SLOTS = sorted({*range(0, 288, 12), 56, 61, 148, 241})


def stages(name, isl_enabled):
    """The (problem, solution) pairs of both stages of each sampled slot."""
    scenario = parse_scenario(bundled(name), name=name)
    assert scenario.lexicographic and scenario.slot_count == 288
    problems = [build_problem(wrapper_graph(scenario, slot, isl_enabled)) for slot in SLOTS]
    first = solve_batch(problems)
    refined = [_pinned(problem, solution.objective_value) for problem, solution in zip(problems, first)]
    return list(zip(problems, first)), list(zip(refined, solve_batch(refined, bases=first)))


@pytest.mark.parametrize("isl_enabled", [True, False], ids=["isl", "no_isl"])
@pytest.mark.parametrize("name", ["o3b_rain", "o3b_clear"])
def test_final_bases_of_both_stages_are_exactly_optimal(name, isl_enabled):
    for stage, pairs in enumerate(stages(name, isl_enabled), start=1):
        for slot, (problem, solution) in zip(SLOTS, pairs):
            failure, objective = certify(problem, solution.basis)
            assert failure is None, (slot, stage, failure)
            assert abs(solution.objective_value - objective) <= 1e-14 * max(1, abs(objective)), (slot, stage)


def test_the_all_slack_start_basis_is_refused():
    problem = build_problem(wrapper_graph(parse_scenario(bundled("o3b_rain"), name="o3b_rain"), 56, True))
    m, n = problem.matrix.shape
    assert problem.objective[0] == 1.0  # t
    failure, objective = certify(problem, range(n, n + m))
    assert failure == "dual infeasible: reduced cost of column 0 is -1.0" and objective == 0


def test_an_optimal_basis_is_refused_once_its_rhs_is_edited():
    problem = build_problem(wrapper_graph(parse_scenario(bundled("o3b_rain"), name="o3b_rain"), 56, True))
    solution = solve(problem)
    failure, objective = certify(problem, solution.basis)
    assert failure is None and objective > 0 and 0 in solution.basis  # t is basic
    # b negated: x_B = B^-1 b changes sign, so t* turns negative
    failure, edited = certify(dataclasses.replace(problem, rhs=-problem.rhs), solution.basis)
    assert failure.startswith("primal infeasible: basic variable ") and edited == -objective
