"""Both LP stages of every o3b_rain slot, in both arms, against an independent solver (HiGHS).

The oracle LPs are built from the `LpProblem` rows only, so they share the
model with the built-in simplex but none of its arithmetic: stage 1 is the
max-min LP, stage 2 maximizes the sum of the rate columns with the pin
t >= t* - LEXICO_SLACK appended.
"""
import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")

from meoflow import engine  # noqa: E402
from meoflow.allocation import LEXICO_SLACK, SCALE_BPS, build_problem  # noqa: E402
from meoflow.scenario import parse_scenario  # noqa: E402
from meoflow.simplex import EQ, GE, LE, LpProblem  # noqa: E402
from meoflow.topology import POLICY_BEST_CAPACITY, POLICY_LP_FRACTIONAL  # noqa: E402


def highs(problem: LpProblem, objective: np.ndarray):
    """max objective . x over the problem's rows and bounds, as HiGHS solves it.

    Returns scipy's OptimizeResult, whose `fun` is the minimized -objective.
    """
    n = problem.n_variables
    dense = np.zeros((len(problem.rows), n))
    for i, row in enumerate(problem.rows):
        for j, coef in row.items():
            dense[i, j] = coef
    senses = np.array(problem.senses)
    sign = np.where(senses == GE, -1.0, 1.0)
    ub = senses != EQ
    assert set(problem.senses) <= {LE, GE, EQ}
    return optimize.linprog(
        -objective,
        A_ub=(dense * sign[:, None])[ub],
        b_ub=(problem.rhs * sign)[ub],
        A_eq=dense[~ub],
        b_eq=problem.rhs[~ub],
        bounds=problem.bounds,
        method="highs",
    )


def highs_optimum(problem: LpProblem, objective: np.ndarray) -> float:
    res = highs(problem, objective)
    assert res.status == 0, res.message
    return -res.fun


@pytest.mark.parametrize("policy", [POLICY_BEST_CAPACITY, POLICY_LP_FRACTIONAL])
def test_both_stages_match_highs_on_every_o3b_rain_slot(policy, monkeypatch):
    check_both_stages_against_highs(policy, True, monkeypatch)


@pytest.mark.parametrize("policy", [POLICY_BEST_CAPACITY, POLICY_LP_FRACTIONAL])
def test_both_stages_match_highs_on_every_o3b_rain_no_isl_slot(policy, monkeypatch):
    check_both_stages_against_highs(policy, False, monkeypatch)


def check_both_stages_against_highs(policy, isl_enabled, monkeypatch):
    ref = resources.files("meoflow") / "scenarios" / "o3b_rain.json"
    scenario = dataclasses.replace(
        parse_scenario(json.loads(ref.read_text()), name="o3b_rain"), serving_policy=policy
    )
    graphs = []
    solve_allocation = engine.solve_allocation

    def keep_graph(graph, lexicographic=True):
        graphs.append(graph)
        return solve_allocation(graph, lexicographic)

    monkeypatch.setattr(engine, "solve_allocation", keep_graph)
    result = engine.run(scenario, isl_enabled=isl_enabled)
    assert scenario.lexicographic and len(graphs) == result.slot_count

    for slot, graph in enumerate(graphs):
        problem = build_problem(graph)
        t_col = problem.column(("t",))
        t_star = highs_optimum(problem, problem.objective)
        assert result.t_star_bps[slot] / SCALE_BPS == pytest.approx(t_star, rel=1e-6)

        pinned = dataclasses.replace(
            problem,
            rows=problem.rows + [{t_col: 1.0}],
            senses=problem.senses + [GE],
            rhs=np.append(problem.rhs, t_star - LEXICO_SLACK),
        )
        total_rate = np.array([tag[0] == "rate" for tag in problem.variable_tags], dtype=float)
        refined_total = highs_optimum(pinned, total_rate)
        assert result.rates_bps[slot].sum() / SCALE_BPS == pytest.approx(refined_total, rel=1e-6)
