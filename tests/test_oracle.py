"""Both LP stages of every slot, in both arms, against an independent solver (HiGHS).

The scenarios are o3b_rain under both serving policies, as bundled and
with ISLs of 20 Mbit/s, which bind, and o3b_clear and toy3 under their
own.  Seed-0 dense_ground, the benchmark's 12-satellite,
32-gateway workload, is checked in its no-ISL arm; it turns the
lexicographic stage off, so only its stage 1 is.  The oracle LPs are
built from the `LpProblem` matrix only, so they share the model with the
built-in simplex but none of its arithmetic: stage 1 is the max-min LP,
stage 2 maximizes the total rate, each direct column priced at its
feeder capacity and each relayed one at 1, with the pin
-t <= -(t* - LEXICO_SLACK) appended.
"""
import dataclasses
import json

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")

from meoflow import engine  # noqa: E402
from meoflow.allocation import LEXICO_SLACK, SCALE_BPS, build_problem  # noqa: E402
from meoflow.scenario import parse_scenario  # noqa: E402
from meoflow.simplex import LpProblem  # noqa: E402
from meoflow.topology import POLICY_BEST_CAPACITY, POLICY_LP_FRACTIONAL  # noqa: E402
from test_slot_range import ROOT, bundled, perfbench_scenarios, wrapper_graph  # noqa: E402


def highs(problem: LpProblem, objective: np.ndarray):
    """max objective . x subject to matrix . x <= rhs and x >= 0, as HiGHS solves it.

    Returns scipy's OptimizeResult, whose `fun` is the minimized -objective.
    """
    return optimize.linprog(-objective, A_ub=problem.matrix, b_ub=problem.rhs, bounds=(0, None), method="highs")


def highs_optimum(problem: LpProblem, objective: np.ndarray) -> float:
    res = highs(problem, objective)
    assert res.status == 0, res.message
    return -res.fun


@pytest.mark.parametrize("policy", [POLICY_BEST_CAPACITY, POLICY_LP_FRACTIONAL])
def test_both_stages_match_highs_on_every_o3b_rain_slot(policy):
    check_both_stages_against_highs("o3b_rain", policy, True)


@pytest.mark.parametrize("policy", [POLICY_BEST_CAPACITY, POLICY_LP_FRACTIONAL])
def test_both_stages_match_highs_on_every_o3b_rain_no_isl_slot(policy):
    check_both_stages_against_highs("o3b_rain", policy, False)


@pytest.mark.parametrize("name", ["o3b_clear", "toy3"])
@pytest.mark.parametrize("isl_enabled", [True, False])
def test_both_stages_match_highs_on_every_slot_of_the_bundled_scenario(name, isl_enabled):
    check_both_stages_against_highs(name, POLICY_BEST_CAPACITY, isl_enabled)


@pytest.mark.parametrize("policy, under_bound", [(POLICY_BEST_CAPACITY, 31), (POLICY_LP_FRACTIONAL, 288)])
def test_both_stages_match_highs_on_every_o3b_rain_slot_of_both_arms_with_20_mbit_isls(policy, under_bound):
    # at 20 Mbit/s the ISLs bind: the ISL arm's t* falls under the feeder
    # capacity pooled over the served satellites, which it meets in every
    # bundled slot, and its stage 2 pivots through the padded batch; it still
    # beats the no-ISL arm in every slot
    isl = {"fixed_capacity_override_bps": 20e6}
    scenario, result, graphs = check_both_stages_against_highs("o3b_rain", policy, True, isl=isl)
    _, baseline, _ = check_both_stages_against_highs("o3b_rain", policy, False, isl=isl)
    pooled = np.array([g.fl_capacity_bps.sum() / (g.satellite_count - len(g.isolated)) for g in graphs])
    assert (result.t_star_bps < pooled * (1 - 1e-9)).sum() == under_bound
    stage1 = engine.run(dataclasses.replace(scenario, lexicographic=False), isl_enabled=True).iterations
    assert (result.iterations > stage1).any()
    assert (result.t_star_bps > baseline.t_star_bps).all()


def test_stage1_matches_highs_on_every_slot_of_seed_0_dense_ground_without_isl():
    scenario = parse_scenario(json.loads(perfbench_scenarios.generate("dense_ground", 0, ROOT)), name="dense_ground")
    result = engine.run(scenario, isl_enabled=False)
    graphs = slot_graphs(scenario, False)
    assert not scenario.lexicographic and len(graphs) == result.slot_count
    for slot, graph in enumerate(graphs):
        problem = build_problem(graph)
        t_star = highs_optimum(problem, problem.objective)
        assert result.t_star_bps[slot] / SCALE_BPS == pytest.approx(t_star, rel=1e-6)


def test_no_isl_arm_matches_highs_on_every_o3b_rain_slot_at_minus_70_dbw():
    # every feeder capacity is under 1e-3 bit/s: in Mbit/s the solve stopped
    # at t* = 0 in all 288 slots.  HiGHS solves each slot scaled by 2**40, an
    # exact scaling into the range where the LP unit is 1 Mbit/s
    data = bundled("o3b_rain")
    data["feeder_link"] = {"eirp_dbw": -70.0}
    scenario = parse_scenario(data, name="o3b_rain")
    result = engine.run(scenario, isl_enabled=False)
    graphs = slot_graphs(scenario, False)
    assert len(graphs) == result.slot_count == 288 and (result.t_star_bps > 0.0).all()
    for slot, graph in enumerate(graphs):
        problem = build_problem(dataclasses.replace(graph, fl_capacity_bps=graph.fl_capacity_bps * 2.0**40))
        t_star = highs_optimum(problem, problem.objective) * SCALE_BPS / 2.0**40
        assert result.t_star_bps[slot] == pytest.approx(t_star, rel=1e-12)


def slot_graphs(scenario, isl_enabled):
    """Each slot's graph, built as engine.run builds it (a spy on the solve
    would miss the slots that worker processes solve)."""
    return [wrapper_graph(scenario, slot, isl_enabled) for slot in range(scenario.slot_count)]


def check_both_stages_against_highs(name, policy, isl_enabled, **sections):
    """Check every slot's two stages against HiGHS; the bundled scenario's
    top-level `sections` are replaced first.  Returns the scenario, the
    engine's RunResult and the slot graphs."""
    data = bundled(name)
    scenario = dataclasses.replace(parse_scenario({**data, **sections}, name=name), serving_policy=policy)
    result = engine.run(scenario, isl_enabled=isl_enabled)
    graphs = slot_graphs(scenario, isl_enabled)
    assert scenario.lexicographic and len(graphs) == result.slot_count

    for slot, graph in enumerate(graphs):
        problem = build_problem(graph)
        t_star = highs_optimum(problem, problem.objective)
        assert result.t_star_bps[slot] / SCALE_BPS == pytest.approx(t_star, rel=1e-6)

        pin = np.zeros(problem.n_variables)
        pin[0] = -1.0  # t
        pinned = dataclasses.replace(
            problem,
            matrix=np.vstack([problem.matrix, pin]),
            rhs=np.append(problem.rhs, -(t_star - LEXICO_SLACK)),
        )
        fl = graph.fl_capacity_bps / SCALE_BPS
        total_rate = np.array(
            [fl[tag[1:]] if tag[0] == "w_direct" else float(tag[0] == "r") for tag in problem.variable_tags]
        )
        refined_total = highs_optimum(pinned, total_rate)
        assert result.rates_bps[slot].sum() / SCALE_BPS == pytest.approx(refined_total, rel=1e-6)
    return scenario, result, graphs
