"""t* against the pooled feeder bound: Σ lit c_fl / (served satellites).

Summing the epigraph rows of a slot LP gives (served satellites) · t ≤
Σ_k R_k, and each feeder edge's packing row caps what crosses it, so no
served satellite's rate can push t* past the feeder capacity pooled over
the fleet.  The bound holds in every slot of every arm.  On the bundled
scenarios the ISLs pool the feeder capacity perfectly: every ISL-arm slot
meets the bound, so a capacity change that makes an ISL bind shows here.
The no-ISL arms sit well below it (up to 35%), as does seed-0
dense_ground's ISL arm (up to 4.5%), so the equality is not trivial.
"""
import numpy as np
import pytest

from meoflow.allocation import solve_allocation, solve_block
from meoflow.topology import POLICIES, POLICY_BEST_CAPACITY

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_allocation import make_graph  # noqa: E402
from test_slot_range import engine_graphs, scenario  # noqa: E402

RTOL = 1e-12


def pooled_bound_bps(graph) -> float:
    """Σ lit c_fl over the served satellites; 0 when every satellite is isolated."""
    served = graph.satellite_count - len(graph.isolated)
    return float(graph.fl_capacity_bps.sum()) / served if served else 0.0


@st.composite
def capacities(draw):
    """(K, I) feeder and (K, K) ISL capacities, each entry zero or 1 Mbit/s to 2 Gbit/s."""
    k, i = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rate = st.just(0.0) | st.floats(1e6, 2e9)
    fl = np.array(draw(st.lists(rate, min_size=k * i, max_size=k * i))).reshape(k, i)
    isl = np.array(draw(st.lists(rate, min_size=k * k, max_size=k * k))).reshape(k, k)
    np.fill_diagonal(isl, 0.0)
    return fl, isl


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(capacities(), st.sampled_from(POLICIES))
def test_t_star_never_exceeds_the_pooled_bound_on_random_graphs(caps, policy):
    graph = make_graph(*caps, policy=policy)
    assert solve_allocation(graph).t_star_bps <= pooled_bound_bps(graph) * (1 + RTOL)


def slots(monkeypatch, name, policy, isl_enabled):
    """Each slot's graph as the engine builds it, and its allocation."""
    sc = scenario(name, policy)
    graphs = engine_graphs(monkeypatch, sc, isl_enabled)
    assert len(graphs) == sc.slot_count
    return graphs, solve_block(graphs, lexicographic=sc.lexicographic)


@pytest.mark.parametrize("isl_enabled", [True, False])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", ["o3b_rain", "o3b_clear"])
def test_bundled_scenarios_meet_the_pooled_bound_only_with_isls(monkeypatch, name, policy, isl_enabled):
    graphs, allocations = slots(monkeypatch, name, policy, isl_enabled)
    t_star = np.array([a.t_star_bps for a in allocations])
    bound = np.array([pooled_bound_bps(g) for g in graphs])
    assert (t_star <= bound * (1 + RTOL)).all()
    if isl_enabled:
        np.testing.assert_allclose(t_star, bound, rtol=RTOL, atol=0.0)
    else:
        assert (t_star < bound * (1 - 1e-3)).any()


@pytest.mark.parametrize("isl_enabled", [True, False])
def test_seed_0_dense_ground_stays_under_the_pooled_bound(monkeypatch, isl_enabled):
    graphs, allocations = slots(monkeypatch, "dense_ground", POLICY_BEST_CAPACITY, isl_enabled)
    t_star = np.array([a.t_star_bps for a in allocations])
    bound = np.array([pooled_bound_bps(g) for g in graphs])
    assert (t_star <= bound * (1 + RTOL)).all()
    assert (t_star < bound * (1 - 1e-3)).any()
