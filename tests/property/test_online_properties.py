"""Property-based end-to-end invariants of the online algorithm."""

import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from conftest import coupled_only, make_instance, make_network  # noqa: E402

from repro.core import SubproblemConfig, RegularizedOnline, theorem1_ratio  # noqa: E402
from repro.model import check_trajectory, evaluate_cost  # noqa: E402
from repro.offline import solve_offline  # noqa: E402


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 1000),
    T=st.integers(2, 8),
    epsilon=st.sampled_from([1e-3, 1e-2, 1.0]),
)
def test_online_feasible_on_random_instances(seed, T, epsilon):
    """Lemma 1 end to end: every per-slot decision is feasible for P1."""
    net = make_network(n_tier2=3, n_tier1=4, k=2)
    inst = make_instance(net, horizon=T, seed=seed)
    traj = RegularizedOnline(SubproblemConfig(epsilon=epsilon)).run(inst)
    rep = check_trajectory(inst, traj)
    assert rep.ok, rep.describe()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 1000), T=st.integers(2, 8))
def test_theorem1_bound_holds(seed, T):
    """The realized ratio never exceeds the worst-case guarantee."""
    net = make_network(n_tier2=3, n_tier1=4, k=2)
    inst = make_instance(net, horizon=T, seed=seed)
    eps = 1e-2
    on = evaluate_cost(
        inst, RegularizedOnline(SubproblemConfig(epsilon=eps)).run(inst)
    ).total
    off = solve_offline(inst).objective
    if off > 1e-9:
        assert on / off <= theorem1_ratio(net, eps) + 1e-6


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 1000))
def test_tier2_totals_never_spike_above_need(seed):
    """Totals are bounded by max(previous totals, current requirement)."""
    net = make_network(n_tier2=3, n_tier1=4, k=2)
    inst = make_instance(net, horizon=6, seed=seed)
    traj = RegularizedOnline(SubproblemConfig(epsilon=1e-2)).run(inst)
    X = traj.tier2_totals(net)
    total = X.sum(axis=1)
    demand = inst.workload.sum(axis=1)
    prev = 0.0
    for t in range(inst.horizon):
        # Aggregate allocation never exceeds what covering the current
        # demand from scratch plus the decayed past could justify.
        assert total[t] <= max(prev, demand[t]) + demand[t] + 1e-6
        prev = total[t]


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 1000),
    n_tier2=st.integers(2, 4),
    n_tier1=st.integers(2, 6),
    k=st.integers(1, 2),
    edge_capacity=st.sampled_from([2.0, 5.0]),
    util=st.floats(0.3, 0.8),
    coupled=st.booleans(),
)
def test_decisions_satisfy_the_implied_hedging_rows(
    seed, n_tier2, n_tier1, k, edge_capacity, util, coupled
):
    """(3d) and (3e) are not built into P2(t); cover, ``s <= X``,
    ``s <= y`` and the caps imply them, so every decision meets them."""
    net = make_network(
        n_tier2=n_tier2, n_tier1=n_tier1, k=k, edge_capacity=edge_capacity
    )
    # Feasible by routing lambda_j / k on each edge: peak demand stays
    # below k B per tier-1 cloud and C per tier-2 cloud.
    per_tier2 = -(-n_tier1 // n_tier2)
    peak = util * min(k * edge_capacity, 10.0 / per_tier2) / 1.04
    inst = make_instance(net, horizon=4, seed=seed, peak=peak)
    with coupled_only() if coupled else nullcontext():
        traj = RegularizedOnline(SubproblemConfig()).run(inst)
    X = traj.tier2_totals(net)
    for t in range(inst.horizon):
        lam = inst.workload[t]
        rhs_x = np.maximum(lam.sum() - net.tier2_capacity, 0.0)
        assert np.all(X[t].sum() - X[t] >= rhs_x - 1e-7 * (1.0 + rhs_x))
        y = traj.y[t]
        rhs_y = np.maximum(lam[net.edge_j] - net.edge_capacity, 0.0)
        others = net.aggregate_tier1(y)[net.edge_j] - y
        assert np.all(others >= rhs_y - 1e-7 * (1.0 + rhs_y))
