"""Property-based equivalence of the two P2(t) solves.

The core invariants of the closed-form star solve: on a star network
it yields the same decision as the coupled solve, and a network with a
non-star component never builds the closed form and decides bitwise
like a coupled-only run — on randomly generated networks, workloads
and prices.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from conftest import coupled_only  # noqa: E402

from repro.core import SubproblemConfig  # noqa: E402
from repro.core.subproblem import RegularizedSubproblem  # noqa: E402
from repro.model import Allocation, Cloud, CloudNetwork, SLAEdge  # noqa: E402


def random_star(rng: np.random.Generator, n_tier1: int) -> CloudNetwork:
    """One tier-2 cloud serving ``n_tier1`` tier-1 clouds (a star)."""
    cap = float(rng.uniform(5.0, 20.0))
    tier2 = [Cloud("i0", cap, float(rng.uniform(0.5, 30.0)))]
    tier1 = [Cloud(f"j{j}", np.inf) for j in range(n_tier1)]
    edges = [
        SLAEdge(0, j, float(rng.uniform(3.0, 12.0)), float(rng.uniform(0.5, 20.0)))
        for j in range(n_tier1)
    ]
    return CloudNetwork(tier2, tier1, edges)


def random_dense(rng: np.random.Generator, n_tier1: int) -> CloudNetwork:
    """Two tier-2 clouds both serving every tier-1 cloud (one dense,
    non-star component), plus one star component."""
    tier2 = [
        Cloud(f"i{i}", float(rng.uniform(8.0, 25.0)), float(rng.uniform(0.5, 30.0)))
        for i in range(3)
    ]
    tier1 = [Cloud(f"j{j}", np.inf) for j in range(n_tier1 + 1)]
    edges = [
        SLAEdge(i, j, float(rng.uniform(3.0, 12.0)), float(rng.uniform(0.5, 20.0)))
        for j in range(n_tier1)
        for i in (0, 1)
    ]
    edges.append(
        SLAEdge(2, n_tier1, float(rng.uniform(3.0, 12.0)), float(rng.uniform(0.5, 20.0)))
    )
    return CloudNetwork(tier2, tier1, edges)


def random_slot(rng: np.random.Generator, net: CloudNetwork):
    # Small enough that every random network is strictly feasible
    # (edge caps >= 3, tier-2 caps >= 5, at most 7 tier-1 clouds).
    lam = rng.uniform(0.05, 0.5, net.n_tier1)
    tier2_price = rng.uniform(0.1, 3.0, net.n_tier2)
    link_price = rng.uniform(0.05, 1.0, net.n_edges)
    prev_s = rng.uniform(0.0, 1.0, net.n_edges) * np.minimum(net.edge_capacity, 2.0)
    prev = Allocation(prev_s.copy(), np.minimum(prev_s * 1.2, net.edge_capacity), prev_s)
    return lam, tier2_price, link_price, prev


def solve_both(net: CloudNetwork, rng: np.random.Generator):
    """One slot solved coupled-only, then by the default dispatch."""
    slot = random_slot(rng, net)
    with coupled_only():
        coupled = RegularizedSubproblem(net, SubproblemConfig())
    default = RegularizedSubproblem(net, SubproblemConfig())
    return [sub.solve_reduced(*slot) for sub in (coupled, default)]


def assert_same_decision(net: CloudNetwork, seq: Allocation, bat: Allocation):
    totals_seq = np.zeros(net.n_tier2)
    totals_bat = np.zeros(net.n_tier2)
    np.add.at(totals_seq, net.edge_i, seq.x)
    np.add.at(totals_bat, net.edge_i, bat.x)
    np.testing.assert_allclose(totals_bat, totals_seq, rtol=1e-3, atol=1e-4)
    np.testing.assert_allclose(bat.y, seq.y, rtol=2e-2, atol=1e-3)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n_tier1=st.integers(1, 6))
def test_single_star_batch_equals_unbatched(seed, n_tier1):
    rng = np.random.default_rng(seed)
    net = random_star(rng, n_tier1)
    (seq, _), (bat, _) = solve_both(net, rng)
    assert_same_decision(net, seq, bat)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n_tier1=st.integers(2, 4))
def test_single_dense_block_batch_equals_unbatched(seed, n_tier1):
    rng = np.random.default_rng(seed)
    net = random_dense(rng, n_tier1)
    sub = RegularizedSubproblem(net, SubproblemConfig())
    assert sub._batched is None
    (_, v_seq), (_, v_bat) = solve_both(net, rng)
    assert np.array_equal(v_seq, v_bat)
