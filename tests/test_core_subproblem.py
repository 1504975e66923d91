"""Tests for the regularized subproblem P2(t)."""

import numpy as np
import pytest

from repro.core.subproblem import RegularizedSubproblem, SubproblemConfig
from repro.model import Allocation
from repro.solvers import SolverOptions, first_order_certificate

from conftest import make_instance, make_network


@pytest.fixture
def sub_setup():
    net = make_network()
    inst = make_instance(net)
    sub = RegularizedSubproblem(net, SubproblemConfig(epsilon=1e-2))
    return net, inst, sub


class TestConfig:
    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            SubproblemConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SubproblemConfig(epsilon=1.0, epsilon_prime=-1.0)

    def test_eps2_defaults_to_epsilon(self):
        assert SubproblemConfig(epsilon=0.5).eps2 == 0.5
        assert SubproblemConfig(epsilon=0.5, epsilon_prime=0.1).eps2 == 0.1


class TestBuild:
    def test_eta_matches_definition(self, sub_setup):
        net, _, sub = sub_setup
        np.testing.assert_allclose(
            sub.eta_tier2, np.log(1.0 + net.tier2_capacity / 1e-2)
        )
        np.testing.assert_allclose(
            sub.eta_link, np.log(1.0 + net.edge_capacity / 1e-2)
        )

    def test_solution_satisfies_slot_constraints(self, sub_setup):
        net, inst, sub = sub_setup
        prev = Allocation.zeros(net.n_edges)
        alloc = sub.solve(inst.workload[0], inst.tier2_price[0], inst.link_price[0], prev)
        # Lemma 1: feasible for P1 at t.
        assert np.all(alloc.x >= alloc.s - 1e-8)
        assert np.all(alloc.y >= alloc.s - 1e-8)
        cov = net.aggregate_tier1(alloc.s)
        assert np.all(cov >= inst.workload[0] - 1e-6)
        assert np.all(alloc.tier2_totals(net) <= net.tier2_capacity + 1e-6)
        assert np.all(alloc.y <= net.edge_capacity + 1e-8)

    def test_solution_is_stationary(self, sub_setup):
        net, inst, sub = sub_setup
        prev = Allocation.zeros(net.n_edges)
        prog = sub.build(inst.workload[0], inst.tier2_price[0], inst.link_price[0], prev)
        v = prog.solve(v0=sub._interior_candidate(prog, inst.workload[0]))
        assert first_order_certificate(prog, v, active_tol=1e-4) >= -1e-4

    def test_never_decreases_below_decay(self, sub_setup):
        """Tier-2 totals never drop instantly to zero when demand does."""
        net, inst, sub = sub_setup
        lam_hi = inst.workload[0] * 2.0
        lam_lo = np.full(net.n_tier1, 1e-4)
        prev = sub.solve(lam_hi, inst.tier2_price[0], inst.link_price[0],
                         Allocation.zeros(net.n_edges))
        X_hi = prev.tier2_totals(net)
        cur = sub.solve(lam_lo, inst.tier2_price[1], inst.link_price[1], prev)
        X_lo = cur.tier2_totals(net)
        served = X_hi > 1e-6
        assert np.all(X_lo[served] > 1e-3)  # exponential decay, not a cliff
        assert np.all(X_lo <= X_hi + 1e-8)  # and no spurious growth

    def test_hedging_forces_background_allocation(self):
        """(3d) holds through cover plus caps: other clouds hold overflow."""
        net = make_network(n_tier2=2, n_tier1=2, k=2, tier2_capacity=3.0,
                           edge_capacity=3.0)
        lam = np.array([2.0, 2.0])  # Lambda = 4 > C_i = 3
        a = np.array([1.0, 100.0])  # cloud 1 is expensive
        c = np.zeros(net.n_edges)
        prev = Allocation.zeros(net.n_edges)
        sub = RegularizedSubproblem(net, SubproblemConfig(epsilon=1e-2))
        X = sub.solve(lam, a, c, prev).tier2_totals(net)
        # sum_{k != 0} X_k >= Lambda - C_0 = 1 even though cloud 1 is
        # expensive.
        assert X[1] >= 1.0 - 1e-6

    def test_split_preserves_totals(self, sub_setup):
        net, inst, sub = sub_setup
        prev = Allocation.zeros(net.n_edges)
        prog = sub.build(inst.workload[0], inst.tier2_price[0], inst.link_price[0], prev)
        v = prog.solve(v0=sub._interior_candidate(prog, inst.workload[0]))
        alloc = sub.split(v, inst.workload[0])
        np.testing.assert_allclose(
            alloc.tier2_totals(net), v[sub.sl_X], atol=1e-8
        )
        np.testing.assert_allclose(alloc.y, np.maximum(v[sub.sl_y], 0), atol=1e-12)


class TestWarmStart:
    def test_interior_candidate_is_strictly_interior(self, sub_setup):
        net, inst, sub = sub_setup
        prev = Allocation.zeros(net.n_edges)
        prog = sub.build(inst.workload[0], inst.tier2_price[0], inst.link_price[0], prev)
        v0 = sub._interior_candidate(prog, inst.workload[0])
        assert v0 is not None
        assert prog.residual(v0) < 0
        slack = prog.b - prog.A @ v0
        assert slack.min() > 0

    def test_candidate_none_when_too_tight(self):
        """Workload at the capacity envelope leaves no strict interior."""
        net = make_network(tier2_capacity=2.0, edge_capacity=1.0)
        sub = RegularizedSubproblem(net, SubproblemConfig(epsilon=1e-2))
        lam = np.full(net.n_tier1, 2.0)  # equals total link capacity per cloud
        prog = sub.build(lam, np.ones(net.n_tier2), np.ones(net.n_edges),
                         Allocation.zeros(net.n_edges))
        assert sub._interior_candidate(prog, lam) is None
