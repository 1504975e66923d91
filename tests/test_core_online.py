"""Tests for the regularized online algorithm (end-to-end behaviour)."""

import numpy as np
import pytest

from repro.core import SubproblemConfig, RegularizedOnline, single_online_decay
from repro.core.single import SingleResourceProblem
from repro.model import Allocation, check_trajectory, evaluate_cost
from repro.offline import solve_offline

from conftest import make_instance, make_network


class TestFeasibility:
    def test_every_slot_feasible(self, small_instance):
        traj = RegularizedOnline(SubproblemConfig(epsilon=1e-2)).run(small_instance)
        rep = check_trajectory(small_instance, traj)
        assert rep.ok, rep.describe()

    def test_feasible_across_epsilons(self, small_instance):
        for eps in (1e-3, 1e-1, 10.0):
            traj = RegularizedOnline(SubproblemConfig(epsilon=eps)).run(small_instance)
            assert check_trajectory(small_instance, traj).ok

    def test_initial_state_respected(self, small_instance):
        net = small_instance.network
        init = Allocation(
            np.full(net.n_edges, 0.5),
            np.full(net.n_edges, 0.5),
            np.zeros(net.n_edges),
        )
        traj = RegularizedOnline().run(small_instance, initial=init)
        assert check_trajectory(small_instance, traj).ok


class TestAgainstOffline:
    def test_cost_at_least_offline(self, small_instance):
        on = RegularizedOnline(SubproblemConfig(epsilon=1e-2)).run(small_instance)
        off = solve_offline(small_instance)
        assert evaluate_cost(small_instance, on).total >= off.objective - 1e-6

    def test_ratio_reasonable_on_small_instance(self, small_instance):
        on = RegularizedOnline(SubproblemConfig(epsilon=1e-2)).run(small_instance)
        off = solve_offline(small_instance)
        ratio = evaluate_cost(small_instance, on).total / off.objective
        assert ratio < 3.0  # the paper's empirical envelope


class TestScalarEquivalence:
    def test_matches_closed_form_on_single_edge(self, single_edge_instance):
        """On a 1x1 network with free links, P2(t) reduces to eq. (4)-(6)."""
        inst = single_edge_instance
        traj = RegularizedOnline(SubproblemConfig(epsilon=0.05)).run(inst)
        X = traj.tier2_totals(inst.network)[:, 0]

        prob = SingleResourceProblem(
            inst.workload[:, 0],
            inst.tier2_price[:, 0],
            capacity=inst.network.tier2_capacity[0],
            recon_price=inst.network.tier2_recon_price[0],
        )
        x_closed = single_online_decay(prob, epsilon=0.05)
        np.testing.assert_allclose(X, x_closed, rtol=1e-4, atol=1e-5)


class TestDecayBehaviour:
    def test_workload_following_on_the_way_up(self, small_network):
        """Rising demand: allocation tracks the workload exactly."""
        T = 6
        lam = np.linspace(0.5, 4.0, T)[:, None] * np.ones((1, small_network.n_tier1))
        from repro.model import Instance

        inst = Instance(
            small_network,
            lam,
            np.ones((T, small_network.n_tier2)),
            0.1 * np.ones((T, small_network.n_edges)),
        )
        traj = RegularizedOnline(SubproblemConfig(epsilon=1e-2)).run(inst)
        cov = inst.network.aggregate_tier1(traj.s)
        np.testing.assert_allclose(cov, lam, rtol=1e-4, atol=1e-4)

    def test_exponential_release_on_the_way_down(self, small_network):
        """Falling demand: totals decay geometrically, not instantly."""
        from repro.model import Instance

        T = 8
        lam = np.zeros((T, small_network.n_tier1))
        lam[0, :] = 4.0
        lam[1:, :] = 0.01
        inst = Instance(
            small_network,
            lam,
            np.ones((T, small_network.n_tier2)),
            0.1 * np.ones((T, small_network.n_edges)),
        )
        traj = RegularizedOnline(SubproblemConfig(epsilon=1e-2)).run(inst)
        total = traj.tier2_totals(inst.network).sum(axis=1)
        # Strictly decreasing but never an instant cliff to the floor.
        assert np.all(np.diff(total) < 1e-9)
        assert total[1] > 0.3 * total[0]

    def test_lower_epsilon_decays_faster(self, small_network):
        """Decay factor (1 + C/eps)^(-a/b) shrinks as eps -> 0."""
        from repro.model import Instance

        T = 6
        lam = np.zeros((T, small_network.n_tier1))
        lam[0, :] = 4.0
        lam[1:, :] = 0.01
        inst = Instance(
            small_network,
            lam,
            np.ones((T, small_network.n_tier2)),
            0.1 * np.ones((T, small_network.n_edges)),
        )
        slow = RegularizedOnline(SubproblemConfig(epsilon=10.0)).run(inst)
        fast = RegularizedOnline(SubproblemConfig(epsilon=1e-3)).run(inst)
        s_tot = slow.tier2_totals(inst.network).sum(axis=1)
        f_tot = fast.tier2_totals(inst.network).sum(axis=1)
        assert f_tot[-1] < s_tot[-1]


class TestBackends:
    def test_barrier_and_trust_constr_agree_end_to_end(self, small_instance):
        """Chain P2(t) over six slots once per convex-solver backend."""
        from repro.core.subproblem import RegularizedSubproblem
        from repro.model import Trajectory
        from repro.solvers import SolverOptions

        short = small_instance.slice(0, 6)
        net = short.network
        costs = []
        for options in (
            SolverOptions(backend="barrier", fallback=False),
            SolverOptions(backend="trust-constr"),
        ):
            sub = RegularizedSubproblem(net, SubproblemConfig(epsilon=1e-2))
            prev, steps = Allocation.zeros(net.n_edges), []
            for t in range(short.horizon):
                lam = short.workload[t]
                prog = sub.build(lam, short.tier2_price[t], short.link_price[t], prev)
                prev = sub.split(prog.solve(options=options), lam)
                steps.append(prev)
            costs.append(evaluate_cost(short, Trajectory.from_steps(steps)).total)
        assert costs[0] == pytest.approx(costs[1], rel=1e-3)


class TestStepAPI:
    def test_step_matches_run_first_slot(self, small_instance):
        """The public single-step API agrees with the run loop."""
        algo = RegularizedOnline(SubproblemConfig(epsilon=1e-2))
        sub = algo.make_subproblem(small_instance)
        prev = Allocation.zeros(small_instance.network.n_edges)
        stepped = algo.step(sub, small_instance, 0, prev)
        full = algo.run(small_instance)
        np.testing.assert_allclose(
            stepped.tier2_totals(small_instance.network),
            full.tier2_totals(small_instance.network)[0],
            rtol=1e-5,
            atol=1e-7,
        )
