"""Warm-start correctness: the optimization must not change results."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subproblem import RegularizedSubproblem, SubproblemConfig
from repro.model import Allocation

from conftest import make_instance, make_network


class TestWarmStartEquivalence:
    def test_chain_with_and_without_warm_start_identical(self):
        net = make_network()
        inst = make_instance(net, horizon=10, seed=4)
        sub = RegularizedSubproblem(net, SubproblemConfig(epsilon=1e-2))

        prev_cold = Allocation.zeros(net.n_edges)
        prev_warm = Allocation.zeros(net.n_edges)
        warm = None
        for t in range(inst.horizon):
            prev_cold = sub.solve(
                inst.workload[t], inst.tier2_price[t], inst.link_price[t], prev_cold
            )
            prev_warm, warm = sub.solve_reduced(
                inst.workload[t],
                inst.tier2_price[t],
                inst.link_price[t],
                prev_warm,
                warm=warm,
            )
            np.testing.assert_allclose(
                prev_warm.tier2_totals(net),
                prev_cold.tier2_totals(net),
                rtol=1e-4,
                atol=1e-6,
            )
            np.testing.assert_allclose(prev_warm.y, prev_cold.y, rtol=1e-4, atol=1e-6)

    def test_stale_warm_start_rejected_gracefully(self):
        """A warm vector violating the new constraints must be ignored."""
        net = make_network()
        inst = make_instance(net, horizon=2, seed=5)
        sub = RegularizedSubproblem(net, SubproblemConfig(epsilon=1e-2))
        bogus = np.full(sub.n_vars, -5.0)  # wildly infeasible
        alloc, _ = sub.solve_reduced(
            inst.workload[0],
            inst.tier2_price[0],
            inst.link_price[0],
            Allocation.zeros(net.n_edges),
            warm=bogus,
        )
        cov = net.aggregate_tier1(alloc.s)
        assert np.all(cov >= inst.workload[0] - 1e-6)


class TestRatioTestWarmStart:
    """The warm start moves from the interior candidate toward the
    previous decision only as far as the ratio test allows."""

    def _rising_slot(self):
        net = make_network()
        inst = make_instance(net, horizon=2, seed=4)
        sub = RegularizedSubproblem(net, SubproblemConfig(epsilon=1e-2))
        prev, warm = sub.solve_reduced(
            inst.workload[0], inst.tier2_price[0], inst.link_price[0],
            Allocation.zeros(net.n_edges),
        )
        # Demand rises past what the previous decision covers.
        workload = 1.5 * inst.workload[0]
        data = (workload, inst.tier2_price[1], inst.link_price[1], prev)
        return sub, data, warm

    def test_rising_demand_still_starts_warm(self):
        from repro.engine.stats import StatsProbe

        sub, data, warm = self._rising_slot()
        prog = sub.build(*data)
        cand = sub._interior_candidate(prog, data[0])
        # The old fixed blend is not interior on this slot ...
        assert not sub._strictly_interior(prog, 0.9 * warm + 0.1 * cand)
        # ... the ratio-test start is.
        theta = sub._warm_theta(prog, warm, cand)
        assert 0.0 < theta < 0.9
        assert sub._strictly_interior(prog, cand + theta * (warm - cand))

        probe = StatsProbe()
        warmed, _ = sub.solve_reduced(*data, warm=warm, probe=probe)
        [rec] = probe.drain()
        assert rec.warm_attempted and rec.warm_used
        cold, _ = sub.solve_reduced(*data)
        net = sub.network
        np.testing.assert_allclose(
            warmed.tier2_totals(net), cold.tier2_totals(net), rtol=1e-4, atol=1e-6
        )
        np.testing.assert_allclose(warmed.y, cold.y, rtol=1e-4, atol=1e-6)

    def test_warm_vector_outside_the_box_is_rejected(self):
        sub, data, warm = self._rising_slot()
        prog = sub.build(*data)
        cand = sub._interior_candidate(prog, data[0])
        for bad in (np.full_like(warm, np.nan), warm - 1.0, warm + 1e9):
            assert sub._warm_theta(prog, bad, cand) is None


@settings(max_examples=40, deadline=None)
@given(
    fractions=st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=64
    ),
    scale=st.floats(0.5, 2.0),
)
def test_ratio_test_start_is_interior_for_in_box_warm(fractions, scale):
    """Any in-box warm vector gives 0 < theta <= 0.9 and an interior start."""
    net = make_network()
    inst = make_instance(net, horizon=1, seed=7)
    sub = RegularizedSubproblem(net, SubproblemConfig(epsilon=1e-2))
    workload = scale * inst.workload[0]
    prog = sub.build(
        workload, inst.tier2_price[0], inst.link_price[0], Allocation.zeros(net.n_edges)
    )
    cand = sub._interior_candidate(prog, workload)
    assert cand is not None
    frac = np.resize(np.asarray(fractions), sub.n_vars)
    warm = prog.lb + frac * (prog.ub - prog.lb)  # on or inside the box
    theta = sub._warm_theta(prog, warm, cand)
    assert theta is not None and 0.0 < theta <= 0.9
    assert sub._strictly_interior(prog, cand + theta * (warm - cand))
