"""Targeted tests for barrier-solver internals."""

import numpy as np
import pytest
import scipy.linalg as la

import repro.solvers.barrier as barrier_mod
from repro.core.subproblem import RegularizedSubproblem, SubproblemConfig
from repro.model import Allocation, Cloud, CloudNetwork, SLAEdge
from repro.obs import metrics as obs_metrics
from repro.topology.builder import build_paper_instance
from repro.workloads.wikipedia import WikipediaLikeWorkload
from repro.solvers import (
    ConvexSolverError,
    SeparableObjective,
    SmoothConvexProgram,
    SolverOptions,
)
from repro.solvers.barrier import _Workspace, barrier_solve
from repro.solvers.convex import EntropicTerm

from conftest import coupled_only, make_instance, make_network


def covering_program(n=5):
    obj = SeparableObjective(
        n,
        np.linspace(1.0, 2.0, n),
        [EntropicTerm(np.arange(n), 1.0, 0.1, np.zeros(n))],
    )
    A = -np.ones((1, n))
    b = np.array([-1.0])
    return SmoothConvexProgram(obj, A, b, np.zeros(n), np.full(n, 2.0))


class TestWorkspace:
    def test_dense_selected_for_small_problems(self):
        ws = _Workspace(covering_program())
        assert ws.dense
        assert isinstance(ws.A, np.ndarray)

    def test_sparse_path_matches_dense(self, monkeypatch):
        """Force the sparse code path and compare optima."""
        prog = covering_program()
        v_dense = barrier_solve(prog)
        monkeypatch.setattr(barrier_mod, "_DENSE_NNZ_THRESHOLD", 0)
        v_sparse = barrier_solve(prog)
        assert prog.objective.value(v_sparse) == pytest.approx(
            prog.objective.value(v_dense), rel=1e-6
        )

    def test_phi_infinite_outside_interior(self):
        prog = covering_program()
        ws = _Workspace(prog)
        outside = np.full(prog.objective.n, -1.0)
        assert ws.phi(outside, 1.0) == np.inf

    def test_max_step_keeps_interior(self):
        prog = covering_program()
        ws = _Workspace(prog)
        v = np.full(prog.objective.n, 0.5)
        dv = np.full(prog.objective.n, 10.0)  # toward the upper bounds
        step = ws.max_step(v, dv)
        assert np.isfinite(ws.phi(v + step * dv, 1.0))


class TestBarrierSolve:
    def test_unconstrained_program_rejected(self):
        obj = SeparableObjective(2, np.ones(2))
        prog = SmoothConvexProgram(
            obj, None, None, np.full(2, -np.inf), np.full(2, np.inf)
        )
        with pytest.raises(ConvexSolverError, match="at least one constraint"):
            barrier_solve(prog)

    def test_noninterior_warm_start_falls_back_to_phase1(self):
        prog = covering_program()
        bad_v0 = np.zeros(prog.objective.n)  # on the lower bounds
        v = barrier_solve(prog, v0=bad_v0)
        assert prog.residual(v) <= 1e-8

    def test_centering_out_of_steps_never_ends_the_solve(self, monkeypatch):
        # No Newton steps at all: no centering completes, so no point is
        # returned, and the path still ends, in an error the caller
        # falls back on.
        monkeypatch.setattr(barrier_mod, "_MAX_NEWTON", 0)
        with pytest.raises(ConvexSolverError, match="did not center"):
            barrier_solve(covering_program())

    def test_box_only_program(self):
        """No general constraints: pure box-constrained minimization."""
        n = 3
        obj = SeparableObjective(
            n,
            np.array([1.0, -1.0, 0.5]),
            [EntropicTerm(np.arange(n), 2.0, 0.2, np.full(n, 0.5))],
        )
        prog = SmoothConvexProgram(obj, None, None, np.zeros(n), np.ones(n))
        v = barrier_solve(prog)
        vt = prog._solve_trust_constr(None)
        assert obj.value(v) == pytest.approx(obj.value(vt), rel=1e-5, abs=1e-7)


class TestFallback:
    def test_solve_falls_back_when_barrier_fails(self, monkeypatch):
        """A barrier failure must transparently use trust-constr."""
        prog = covering_program()

        def boom(*args, **kwargs):
            raise ConvexSolverError("injected failure")

        monkeypatch.setattr(barrier_mod, "barrier_solve", boom)
        v = prog.solve(options=SolverOptions(backend="barrier", fallback=True))
        assert prog.residual(v) <= 1e-6

    def test_no_fallback_propagates(self, monkeypatch):
        prog = covering_program()

        def boom(*args, **kwargs):
            raise ConvexSolverError("injected failure")

        monkeypatch.setattr(barrier_mod, "barrier_solve", boom)
        with pytest.raises(ConvexSolverError, match="injected"):
            prog.solve(options=SolverOptions(backend="barrier", fallback=False))


# ----------------------------------------------------------------------
# Structured (block + low-rank) Newton system
# ----------------------------------------------------------------------


def _paper(k, n_tier2=None, n_tier1=None, horizon=6):
    trace = WikipediaLikeWorkload(horizon=horizon, seed=11).generate()
    return build_paper_instance(trace, k=k, n_tier2=n_tier2, n_tier1=n_tier1)


def _unequal_degree_instance():
    """Tier-1 degrees 1, 2 and 3: blocks of width 2, 4, 6 padded to 6."""
    tier2 = [Cloud(f"i{i}", 12.0, 20.0) for i in range(3)]
    tier1 = [Cloud(f"j{j}", np.inf) for j in range(3)]
    edges = [SLAEdge(i, j, 7.0, 12.0) for j in range(3) for i in range(j + 1)]
    net = CloudNetwork(tier2, tier1, edges)
    return make_instance(net, horizon=6, seed=2)


def _capture_structured_steps(monkeypatch, inst, slots=4):
    """Run the slot chain with the structured path forced on and capture
    each closed-form Newton system (inputs + direction) right after the
    solve that produced it."""
    monkeypatch.setattr(barrier_mod, "_STRUCTURED_MIN_VARS", 0)
    captured = []
    original = barrier_mod.P2NewtonSystem.solve

    def spy(self, hdiag, grad, inv2, fact_out):
        dv = original(self, hdiag, grad, inv2, fact_out)
        captured.append((hdiag.copy(), grad.copy(), inv2.copy(), dv.copy()))
        return dv

    monkeypatch.setattr(barrier_mod.P2NewtonSystem, "solve", spy)
    sub = RegularizedSubproblem(inst.network, SubproblemConfig())
    prev, warm = Allocation.zeros(inst.network.n_edges), None
    for t in range(slots):
        prev, warm = sub.solve_reduced(
            inst.workload[t], inst.tier2_price[t], inst.link_price[t], prev, warm
        )
    A = sub._prog.A.toarray()  # the rows are the same every slot
    return [(A, *step) for step in captured]


def _dense_direction(A, hdiag, grad, inv2):
    """The Newton matrix and the dense path's direction for it."""
    H = A.T @ (A * inv2[:, None])
    H[np.diag_indices_from(H)] += hdiag
    H_reg = H.copy()
    d = np.diag(H)
    H_reg[np.diag_indices_from(H)] = d + 1e-13 * (1.0 + np.abs(d))
    return la.cho_solve(la.cho_factor(H_reg), -grad), H


def _layout_matrix(system):
    """Dense ``A`` of the row layout P2NewtonSystem assumes."""
    n_i, n_j, n_e = system.n_i, system.n_j, system.n_e
    A = np.zeros((system.m, system.n))
    e = np.arange(n_e)
    A[e, n_i + e] = -1.0
    A[e, n_i + n_e + e] = 1.0
    A[n_e + system.edge_j, n_i + n_e + e] = -1.0
    A[n_e + n_j + system.edge_i, n_i + n_e + e] = 1.0
    A[n_e + n_j + np.arange(n_i), np.arange(n_i)] = -1.0
    return A


class TestStructuredNewtonDirection:
    """The closed-form direction solves the dense Newton system.

    The comparison is normwise in the Newton equation,
    ``|H (d_s - d_d)| <= 1e-9 (|H| |d_d| + |grad|)``: along real paths the
    barrier Hessian's condition number reaches ~1e16 near active rows,
    where no two double-precision solvers agree entry by entry (the dense
    direction itself then differs from an extended-precision solve by up
    to ~10 %), while both still solve the same equation to ~1e-10.
    """

    TOL = 1e-9

    def _check(self, captured):
        assert captured, "structured path never ran"
        worst = 0.0
        for A, hdiag, grad, inv2, d_s in captured:
            d_d, H = _dense_direction(A, hdiag, grad, inv2)
            scale = np.abs(H).sum(axis=1).max() * np.abs(d_d).max() + np.abs(grad).max()
            gap = np.abs(H @ (d_s - d_d)).max() / scale
            worst = max(worst, gap)
        assert worst <= self.TOL, worst

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_paper_topology(self, monkeypatch, k):
        # k = 1 is all stars: force the coupled solve the closed form skips.
        with coupled_only():
            self._check(_capture_structured_steps(monkeypatch, _paper(k), slots=3))

    def test_unequal_tier1_degrees(self, monkeypatch):
        self._check(_capture_structured_steps(monkeypatch, _unequal_degree_instance()))

    def test_program_without_hedge_rows(self, monkeypatch):
        inst = make_instance(make_network(n_tier2=4, n_tier1=8), horizon=6, seed=3)
        self._check(_capture_structured_steps(monkeypatch, inst))

    def test_clouds_without_edges(self):
        """A tier-1 cloud without SLA edges has an empty cover row and a
        tier-2 cloud without edges an ``s <= X`` row on X alone; neither
        may disturb the rank-one or capacitance steps."""
        # Tier-1 cloud 2 and tier-2 cloud 3 have no edges.
        edge_i = np.array([0, 1, 1, 2, 0])
        edge_j = np.array([0, 0, 1, 1, 3])
        system = barrier_mod.P2NewtonSystem(4, 4, edge_i, edge_j)
        A = _layout_matrix(system)
        rng = np.random.default_rng(5)
        captured = []
        for scale in (1e-6, 1.0, 1e6):
            hdiag = rng.uniform(0.1, 10.0, system.n)
            inv2 = scale * rng.uniform(0.1, 10.0, system.m)
            grad = rng.normal(size=system.n)
            d_s = system.solve(hdiag, grad, inv2, None)
            captured.append((A, hdiag, grad, inv2, d_s))
        self._check(captured)

    @pytest.mark.parametrize("spread,applies", [(0.0, 1), (16.0, 2)])
    def test_refinement_only_when_the_residual_asks(self, monkeypatch, spread, applies):
        """A well-scaled system is solved once; row weights spanning 16
        decades leave a residual above ``_REFINE_TOL`` and take the
        refinement step.  Both directions solve the Newton equation."""
        edge_i = np.array([0, 1, 1, 2, 0])
        edge_j = np.array([0, 0, 1, 1, 3])
        system = barrier_mod.P2NewtonSystem(4, 4, edge_i, edge_j)
        rng = np.random.default_rng(0)
        hdiag = rng.uniform(0.1, 10.0, system.n)
        inv2 = 10.0 ** rng.uniform(-spread / 2, spread / 2, system.m)
        grad = rng.normal(size=system.n)
        calls = []
        original = barrier_mod.P2NewtonSystem._apply

        def counting(self, factors, f):
            calls.append(f)
            return original(self, factors, f)

        monkeypatch.setattr(barrier_mod.P2NewtonSystem, "_apply", counting)
        d_s = system.solve(hdiag, grad, inv2, None)
        assert len(calls) == applies
        self._check([(_layout_matrix(system), hdiag, grad, inv2, d_s)])

    def test_row_layout_on_paper_k2(self):
        """The subproblem builds exactly the rows the system assumes."""
        inst = _paper(2)
        sub = RegularizedSubproblem(inst.network, SubproblemConfig())
        prog = sub.build(
            inst.workload[0], inst.tier2_price[0], inst.link_price[0],
            Allocation.zeros(inst.network.n_edges),
        )
        assert _Workspace(prog).system is prog.structure
        assert prog.A.shape == (96 + 48 + 18, 210)
        np.testing.assert_array_equal(prog.A.toarray(), _layout_matrix(prog.structure))
        rng = np.random.default_rng(0)
        v, w = rng.normal(size=210), rng.normal(size=prog.A.shape[0])
        np.testing.assert_allclose(prog.structure.matvec(v), prog.A @ v, atol=1e-12)
        np.testing.assert_allclose(prog.structure.rmatvec(w), prog.A.T @ w, atol=1e-12)


class TestShapeGate:
    def test_small_programs_stay_dense(self):
        inst = _paper(2, n_tier2=6, n_tier1=12)
        sub = RegularizedSubproblem(inst.network, SubproblemConfig())
        prog = sub.build(
            inst.workload[0], inst.tier2_price[0], inst.link_price[0],
            Allocation.zeros(inst.network.n_edges),
        )
        assert prog.objective.n < barrier_mod._STRUCTURED_MIN_VARS
        assert _Workspace(prog).system is None
        prog.solve()
        assert prog.last_info.newton_system == "dense"

    def test_programs_without_structure_stay_dense(self):
        prog = covering_program(n=400)
        assert _Workspace(prog).system is None

    def test_sparse_workspace_uses_the_structure_at_any_size(self, monkeypatch):
        inst = _paper(2, n_tier2=6, n_tier1=12)
        sub = RegularizedSubproblem(inst.network, SubproblemConfig())
        prog = sub.build(
            inst.workload[0], inst.tier2_price[0], inst.link_price[0],
            Allocation.zeros(inst.network.n_edges),
        )
        monkeypatch.setattr(barrier_mod, "_DENSE_NNZ_THRESHOLD", 0)
        ws = barrier_mod._workspace(prog)
        assert not ws.dense and ws.system is prog.structure


class TestStructuredFallback:
    """A step whose capacitance Cholesky fails goes dense."""

    def test_non_spd_capacitance_takes_the_dense_step(self, monkeypatch):
        inst = _paper(2)
        sub = RegularizedSubproblem(inst.network, SubproblemConfig())
        data = (inst.workload[0], inst.tier2_price[0], inst.link_price[0],
                Allocation.zeros(inst.network.n_edges))
        reference, _ = sub.solve_reduced(*data)
        system = sub.build(*data).structure
        potrf = system._potrf
        calls = {"n": 0}

        def indefinite_every_other(C, **kwargs):
            calls["n"] += 1
            if calls["n"] % 2:
                C[0, 0] = -1.0
            return potrf(C, **kwargs)

        monkeypatch.setattr(system, "_potrf", indefinite_every_other)
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use(registry):
            alloc, v = sub.solve_reduced(*data)
        prog = sub.build(*data)
        assert prog.last_info.newton_system == "structured"
        assert prog.last_info.backend == "barrier" and not prog.last_info.fallback
        assert prog.residual(v) <= 1e-9
        np.testing.assert_allclose(alloc.y, reference.y, rtol=1e-4, atol=1e-6)
        dense_steps = {
            entry["labels"]["reason"]: entry["value"]
            for entry in registry.snapshot()["metrics"]
            if entry["name"] == "solver_newton_dense_steps_total"
        }
        assert set(dense_steps) == {"capacitance_not_spd"}
        assert dense_steps["capacitance_not_spd"] > 0


class TestNewtonSystemObservability:
    def test_solve_info_and_span_name_the_newton_system(self):
        from repro.obs import tracing as obs_tracing

        inst = _paper(2)
        sub = RegularizedSubproblem(inst.network, SubproblemConfig())
        data = (inst.workload[0], inst.tier2_price[0], inst.link_price[0],
                Allocation.zeros(inst.network.n_edges))
        registry = obs_metrics.MetricsRegistry()
        tracer = obs_tracing.Tracer()
        with obs_metrics.use(registry), obs_tracing.use(tracer):
            sub.solve_reduced(*data)
        prog = sub.build(*data)
        assert prog.last_info.newton_system == "structured"
        assert prog.last_info.fact_time_s > 0.0
        [span] = [s for s in tracer.spans if s["name"] == "barrier.solve"]
        assert span["attrs"]["newton_system"] == "structured"
        names = {entry["name"] for entry in registry.snapshot()["metrics"]}
        assert "solver_factorization_seconds" in names
        # No step needed the dense factorization on this slot.
        assert "solver_newton_dense_steps_total" not in names


def _slot(inst, t, prev):
    return (inst.workload[t], inst.tier2_price[t], inst.link_price[t], prev)


class TestLooseCentering:
    """Centerings whose tau cannot end the solve stop at decrement^2 <=
    ``_CENTER_DEC_SQ``; the final tau and its tight centering are those
    of the all-tight schedule (``_CENTER_DEC_SQ = 0``)."""

    def test_lower_bound_is_below_the_optimum(self):
        inst = _paper(2)
        sub = RegularizedSubproblem(inst.network, SubproblemConfig())
        prog = sub.build(*_slot(inst, 0, Allocation.zeros(inst.network.n_edges)))
        v = prog.solve()
        f_lo = prog.objective.lower_bound(prog.lb, prog.ub)
        assert np.isfinite(f_lo) and f_lo <= prog.objective.value(v)

    def test_infinite_bound_gives_minus_infinity(self):
        n = 3
        obj = SeparableObjective(
            n, np.array([1.0, 0.0, -1.0]),
            [EntropicTerm(np.arange(n), 1.0, 0.1, np.ones(n))],
        )
        with np.errstate(all="raise"):
            assert obj.lower_bound(np.full(n, -np.inf), np.full(n, 2.0)) == -np.inf
            assert obj.lower_bound(np.zeros(n), np.full(n, np.inf)) == -np.inf
            # The zero-cost variable contributes 0, not nan, on an open box.
            lo = obj.lower_bound(np.array([0.0, -np.inf, 0.0]), np.array([np.inf, np.inf, 2.0]))
        assert lo == pytest.approx(-2.0 - 3.0)

    def test_paper_k2_warm_chain_ends_at_the_tight_schedule_tau(self, monkeypatch):
        inst = _paper(2, horizon=8)
        net = inst.network
        sub = RegularizedSubproblem(net, SubproblemConfig())
        prev, warm = Allocation.zeros(net.n_edges), None
        loose_iters = tight_iters = 0
        for t in range(inst.horizon):
            args = _slot(inst, t, prev)
            # The same slot from the same start, every centering tight.
            with monkeypatch.context() as m:
                m.setattr(barrier_mod, "_CENTER_DEC_SQ", 0.0)
                tight = RegularizedSubproblem(net, SubproblemConfig())
                tight.solve_reduced(*args, warm)
                tight_info = tight._prog.last_info
            alloc, v = sub.solve_reduced(*args, warm)
            info = sub._prog.last_info
            assert info.backend == "barrier" and info.tau > 0.0, t
            assert info.tau == tight_info.tau, (t, info.tau, tight_info.tau)
            loose_iters += info.newton_iters
            tight_iters += tight_info.newton_iters
            prev, warm = alloc, v
        assert loose_iters < tight_iters

    def test_golden_instance_solves_end_at_the_tight_schedule_tau(self, monkeypatch):
        from repro.core import RegularizedOnline
        from repro.obs import tracing as obs_tracing

        inst = make_instance(make_network(), horizon=10, seed=7)

        def final_taus():
            tracer = obs_tracing.Tracer()
            with obs_tracing.use(tracer):
                RegularizedOnline(SubproblemConfig(epsilon=1e-2)).run(inst)
            return [s["attrs"]["tau"] for s in tracer.spans if s["name"] == "barrier.solve"]

        loose = final_taus()
        monkeypatch.setattr(barrier_mod, "_CENTER_DEC_SQ", 0.0)
        assert len(loose) == inst.horizon
        assert loose == final_taus()


class TestStallAcceptance:
    """A line-search stall is accepted only from near the center."""

    def test_stall_far_from_center_restarts_and_falls_back(self, monkeypatch):
        # With every Armijo trial rejected the warm solve of slot 2 stalls
        # on its first Newton step, decrement^2 far above
        # _CENTER_DEC_SQ; accepting it ended 0.4 % above the optimum.
        from repro.obs import metrics

        inst = _paper(2)
        net = inst.network
        sub = RegularizedSubproblem(net, SubproblemConfig())
        prev, warm = Allocation.zeros(net.n_edges), None
        for t in range(2):
            prev, warm = sub.solve_reduced(*_slot(inst, t, prev), warm)
        args = _slot(inst, 2, prev)
        _, v_cold = RegularizedSubproblem(net, SubproblemConfig()).solve_reduced(*args)
        monkeypatch.setattr(barrier_mod, "_ARMIJO_ALPHA", 1e300)
        with metrics.use() as reg:
            _, v = sub.solve_reduced(*args, warm)
        info = sub._prog.last_info
        assert info.fallback and info.backend == "trust-constr"
        counts = {
            (e["name"], e["labels"].get("outcome")): e.get("value")
            for e in reg.snapshot()["metrics"]
        }
        assert counts[("subproblem_warm_starts_total", "restart")] == 1
        assert counts[("solver_solves_total", "stalled")] == 2
        prog = sub.build(*args)
        f, f_cold = prog.objective.value(v), prog.objective.value(v_cold)
        assert abs(f - f_cold) <= 1e-6 * abs(f_cold), (f, f_cold)
