"""Tests for the P2(t) solve dispatch: closed form on star graphs,
the coupled barrier everywhere else.

The acceptance bar: the closed-form star solve
(``BatchedNewtonBackend``) is *decision-identical* to the coupled
solve — tier-2 totals, link allocations and costs agree to solver
tolerance on every golden scenario — while the cover split ``s`` may
differ (it is not unique; see the backends doc).  A graph with a
non-star SLA component never builds the closed form and decides
bitwise like a coupled-only run.  The coupled solve itself is checked
against a cold solve of the same slot and the first-order certificate.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.core import RegularizedOnline, SubproblemConfig
from repro.core.subproblem import RegularizedSubproblem
from repro.evaluation.experiments import make_instance as make_fig_instance
from repro.evaluation.scale import ExperimentScale
from repro.model import Allocation, Cloud, CloudNetwork, Instance, SLAEdge
from repro.model.costs import evaluate_cost
from repro.model.feasibility import check_trajectory
from repro.solvers.backends import BatchedNewtonBackend
from repro.solvers.barrier import P2NewtonSystem
from repro.solvers.kkt import first_order_certificate
from repro.topology.builder import build_paper_instance
from repro.topology.generate import GeoTopologyConfig, generate_topology
from repro.workloads.wikipedia import WikipediaLikeWorkload

from conftest import coupled_only, make_instance, make_network

# Decision-identity tolerances: the two solves follow different
# numerical paths to the same unique optimum of a strictly convex
# objective, so they agree to solver tolerance, not bitwise.  Chained
# over a trajectory the measured deviations are ~1e-5 (X), ~3e-3 (y).
DX_TOL = 1e-3
DY_TOL = 2e-2
DCOST_TOL = 1e-3


def rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(a)))) if a.size else 0.0


def run_both(instance, epsilon=1e-2):
    """A coupled-only run of ``instance`` and its default run."""
    algo = RegularizedOnline(SubproblemConfig(epsilon=epsilon))
    with coupled_only():
        coupled = algo.run(instance)
    return coupled, algo.run(instance)


def assert_decision_identical(instance, seq, bat):
    net = instance.network
    assert rel_gap(seq.tier2_totals(net), bat.tier2_totals(net)) < DX_TOL
    assert rel_gap(seq.y, bat.y) < DY_TOL
    ca = evaluate_cost(instance, seq).total
    cb = evaluate_cost(instance, bat).total
    assert abs(ca - cb) <= DCOST_TOL * (1.0 + abs(ca))


def star_network(n_tier1: int = 6) -> CloudNetwork:
    """All-star SLA graph (k=1): every component is closed-form."""
    return make_network(n_tier1=n_tier1, k=1)


def geo_k2_instance(n_regions: int, horizon: int):
    """``n_regions`` regions of 2 PoPs x 10 edge clouds at k=2 under a
    24-h sinusoid: one non-star SLA component per region."""
    topo = generate_topology(
        GeoTopologyConfig(
            n_regions=n_regions, tier1_per_region=10, pops_per_region=2, k=2, seed=0
        )
    )
    t = np.arange(horizon)[:, None]
    phase = np.linspace(0.0, np.pi, topo.n_tier1)[None, :]
    return topo.build_instance(10.0 * (1.5 + np.sin(2 * np.pi * t / 24 + phase)))


def assert_warm_chain_matches_cold(inst) -> None:
    """Chain warm coupled solves over ``inst``; each slot must reach the
    objective a cold solve of it reaches and pass the certificate.

    The certificate counts rows within 0.1 (relative) of their bound as
    active: warm slots stop at tau = 1e3, where the barrier's 1e-7
    relative gap on a ~1e8 objective leaves near-active rows ~2e-3 off
    their bound.  An accurate slot reads >= -1.3e-3 there; the wrongly
    accepted non-descent slot of the 6-slot 48-region chain read -4.2.
    """
    net = inst.network
    coupled = RegularizedSubproblem(net, SubproblemConfig())
    prev, warm = Allocation.zeros(net.n_edges), None
    for s in range(inst.horizon):
        args = (inst.workload[s], inst.tier2_price[s], inst.link_price[s], prev)
        alloc, v = coupled.solve_reduced(*args, warm)
        assert coupled._prog.last_info.backend == "barrier", s
        _, v_ref = RegularizedSubproblem(net, SubproblemConfig()).solve_reduced(*args)
        prog = coupled.build(*args)
        f, f_ref = prog.objective.value(v), prog.objective.value(v_ref)
        assert abs(f - f_ref) <= 1e-7 * (1.0 + abs(f_ref)), (s, f, f_ref)
        assert first_order_certificate(prog, v, active_tol=0.1) >= -1e-2, s
        prev, warm = alloc, v


def mixed_network() -> CloudNetwork:
    """One dense (non-star) component plus two star components."""
    tier2 = [
        Cloud(f"i{i}", c, b)
        for i, (c, b) in enumerate([(30.0, 2.0), (25.0, 3.0), (40.0, 1.5), (35.0, 2.5)])
    ]
    tier1 = [Cloud(f"j{j}", np.inf) for j in range(5)]
    edges = [
        SLAEdge(0, 0, 20.0, 1.0),
        SLAEdge(0, 1, 15.0, 1.2),
        SLAEdge(1, 0, 18.0, 0.8),
        SLAEdge(1, 1, 22.0, 1.1),
        SLAEdge(2, 2, 30.0, 0.9),
        SLAEdge(3, 3, 25.0, 1.3),
        SLAEdge(3, 4, 28.0, 0.7),
    ]
    return CloudNetwork(tier2, tier1, edges)


class TestDispatch:
    def test_star_graph_builds_the_closed_form(self):
        sub = RegularizedSubproblem(star_network(), SubproblemConfig())
        assert isinstance(sub._batched, BatchedNewtonBackend)

    def test_config_holds_no_solver_choice(self):
        assert [f.name for f in fields(SubproblemConfig)] == [
            "epsilon",
            "epsilon_prime",
            "backend",
        ]
        assert SubproblemConfig().backend == "batched"
        SubproblemConfig(backend="batched")  # the one accepted value

    @pytest.mark.parametrize("name", ["sequential", "typo"])
    def test_removed_backend_choice_raises(self, name):
        with pytest.raises(ValueError, match="backend choice was removed"):
            SubproblemConfig(backend=name)


class TestSequentialDispatch:
    """On a non-star graph solve_reduced is the coupled (formerly
    ``sequential``) solve, bitwise."""

    def test_dispatch_equals_coupled_solve(self, small_network):
        inst = make_instance(small_network, horizon=4, seed=2)
        via_backend = RegularizedSubproblem(small_network, SubproblemConfig())
        direct = RegularizedSubproblem(small_network, SubproblemConfig())
        prev = Allocation.zeros(small_network.n_edges)
        for t in range(inst.horizon):
            a1, v1 = via_backend.solve_reduced(
                inst.workload[t], inst.tier2_price[t], inst.link_price[t], prev
            )
            a2, v2 = direct._solve_reduced_coupled(
                inst.workload[t], inst.tier2_price[t], inst.link_price[t], prev
            )
            assert np.array_equal(v1, v2)
            assert np.array_equal(a1.x, a2.x)
            prev = a1


class TestGoldenEquivalence:
    """Closed form == coupled decisions across the fig5-fig10 regimes."""

    @pytest.mark.parametrize(
        "workload,k,recon_weight,epsilon",
        [
            # fig5: reconfiguration-weight sweep at k=1
            ("wikipedia", 1, 1e2, 1e-2),
            ("wikipedia", 1, 1e3, 1e-2),
            # fig6: epsilon sweep
            ("wikipedia", 1, 1e3, 1e-3),
            ("wikipedia", 1, 1e3, 1e-1),
            # fig7: SLA-size sweep (k=2: non-star, both runs are coupled)
            ("wikipedia", 2, 1e3, 1e-2),
            # fig8-10 regime: epsilon=1e-3 anchor + bursty workload
            ("worldcup", 1, 1e3, 1e-3),
        ],
    )
    def test_fig_scenarios(self, workload, k, recon_weight, epsilon):
        inst = make_fig_instance(
            ExperimentScale.tiny(), workload, k=k, recon_weight=recon_weight
        )
        seq, bat = run_both(inst, epsilon=epsilon)
        assert_decision_identical(inst, seq, bat)
        assert check_trajectory(inst, bat).ok

    @pytest.mark.parametrize("shape", ["mixed", "geo4"])
    def test_non_star_graphs_decide_like_sequential(self, shape):
        # A non-star component anywhere: no closed-form handle is built
        # and every slot is the coupled (formerly "sequential") solve,
        # bitwise like a coupled-only run.
        if shape == "mixed":
            inst = make_instance(mixed_network(), horizon=12, seed=4)
        else:
            inst = geo_k2_instance(n_regions=4, horizon=24)
        sub = RegularizedSubproblem(inst.network, SubproblemConfig())
        assert sub._batched is None
        seq, bat = run_both(inst)
        assert np.array_equal(seq.x, bat.x)
        assert np.array_equal(seq.y, bat.y)
        assert np.array_equal(seq.s, bat.s)

    def test_single_component_falls_back_bitwise(self, small_network):
        # k=2 ring: one non-star component -> no closed-form handle, every
        # slot is the coupled solve and the trajectories are bitwise equal.
        inst = make_instance(small_network, horizon=6, seed=5)
        seq, bat = run_both(inst)
        assert np.array_equal(seq.x, bat.x)
        assert np.array_equal(seq.y, bat.y)
        assert np.array_equal(seq.s, bat.s)

    def test_step_stats_tagged_with_backend(self):
        inst = make_instance(star_network(), horizon=5, seed=1)
        seq, bat = run_both(inst)
        assert "batched" in bat.run_stats.backends
        assert "batched" not in seq.run_stats.backends


class TestUncenteredCentering:
    """A centering that runs out of Newton steps never ends a solve."""

    def test_warm_coupled_chain_matches_cold_objective(self):
        # Warm-started at tau = 1e3, slots 1 and 2 each spend a whole
        # centering's Newton budget without centering; accepting that
        # point left f 3,415 and 178 above the optimum.
        assert_warm_chain_matches_cold(geo_k2_instance(n_regions=24, horizon=3))

    def test_paper_k2_warm_chain_matches_cold_objective(self):
        # The paper topology (18 x 48, k = 2, n = 210): warm slots start
        # from the repaired previous decision and center loosely until
        # the tau that ends the solve.
        trace = WikipediaLikeWorkload(horizon=8, seed=11).generate()
        assert_warm_chain_matches_cold(build_paper_instance(trace, k=2))


class TestSparseWorkspace:
    """Past the dense threshold the coupled solve runs the closed-form
    Newton system on the sparse workspace, not a sparse LU."""

    @pytest.mark.parametrize("horizon", [3, 6])
    def test_48_region_chain_matches_cold_objective(self, horizon):
        # Horizon 3: the sparse LU this replaced was singular and ended
        # slots 1 and 2 4.0e-3 and 1.3e-3 (relative) above the optimum.
        # Horizon 6 (other prices): at tau = 2e4 the warm slot 2 met a
        # Newton direction with decrement^2 -1.0e11 (capacitance
        # condition ~1.8e21), read it as centered and ended 1.3e-3
        # above the optimum; it now restarts cold.  No fallback was
        # recorded either time.
        inst = geo_k2_instance(n_regions=48, horizon=horizon)
        sub = RegularizedSubproblem(inst.network, SubproblemConfig())
        sub.solve_reduced(
            inst.workload[0],
            inst.tier2_price[0],
            inst.link_price[0],
            Allocation.zeros(inst.network.n_edges),
        )
        assert not sub._prog._barrier_ws.dense
        assert sub._prog.last_info.newton_system == "structured"
        assert_warm_chain_matches_cold(inst)

    def test_48_region_run_matches_block_newton_cost(self, monkeypatch):
        from repro.obs import metrics

        # Force one non-descent step: the first Newton direction of
        # slot 2's warm solve comes back negated, so that solve must
        # restart cold and still reach the optimum.
        slots, flipped = [], []
        coupled = RegularizedSubproblem._solve_reduced_coupled
        newton = P2NewtonSystem.solve

        def counted(self, *args, **kwargs):
            slots.append(args[0])
            return coupled(self, *args, **kwargs)

        def negated_once(self, *args):
            dv = newton(self, *args)
            if len(slots) == 3 and not flipped:
                flipped.append(True)
                return -dv
            return dv

        monkeypatch.setattr(RegularizedSubproblem, "_solve_reduced_coupled", counted)
        monkeypatch.setattr(P2NewtonSystem, "solve", negated_once)
        inst = geo_k2_instance(n_regions=48, horizon=6)
        with metrics.use() as reg:
            traj = RegularizedOnline(SubproblemConfig()).run(inst)
        assert flipped
        outcomes = {
            e["labels"]["outcome"]: e["value"]
            for e in reg.snapshot()["metrics"]
            if e["name"] == "subproblem_warm_starts_total"
        }
        assert outcomes.get("restart", 0) >= 1
        # No slot went to trust-constr.
        assert traj.run_stats.backends == ("barrier",)
        cost = evaluate_cost(inst, traj).total
        # 580.27M is what the (since deleted) batched block-Newton path
        # reached; a non-descent slot accepted as centered made it 591.63M.
        assert abs(cost - 580_273_527.7) <= DCOST_TOL * 580_273_527.7, cost


class TestObservability:
    def test_fast_path_counters(self):
        from repro.obs import metrics

        inst = make_instance(star_network(), horizon=5, seed=1)
        with metrics.use() as reg:
            RegularizedOnline(SubproblemConfig()).run(inst)
        values = {
            (e["name"], e["labels"].get("reason")): e.get("value")
            for e in reg.snapshot()["metrics"]
        }
        assert values[("backend_slots_total", None)] == 5
        assert values[("backend_fast_path_hits_total", None)] > 0
        # Pure star network: no fallbacks.
        assert not any(
            name == "backend_sequential_fallbacks_total" for name, _ in values
        )

    def test_fallback_counter_records_reason(self):
        from repro.obs import metrics

        # A tier-2 cloud with no reconfiguration price is free in slot 1:
        # the closed form is degenerate there, so that slot alone goes
        # through the coupled solve.
        net = make_network(k=1, tier2_recon=0.0)
        base = make_instance(net, horizon=3, seed=5)
        tier2_price = base.tier2_price.copy()
        tier2_price[1, 0] = 0.0
        inst = Instance(net, base.workload, tier2_price, base.link_price)
        with metrics.use() as reg:
            traj = RegularizedOnline(SubproblemConfig()).run(inst)
        assert check_trajectory(inst, traj).ok
        counters = {
            (e["name"], e["labels"].get("reason")): e["value"]
            for e in reg.snapshot()["metrics"]
            if e["name"].startswith("backend_")
        }
        fallback = ("backend_sequential_fallbacks_total", "degenerate_tier2_objective")
        assert counters[fallback] == 1
        assert counters[("backend_slots_total", None)] == 2

    def test_warm_start_counters_and_render(self, small_network):
        from repro.evaluation.reporting import render_metrics
        from repro.obs import metrics

        inst = make_instance(small_network, horizon=6, seed=5)
        with metrics.use() as reg:
            RegularizedOnline(SubproblemConfig()).run(inst)
        snap = reg.snapshot()
        by_outcome = {
            e["labels"]["outcome"]: e["value"]
            for e in snap["metrics"]
            if e["name"] == "subproblem_warm_starts_total"
        }
        # Slot 0 is a cold start; every later slot attempts the warm seed.
        assert by_outcome.get("cold") == 1
        assert by_outcome.get("hit", 0) + by_outcome.get("miss", 0) == 5
        text = render_metrics(snap)
        assert "warm-start hit rate" in text
        assert "cold starts: 1" in text

    def test_render_metrics_without_warm_counters(self):
        from repro.evaluation.reporting import render_metrics
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("other_total", help="x").inc()
        assert "warm-start hit rate" not in render_metrics(reg.snapshot())


class TestKKTCertificates:
    def test_block_certificates_near_zero_at_optimum(self):
        # One certificate per independently solved program (block).
        for seed in (0, 1):
            net = star_network(n_tier1=4)
            inst = make_instance(net, horizon=2, seed=seed)
            sub = RegularizedSubproblem(net, SubproblemConfig())
            args = (inst.workload[0], inst.tier2_price[0], inst.link_price[0])
            prev = Allocation.zeros(net.n_edges)
            _, v = sub.solve_reduced(*args, prev)
            assert first_order_certificate(sub.build(*args, prev), v) > -1e-5


class TestServeWithBatchedBackend:
    """Serve runtime on the closed form: resume is bitwise, and carries
    and event logs that still record a solver backend keep working."""

    BATCHED = SubproblemConfig(epsilon=1e-2)

    def make_star_instance(self):
        return make_instance(star_network(), horizon=10, seed=5)

    def test_kill_and_resume_bitwise_under_faults(self, tmp_path):
        from repro.serve import FaultInjector, ServeConfig, ServeLoop

        inst = self.make_star_instance()
        injector = FaultInjector(stall_prob=0.25, fail_prob=0.15, seed=9)
        full = ServeLoop(
            RegularizedOnline(self.BATCHED), inst, ServeConfig(injector=injector)
        ).run()
        assert full.summary["fallbacks"] > 0  # the seed produces faults
        path = tmp_path / "ck.npz"
        ServeLoop(
            RegularizedOnline(self.BATCHED),
            inst,
            ServeConfig(
                injector=injector,
                checkpoint_path=path,
                checkpoint_every=1,
                max_slots=4,
            ),
        ).run()
        resumed = ServeLoop.resume(
            RegularizedOnline(self.BATCHED),
            inst,
            path,
            config=ServeConfig(injector=injector),
        ).run()
        assert np.array_equal(resumed.trajectory.x, full.trajectory.x)
        assert np.array_equal(resumed.trajectory.y, full.trajectory.y)
        assert np.array_equal(resumed.trajectory.s, full.trajectory.s)
        assert resumed.paths == full.paths

    @pytest.mark.parametrize("recorded", ["sequential", "batched"])
    def test_resume_ignores_recorded_backend(self, tmp_path, monkeypatch, recorded):
        # Earlier versions wrote the solver backend into every carry's
        # controller snapshot; such a carry resumes, on a non-star graph
        # bitwise like an uninterrupted run.
        from repro.serve import ServeConfig, ServeLoop
        from repro.serve.checkpoint import load_checkpoint

        inst = make_instance(mixed_network(), horizon=10, seed=5)
        path = tmp_path / "ck.npz"
        export = RegularizedOnline.export_state
        with monkeypatch.context() as m:
            m.setattr(
                RegularizedOnline,
                "export_state",
                lambda self, state: {**export(self, state), "backend": recorded},
            )
            ServeLoop(
                RegularizedOnline(SubproblemConfig()),
                inst,
                ServeConfig(checkpoint_path=path, checkpoint_every=1, max_slots=3),
            ).run()
        assert load_checkpoint(path)["controller"]["backend"] == recorded
        resumed = ServeLoop.resume(
            RegularizedOnline(SubproblemConfig()), inst, path
        ).run()
        full = ServeLoop(RegularizedOnline(SubproblemConfig()), inst).run()
        for field in ("x", "y", "s"):
            assert getattr(resumed.trajectory, field).tobytes() == (
                getattr(full.trajectory, field).tobytes()
            )

    def test_replay_renders_a_log_with_a_backend_field(self, tmp_path, capsys):
        # serve_start events of earlier versions carry the solver backend.
        import json

        from repro.cli import main
        from repro.serve import EventLog, ServeConfig, ServeLoop

        inst = self.make_star_instance()
        log = EventLog()
        ServeLoop(
            RegularizedOnline(self.BATCHED), inst, ServeConfig(max_slots=2), log
        ).run()
        start = next(e for e in log.events if e["event"] == "serve_start")
        assert "backend" not in start
        start["backend"] = "sequential"
        path = tmp_path / "old.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in log.events))
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "slots" in out and "path:primary" in out


class TestParallelSweeps:
    """Configs survive process-pool pickling."""

    def test_fig5_jobs_rows_identical_to_serial_under_batched(self):
        from repro.evaluation.experiments import fig5_cost_no_prediction

        kwargs = dict(
            scale=ExperimentScale.tiny(),
            recon_weights=(1e2, 1e3),
        )
        serial = fig5_cost_no_prediction(jobs=None, **kwargs)
        parallel = fig5_cost_no_prediction(jobs=2, **kwargs)
        assert serial.rows == parallel.rows

    def test_point_payload_carries_full_config(self):
        from repro.evaluation.experiments import fig5_cost_no_prediction, _fig5_point
        import pickle

        # The worker payload must round-trip the whole config through pickle.
        config = SubproblemConfig(epsilon=1e-2, epsilon_prime=0.5)
        args = (ExperimentScale.tiny(), "wikipedia", 1e2, config, 1)
        restored = pickle.loads(pickle.dumps(args))
        assert restored[3] == config
