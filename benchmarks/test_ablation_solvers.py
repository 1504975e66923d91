"""Ablation: solver backends for the regularized subproblem.

Benchmarks a single P2(t) solve with the production barrier backend vs
the trust-constr cross-check backend, and with vs without the cheap
warm-start candidate.  Justifies the defaults recorded in DESIGN.md
(barrier + warm start).
"""

import numpy as np
import pytest

from repro.core.subproblem import RegularizedSubproblem, SubproblemConfig
from repro.evaluation import ExperimentScale
from repro.evaluation.experiments import make_instance
from repro.model import Allocation
from repro.solvers import SolverOptions


@pytest.fixture(scope="module")
def slot():
    scale = ExperimentScale.from_env()
    inst = make_instance(scale, "wikipedia", k=2, recon_weight=1e3)
    net = inst.network
    t = inst.horizon // 2
    return inst, net, t


def _solve(inst, net, t, backend, warm):
    sub = RegularizedSubproblem(net, SubproblemConfig(epsilon=1e-2))
    prev = Allocation.zeros(net.n_edges)
    prog = sub.build(inst.workload[t], inst.tier2_price[t], inst.link_price[t], prev)
    v0 = sub._interior_candidate(prog, inst.workload[t]) if warm else None
    v = prog.solve(v0=v0, options=SolverOptions(backend=backend, fallback=False))
    return prog.objective.value(v)


def test_barrier_warmstart(benchmark, slot):
    inst, net, t = slot
    benchmark(lambda: _solve(inst, net, t, "barrier", True))


def test_barrier_coldstart(benchmark, slot):
    inst, net, t = slot
    benchmark(lambda: _solve(inst, net, t, "barrier", False))


def test_trust_constr(benchmark, slot):
    inst, net, t = slot
    benchmark.pedantic(
        lambda: _solve(inst, net, t, "trust-constr", True), rounds=3, iterations=1
    )


def test_backends_same_objective(slot):
    inst, net, t = slot
    fb = _solve(inst, net, t, "barrier", True)
    ft = _solve(inst, net, t, "trust-constr", True)
    assert fb == pytest.approx(ft, rel=1e-4, abs=1e-6)
