#!/usr/bin/env python
"""Solver performance microbenchmarks -> ``BENCH_solver.json``.

Two kinds of scenario:

* ``kernels`` — per-call timings of the fused
  :class:`~repro.solvers.convex.SeparableObjective` kernels against
  their per-term loop reference (bitwise identical, property-tested) on
  one compiled P2(t) program.
* ``batched`` / ``batched-k2-parity`` — full
  :class:`~repro.core.online.RegularizedOnline` trajectories under the
  ``--backend batched`` solver layer (closed-form stars when every SLA
  component is a star, else the coupled solve; see
  docs/SOLVER_BACKENDS.md) against the ``sequential`` reference on the
  same instance, recording the residual decision gap alongside the
  speedup.  ``batched-k2-parity`` (full run only) pins the k=2
  non-star case, where the two backends are bitwise identical.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_solver.py              # full suite
    PYTHONPATH=src python benchmarks/perf/bench_solver.py --smoke      # CI-sized
    PYTHONPATH=src python benchmarks/perf/bench_solver.py --out f.json --repeats 5

``--smoke`` runs at :meth:`ExperimentScale.tiny` (3x5 clouds, 30
slots) with one repeat; the full run uses the repo's default laptop
scale (6x12 clouds, 96 slots), the scale the figure experiments run at.

The JSON is self-describing (``schema`` key); every backend scenario
records median wall time over ``--repeats`` runs, total Newton
iterations, solve count, and warm-start hit rate per backend, plus
their speedup ratio.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]


def _config_metrics(times: "list[float]", stats) -> dict:
    """Summarize one configuration's repeated runs."""
    return {
        "wall_time_s": round(statistics.median(times), 4),
        "wall_time_runs_s": [round(t, 4) for t in times],
        "newton_iters": stats.total_newton_iters,
        "solves": stats.total_solves,
        "warm_start_hit_rate": round(stats.warm_hit_rate, 4),
        "steps": stats.n_steps,
    }


# ----------------------------------------------------------------------
# Backend scenario: sequential vs batched per-slot solve strategy
# ----------------------------------------------------------------------
def bench_backend(
    name: str,
    scale,
    workload: str,
    k: int,
    epsilon: float,
    repeats: int,
) -> dict:
    """Time RegularizedOnline under the two solver backends.

    The two configurations take *different* numerical paths on a star
    graph (closed form vs the coupled barrier), so alongside wall time the scenario records the maximum
    relative decision deviation (tier-2 totals, link allocations, total
    cost) — the equivalence contract from docs/SOLVER_BACKENDS.md.
    """
    from repro.core.online import RegularizedOnline
    from repro.core.subproblem import SubproblemConfig
    from repro.evaluation.experiments import make_instance
    from repro.evaluation.runner import run_algorithm
    from repro.model.costs import evaluate_cost

    instance = make_instance(scale, workload, k=k)
    net = instance.network

    def measure(backend: str) -> "tuple[dict, object]":
        times, stats, result = [], None, None
        for _ in range(repeats):
            cfg = SubproblemConfig(epsilon=epsilon, backend=backend)
            result = run_algorithm("bench", RegularizedOnline(cfg), instance)
            times.append(result.runtime)
            stats = result.stats
        return _config_metrics(times, stats), result.trajectory

    sequential, traj_seq = measure("sequential")
    batched, traj_bat = measure("batched")

    def rel_gap(a, b):
        a, b = np.asarray(a, float), np.asarray(b, float)
        return float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))

    cost_seq = evaluate_cost(instance, traj_seq).total
    cost_bat = evaluate_cost(instance, traj_bat).total
    return {
        "name": name,
        "kind": "backend",
        "algorithm": "RegularizedOnline",
        "workload": workload,
        "scale": {
            "n_tier2": scale.n_tier2,
            "n_tier1": scale.n_tier1,
            "horizon": scale.horizon_wiki
            if workload == "wikipedia"
            else scale.horizon_worldcup,
            "k": k,
        },
        "epsilon": epsilon,
        "repeats": repeats,
        "sequential": sequential,
        "batched": batched,
        "speedup": round(
            sequential["wall_time_s"] / batched["wall_time_s"], 3
        ),
        "decision_gap": {
            "tier2_totals_rel": rel_gap(
                traj_seq.tier2_totals(net), traj_bat.tier2_totals(net)
            ),
            "link_rel": rel_gap(traj_seq.y, traj_bat.y),
            "cost_rel": abs(cost_bat - cost_seq) / (1.0 + abs(cost_seq)),
        },
    }


# ----------------------------------------------------------------------
# Kernel scenario: fused vs loop objective evaluations on one program
# ----------------------------------------------------------------------
def bench_kernels(scale, workload: str, k: int, calls: int) -> dict:
    """Per-call timings of the fused objective kernels vs the loop path."""
    from repro.core.subproblem import RegularizedSubproblem, SubproblemConfig
    from repro.evaluation.experiments import make_instance
    from repro.model.allocation import Allocation

    instance = make_instance(scale, workload, k=k)
    sub = RegularizedSubproblem(instance.network, SubproblemConfig(epsilon=1e-3))
    prog = sub.build(
        instance.workload[0],
        instance.tier2_price[0],
        instance.link_price[0],
        Allocation.zeros(instance.network.n_edges),
    )
    obj = prog.objective
    v = prog._interior_start()

    def per_call(fn) -> float:
        fn(v)  # warm up scratch buffers / allocation paths
        start = time.perf_counter()
        for _ in range(calls):
            fn(v)
        return (time.perf_counter() - start) / calls

    timings = {}
    for kernel in ("value", "grad", "hess_diag"):
        fused_t = per_call(getattr(obj, kernel))
        loop_t = per_call(getattr(obj, f"_{kernel}_loop"))
        timings[kernel] = {
            "fused_us": round(fused_t * 1e6, 2),
            "loop_us": round(loop_t * 1e6, 2),
            "speedup": round(loop_t / fused_t, 2),
        }
    return {
        "name": "kernels",
        "kind": "microbench",
        "n_vars": prog.objective.n,
        "n_entropic_terms": len(obj.entropic),
        "calls": calls,
        "kernels": timings,
    }


# ----------------------------------------------------------------------
def run(repeats: int, smoke: bool) -> dict:
    from repro.evaluation.scale import ExperimentScale

    scale = ExperimentScale.tiny() if smoke else ExperimentScale.from_env()
    repeats = 1 if smoke else repeats
    scenarios = [
        bench_kernels(scale, "wikipedia", k=2, calls=50 if smoke else 500),
        bench_backend(
            "batched", scale, "wikipedia", k=1, epsilon=1e-2, repeats=repeats
        ),
    ]
    if not smoke:
        # k=2 parity row: a non-star graph -> the batched backend runs
        # the coupled solve; speedup ~1x and the decision gaps are
        # exactly zero (the same code).
        scenarios.append(
            bench_backend(
                "batched-k2-parity", scale, "wikipedia",
                k=2, epsilon=1e-2, repeats=repeats,
            )
        )
    return {
        "schema": "repro-bench-solver/v3",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": smoke,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "scenarios": scenarios,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_solver.json",
        help="output path (default: repo-root BENCH_solver.json)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed runs per configuration; the median is reported",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny-scale single-repeat run for CI (valid JSON, no "
        "speedup threshold)",
    )
    args = parser.parse_args(argv)

    report = run(args.repeats, args.smoke)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for sc in report["scenarios"]:
        if sc["kind"] == "backend":
            gap = sc["decision_gap"]
            print(
                f"{sc['name']:8s} sequential {sc['sequential']['wall_time_s']:.3f}s"
                f" -> batched {sc['batched']['wall_time_s']:.3f}s"
                f"  ({sc['speedup']:.2f}x, decision gap X {gap['tier2_totals_rel']:.1e}"
                f" y {gap['link_rel']:.1e} cost {gap['cost_rel']:.1e})"
            )
        else:
            parts = ", ".join(
                f"{k} {t['speedup']:.1f}x" for k, t in sc["kernels"].items()
            )
            print(f"{sc['name']:8s} per-call fused vs loop: {parts}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
