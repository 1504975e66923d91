"""One benchmark episode, run by ``perfbench/run.py`` in a fresh process.

An episode generates the workload's inputs from the seed, builds the
topology and instance, serves every slot through a closed-loop
``ServeLoop`` (the source hands over slot t+1 only after slot t's
decision is published) with the metrics registry enabled, checks the
outputs, and prints one JSON line.

    python3 -m perfbench.episode --workload corpus-k1 --seed 1 \
        --horizon 8000 [--variant K] [--restart-at N] [--trace] \
        [--setup-only] [--expect-fingerprint HEX]

Exit codes: 0 done (the JSON's ``feasible``, ``within_theorem1``,
``bitwise_resume`` and ``failed`` fields carry the output checks), 3 the
generated inputs do not match ``--expect-fingerprint``.  A durable
episode keeps its checkpoint, event log and telemetry sinks under
``.perfbench/`` in the checkout and deletes them when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from perfbench import inputs, spans, stats

from repro.core import RegularizedOnline
from repro.core.competitive import theorem1_ratio
from repro.core.subproblem import SubproblemConfig
from repro.model.allocation import Trajectory
from repro.model.costs import evaluate_cost
from repro.model.feasibility import check_trajectory
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry as obs_telemetry
from repro.obs.health import HealthMonitor
from repro.serve import EventLog, InstanceSource, ServeConfig, ServeLoop
from repro.topology.builder import PaperTopologyBuilder
from repro.topology.generate import GeoTopologyConfig, generate_topology

ROOT = Path(__file__).resolve().parent.parent

#: Scratch files of durable episodes and written span traces.
WORK_DIR = ROOT / ".perfbench"


def check_fingerprint(actual: str, expected: "str | None") -> None:
    """Exit with code 3 when the generated inputs are not the recorded ones."""
    if expected is not None and actual != expected:
        print(
            f"input fingerprint {actual} != recorded {expected}: the seed no "
            "longer generates the inputs the benchmark was calibrated on",
            file=sys.stderr,
        )
        raise SystemExit(3)


def build_instance(workload: str, seed: int, arrays: dict, variant: int = 0):
    """The program's topology + ``Instance`` from the generated arrays."""
    if workload == "paper-k2":
        # The paper's fixed site and price setup; the seed varies the trace.
        return PaperTopologyBuilder(k=2).build(arrays["trace"][variant])
    topo = generate_topology(
        GeoTopologyConfig(
            n_regions=inputs.N_REGIONS,
            tier1_per_region=inputs.EDGES_PER_REGION,
            pops_per_region=1,
            k=1,
            seed=seed,
        )
    )
    return topo.build_instance(
        arrays["workload"],
        tier2_price=arrays["tier2_price"],
        link_price=arrays["link_price"],
    )


def controller() -> RegularizedOnline:
    return RegularizedOnline(SubproblemConfig(backend="batched"))


class Episode:
    """State of one served horizon; ``run`` fills it in."""

    def __init__(self, args) -> None:
        self.args = args
        self.durable = args.workload == "durable-k1"
        self.recorder = spans.SpanRecorder() if args.trace else None
        self.stamps: "list[float]" = []
        self.t_loop = 0.0
        self.reports: list = []
        self.logs: "list[EventLog]" = []
        self.workdir = WORK_DIR / f"episode-{args.workload}-{os.getpid()}"

    def on_slot(self, loop, outcome) -> None:
        self.stamps.append(time.perf_counter())
        if self.recorder is not None:
            self.recorder.slot = outcome.t + 1
        if self.args.setup_only:
            raise _SetupDone

    def serve(self, instance) -> None:
        """Build the loop and serve every slot (``t_loop``: loop built)."""
        source = InstanceSource(instance)
        if not self.durable:
            self.logs.append(EventLog())
            loop = ServeLoop(
                controller(), source, ServeConfig(),
                event_log=self.logs[-1], on_slot=self.on_slot,
            )
            self.t_loop = time.perf_counter()
            self.reports.append(loop.run())
            return
        ckpt = self.workdir / "serve.ckpt"
        events = self.workdir / "events.jsonl"
        self.workdir.mkdir(parents=True, exist_ok=True)
        obs_telemetry.attach(self.workdir / "telemetry")
        self.logs.append(EventLog(events))
        loop = ServeLoop(
            controller(), source,
            ServeConfig(checkpoint_path=ckpt, checkpoint_every=1,
                        max_slots=self.args.restart_at),
            event_log=self.logs[-1],
            health=HealthMonitor(instance.network),
            on_slot=self.on_slot,
        )
        self.t_loop = time.perf_counter()
        self.reports.append(loop.run())
        # Operator redeploy: close the log, resume from the checkpoint.
        self.logs[-1].close()
        self.logs.append(EventLog(events))
        loop = ServeLoop.resume(
            controller(), source, ckpt,
            config=ServeConfig(checkpoint_path=ckpt, checkpoint_every=1),
            event_log=self.logs[-1],
            health=HealthMonitor(instance.network),
            on_slot=self.on_slot,
        )
        self.reports.append(loop.run())
        self.logs[-1].close()

    def close(self) -> None:
        """Detach the observability the episode enabled; drop its files."""
        for log in self.logs:
            log.close()
        obs_telemetry.detach()
        obs_metrics.disable()
        shutil.rmtree(self.workdir, ignore_errors=True)


class _SetupDone(Exception):
    """Raised from the first slot's hook of a ``--setup-only`` episode."""


def check_outputs(instance, trajectory, paths, served) -> dict:
    """Feasibility, the Theorem-1 cost bound and per-slot failures."""
    net = instance.network
    report = check_trajectory(instance, trajectory)
    feasible = [True] * trajectory.horizon
    if not report.ok:
        feasible = [
            check_trajectory(
                instance.slice(t, t + 1),
                Trajectory(trajectory.x[t : t + 1], trajectory.y[t : t + 1],
                           trajectory.s[t : t + 1]),
            ).ok
            for t in range(trajectory.horizon)
        ]
    cfg = SubproblemConfig()
    cost = evaluate_cost(instance, trajectory).total
    bound = stats.lower_bound(
        instance.workload, instance.tier2_price, instance.link_price,
        net.edge_i, net.edge_j,
    )
    ratio = theorem1_ratio(net, cfg.epsilon, cfg.epsilon_prime)
    return {
        "feasible": report.ok,
        "feasibility": report.describe(),
        "cost": cost,
        "lower_bound": bound,
        "theorem1_ratio": ratio,
        "within_theorem1": bool(cost <= ratio * bound),
        "failed": stats.failed_slots(paths, served, feasible),
    }


def run(args) -> dict:
    arrays = inputs.generate(args.workload, args.seed, args.horizon)
    fp = inputs.fingerprint(arrays)
    check_fingerprint(fp, args.expect_fingerprint)
    ep = Episode(args)
    # Every episode, traced or not, serves with the metrics registry on:
    # the traced run reads its counters, and timing the same work in
    # both keeps the per-layer shares about the end-to-end runs.
    obs_metrics.enable()
    patches = spans.patched(ep.recorder) if ep.recorder is not None else nullcontext()
    with patches:
        t0 = time.perf_counter()
        instance = build_instance(args.workload, args.seed, arrays, args.variant)
        t1 = time.perf_counter()
        try:
            ep.serve(instance)
        except _SetupDone:
            ep.close()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stamps = ep.stamps
    result = {
        "fingerprint": fp,
        "setup_s": stamps[0] - t0,
        "instance_s": t1 - t0,
        "loop_s": ep.t_loop - t1,
        "first_slot_s": stamps[0] - ep.t_loop,
    }
    if args.setup_only:
        return result
    lat = np.diff(stamps)
    result.update(
        slots=len(lat),
        window_s=float(stamps[-1] - stamps[0]),
        latencies_ms=(1e3 * lat).tolist(),
        peak_rss_mb=rss_mb,
    )
    final = ep.reports[-1]
    trajectory = final.trajectory
    outcomes = [o for r in ep.reports for o in r.outcomes]
    result["attempted"] = len(outcomes)
    result.update(check_outputs(
        instance, trajectory, [o.path for o in outcomes], [o.served for o in outcomes]
    ))
    if ep.recorder is not None:
        snapshot = obs_metrics.active().snapshot()
        events = [e for log in ep.logs for e in log.events]
        telemetry_bytes, telemetry_records = _telemetry_files(ep)
        result["layers"] = spans.layer_metrics(
            ep.recorder.spans, stamps,
            spans.registry_totals(snapshot),
            {
                "instance_s": result["instance_s"],
                "loop_s": result["loop_s"],
                "first_slot_s": result["first_slot_s"],
                "history_bytes": sum(
                    a.nbytes for a in (trajectory.x, trajectory.y, trajectory.s)
                ),
                "events": len(events),
                "event_bytes": sum(
                    len(json.dumps(e, sort_keys=True)) + 1 for e in events
                ),
                "checkpoint_bytes": ep.recorder.checkpoint_bytes,
                "telemetry_bytes": telemetry_bytes,
                "telemetry_records": telemetry_records,
            },
        )
        WORK_DIR.mkdir(exist_ok=True)
        ep.recorder.write(WORK_DIR / f"spans-{args.workload}.jsonl")
    ep.close()
    if ep.durable:
        reference = ServeLoop(controller(), InstanceSource(instance)).run().trajectory
        result["bitwise_resume"] = all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in ((trajectory.x, reference.x), (trajectory.y, reference.y),
                         (trajectory.s, reference.s))
        )
    return result


def _telemetry_files(ep: Episode) -> "tuple[int, int]":
    """(bytes, records) the durable episode's telemetry sinks hold."""
    files = sorted((ep.workdir / "telemetry").glob("*")) if ep.durable else []
    data = [p.read_bytes() for p in files]
    return sum(map(len, data)), sum(len(d.splitlines()) for d in data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus-k1", "paper-k2", "durable-k1"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--horizon", type=int, required=True)
    parser.add_argument("--variant", type=int, default=0,
                        help="which input draw to serve (see inputs.variants)")
    parser.add_argument("--restart-at", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--expect-fingerprint", default=None)
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
