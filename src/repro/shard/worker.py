"""The shard worker process: one :class:`ServeLoop` over a sub-network.

Spawned by the coordinator (:mod:`repro.shard.coordinator`) with a
:class:`ShardPayload`, a worker:

1. severs every fork-inherited observability handle (ambient telemetry
   sink, tracer) and enables a fresh
   :class:`~repro.obs.metrics.LabeledRegistry` stamping ``shard=<k>``
   onto every instrument, streamed through a per-shard
   :class:`~repro.obs.telemetry.TelemetrySink` into the shared
   telemetry directory;
2. re-activates the shared solver cache directory (reads blobs any
   sibling produced; writes stay atomic single-writer renames);
3. wraps the global slot source in a
   :class:`~repro.shard.subnet.ShardSlotSource` over its assigned
   tier-1 clouds and runs a completely ordinary
   :class:`~repro.serve.runtime.ServeLoop` — per-shard checkpoint,
   per-shard JSONL event log, same fallback chain;
4. ships every slot's decision to the coordinator over a pipe and
   publishes heartbeat gauges (``shard_up`` / ``shard_slot`` /
   ``shard_heartbeat_time``) the coordinator and ``repro shard
   status`` read from the telemetry stream.

Restart protocol: a worker relaunched with ``resume=True`` rebuilds
its loop from its checkpoint (bitwise resume, PR 3's guarantee) and
first *re-sends* any slots in ``[resend_from, checkpoint_t)`` the
coordinator never received, reconstructed from the checkpoint's
decision journal and the shard's durable event log — re-sent slots are
not re-solved and publish no metrics, so the merged registry counts
each slot's work exactly once.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cache import runtime as cache_runtime
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry as obs_telemetry
from repro.obs import tracing as obs_tracing
from repro.serve.checkpoint import load_checkpoint
from repro.serve.events import EventLog, read_events
from repro.serve.faults import FaultInjector
from repro.serve.runtime import ServeConfig, ServeLoop
from repro.shard.subnet import ShardSlotSource, ShardView

#: Exit code of a worker terminated by an injected kill (tests/CI
#: distinguish it from a crash).
KILL_EXIT_CODE = 43


@dataclass
class ShardPayload:
    """Everything a worker process needs; passed through ``fork``."""

    shard: int
    assignment: "tuple[int, ...]"
    source: object
    controller: object
    checkpoint_path: str
    events_path: str
    deadline_s: "float | None" = None
    enforce: str = "thread"
    checkpoint_every: int = 1
    injector: "FaultInjector | None" = None
    hold_tol: float = 1e-7
    telemetry_dir: "str | None" = None
    cache_dir: "str | None" = None
    resume: bool = False
    resend_from: int = 0
    kill_after: "int | None" = None
    extra_labels: dict = field(default_factory=dict)


def _slot_message(
    shard: int,
    t: int,
    *,
    path: str,
    decision,
    served: bool,
    deadline_missed: bool,
    error: "str | None",
    wall_time: float,
    stats: "dict | None",
    replayed: bool = False,
) -> dict:
    return {
        "type": "slot",
        "shard": shard,
        "t": t,
        "path": path,
        "x": decision.x,
        "y": decision.y,
        "s": decision.s,
        "served": bool(served),
        "deadline_missed": bool(deadline_missed),
        "error": error,
        "wall_time": float(wall_time),
        "stats": stats,
        "replayed": bool(replayed),
    }


def _replay_missed_slots(payload: ShardPayload, snapshot: dict, conn) -> None:
    """Re-send checkpointed slots the coordinator never received.

    Decisions come bitwise from the checkpoint journal; the slot's
    metadata (path, served, deadline miss, fallback reason) from the
    shard's durable event log, which the serve loop flushes before
    every checkpoint — so everything up to ``snapshot["t"]`` is on
    disk.  Nothing is re-solved and nothing is published to the
    metrics registry: the dead incarnation's sink already accounts for
    this work.
    """
    start, end = payload.resend_from, int(snapshot["t"])
    if start >= end:
        return
    decided: "dict[int, dict]" = {}
    if Path(payload.events_path).exists():
        for event in read_events(payload.events_path):
            if event.get("event") == "slot_decided":
                decided[int(event["t"])] = event  # last restart wins
    stats = snapshot.get("step_stats", [])
    for t in range(start, end):
        event = decided.get(t, {})
        conn.send(
            _slot_message(
                payload.shard,
                t,
                path=str(event.get("path", snapshot["paths"][t])),
                decision=snapshot["steps"][t],
                served=bool(event.get("served", True)),
                deadline_missed=bool(event.get("deadline_missed", False)),
                error=event.get("error"),
                wall_time=float(event.get("wall_time", 0.0)),
                stats=stats[t].to_dict() if t < len(stats) else None,
                replayed=True,
            )
        )


def run_shard_worker(payload: ShardPayload, conn) -> int:
    """Worker process entry point; returns the exit code."""
    # Sever fork-inherited observability state: the parent owns its
    # sink/tracer streams; publishing into them from here would
    # interleave writers and double-count the parent's registry.
    obs_telemetry.forget_inherited()
    obs_tracing.forget_inherited()
    registry = obs_metrics.enable(
        obs_metrics.LabeledRegistry(
            shard=str(payload.shard), **payload.extra_labels
        )
    )
    if payload.telemetry_dir is not None:
        obs_telemetry.attach(
            payload.telemetry_dir,
            registry=registry,
            label=f"shard-{payload.shard}",
            min_interval_s=0.0,
        )
    if payload.cache_dir is not None:
        store = cache_runtime.active()
        if store is None or str(store.root) != payload.cache_dir:
            cache_runtime.activate(payload.cache_dir)

    view = ShardView(payload.source.network, payload.assignment)
    source = ShardSlotSource(payload.source, view)
    config = ServeConfig(
        deadline_s=payload.deadline_s,
        enforce=payload.enforce,
        checkpoint_path=payload.checkpoint_path,
        checkpoint_every=payload.checkpoint_every,
        injector=payload.injector,
        hold_tol=payload.hold_tol,
        checkpoint_extra={
            "shard": payload.shard,
            "assignment": list(payload.assignment),
        },
    )

    def heartbeat(t: int) -> None:
        registry.gauge("shard_up", help="1 while the shard worker serves").set(1.0)
        registry.gauge(
            "shard_slot", help="last slot index this shard completed"
        ).set(float(t))
        registry.gauge(
            "shard_heartbeat_time",
            help="unix time of the shard's last completed slot",
        ).set(time.time())

    def on_slot(loop: ServeLoop, outcome) -> None:
        heartbeat(outcome.t)
        stats = loop.session.last_step_stats
        conn.send(
            _slot_message(
                payload.shard,
                outcome.t,
                path=outcome.path,
                decision=outcome.decision,
                served=outcome.served,
                deadline_missed=outcome.deadline_missed,
                error=outcome.error,
                wall_time=outcome.wall_time,
                stats=stats.to_dict() if stats else None,
            )
        )
        if payload.kill_after is not None and outcome.t == payload.kill_after:
            # Controlled kill at the durability boundary: the slot's
            # checkpoint is written and its message sent; flush the
            # telemetry stream and die without cleanup, exactly like a
            # SIGKILL landing between two slots.
            obs_telemetry.detach()
            conn.close()
            os._exit(KILL_EXIT_CODE)

    log = EventLog(payload.events_path)
    try:
        checkpoint_exists = Path(payload.checkpoint_path).exists()
        if payload.resume and checkpoint_exists:
            snapshot = load_checkpoint(payload.checkpoint_path)
            recorded = snapshot.get("extra", {}).get("assignment")
            if recorded is not None and list(recorded) != list(payload.assignment):
                raise ValueError(
                    f"shard {payload.shard} checkpoint was written for "
                    f"tier-1 assignment {list(recorded)}, relaunched with "
                    f"{list(payload.assignment)}; the partition layout must "
                    "not change across a resume"
                )
            _replay_missed_slots(payload, snapshot, conn)
            loop = ServeLoop.resume(
                payload.controller,
                source,
                payload.checkpoint_path,
                config=config,
                event_log=log,
                on_slot=on_slot,
            )
        else:
            loop = ServeLoop(
                payload.controller,
                source,
                config=config,
                event_log=log,
                on_slot=on_slot,
            )
        report = loop.run()
        registry.gauge("shard_up", help="1 while the shard worker serves").set(0.0)
        conn.send(
            {
                "type": "end",
                "shard": payload.shard,
                "t": loop.session.t,
                "summary": report.summary,
                "error": report.error,
            }
        )
        code = 0
    except Exception as exc:  # noqa: BLE001 — report, then die visibly
        try:
            conn.send(
                {
                    "type": "end",
                    "shard": payload.shard,
                    "t": -1,
                    "summary": None,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
        except (BrokenPipeError, OSError):
            pass
        code = 1
    finally:
        log.close()
        obs_telemetry.detach()
        try:
            conn.close()
        except OSError:
            pass
    return code


def worker_main(payload: ShardPayload, conn) -> None:
    """``multiprocessing.Process`` target wrapper around the worker."""
    os._exit(run_shard_worker(payload, conn))
