"""The sharded serve coordinator: fan-out, merge, restart.

:class:`ShardedServeLoop` partitions the tier-1 edge clouds across
worker shards (:func:`repro.shard.partition.plan_partition`), runs one
:mod:`repro.shard.worker` process per shard, and merges the per-shard
decision streams back into a global per-slot allocation:

* **fan-out** — each worker owns an order-preserving sub-network
  (:class:`~repro.shard.subnet.ShardView`) and reads the slot source
  itself (sources are deterministic), so the coordinator ships no slot
  data, only merges results;
* **merge** — global slot ``t`` completes when every shard's slot-``t``
  message has arrived; the sub-decisions scatter into global
  edge-space arrays (disjoint index sets — component closure), the
  coordinator mirrors the single-process loop's event stream
  (``slot_decided`` / ``fallback`` / ``deadline_miss``) and latency
  histograms against its own registry, and folds the shards'
  :class:`~repro.engine.stats.StepStats` into one merged entry;
* **failure detection** — a dead pipe / dead process (or a shard whose
  messages stall past ``heartbeat_timeout_s``) triggers a
  ``shard_down`` event and a relaunch from the shard's own checkpoint;
  the relaunched worker re-sends any slots the coordinator never saw
  (bitwise from the checkpoint) and resumes serving — merged output is
  byte-identical to a kill-free run (test-asserted);
* **telemetry** — workers stream shard-labeled registries into a
  shared telemetry directory; the coordinator's report and ``repro
  shard status`` read the merged view, and with ``--metrics`` the
  shard-labeled entries are folded into the parent registry at the
  end (only the labeled entries — the coordinator mirrors the
  unlabeled ``serve_*`` families itself, so nothing lands twice).

The coordinator's layout checkpoint (``repro-shard-ckpt/v1`` JSON)
records the partition plan, the merged progress and the shard
checkpoint/event-log paths, so :meth:`ShardedServeLoop.resume`
reconstructs a sharded run exactly — shard assignments included.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as conn_wait
from pathlib import Path

import numpy as np

from repro.cache import runtime as cache_runtime
from repro.engine.stats import RunStats, StepStats
from repro.model.allocation import Allocation, Trajectory
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry as obs_telemetry
from repro.serve.events import EVENT_SCHEMA, EventLog, summarize_events
from repro.serve.faults import FaultInjector
from repro.serve.runtime import ServeReport, SlotOutcome
from repro.serve.sources import as_source
from repro.shard.partition import (
    PARTITION_POLICIES,
    ShardPlan,
    historical_demand,
    plan_partition,
)
from repro.shard.subnet import ShardView
from repro.shard.worker import ShardPayload, worker_main
from repro.solvers.blas import blas_info

#: Schema identifier of the coordinator's layout checkpoint.
SHARD_CHECKPOINT_SCHEMA = "repro-shard-ckpt/v1"


@dataclass(frozen=True)
class ShardedServeConfig:
    """Runtime policy of a :class:`ShardedServeLoop`.

    ``deadline_s``/``enforce``/``injector``/``hold_tol``/``max_slots``
    mirror :class:`~repro.serve.runtime.ServeConfig` and are applied
    per shard.  ``checkpoint_path`` names the coordinator's *layout*
    checkpoint (JSON); per-shard checkpoints/event logs live next to
    it (``<path>.shard<k>.npz`` / ``.events.jsonl``), or in a scratch
    directory when no path is given — workers always checkpoint every
    slot so a killed shard can resume regardless of the coordinator's
    own cadence.  ``kill_shard`` maps shard index to the slot after
    which that worker hard-exits (fault-injection tests and the CI
    shard-smoke job).
    """

    n_shards: int = 2
    partition: str = "round-robin"
    deadline_s: "float | None" = None
    enforce: str = "thread"
    checkpoint_path: "str | Path | None" = None
    checkpoint_every: int = 0
    injector: "FaultInjector | None" = None
    max_slots: "int | None" = None
    hold_tol: float = 1e-7
    telemetry_dir: "str | Path | None" = None
    kill_shard: "dict[int, int]" = field(default_factory=dict)
    heartbeat_timeout_s: float = 60.0
    max_restarts: int = 3

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.partition not in PARTITION_POLICIES:
            raise ValueError(
                f"unknown partition policy {self.partition!r}; --partition "
                f"must be one of {', '.join(PARTITION_POLICIES)}"
            )
        if self.deadline_s is not None and not (self.deadline_s > 0):
            raise ValueError(
                f"deadline_s must be > 0, got {self.deadline_s!r}: a "
                "non-positive per-slot budget would fail every primary "
                "solve before it starts.  Pass a positive --deadline-ms "
                "(or omit it to disable deadline enforcement)."
            )
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_every and self.checkpoint_path is None:
            raise ValueError("checkpoint_every set but no checkpoint_path")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be > 0")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")


class _Shard:
    """Coordinator-side bookkeeping of one worker shard."""

    def __init__(self, index: int, assignment: "tuple[int, ...]", view: ShardView):
        self.index = index
        self.assignment = assignment
        self.view = view
        self.process: "multiprocessing.Process | None" = None
        self.conn = None
        self.buffer: "dict[int, dict]" = {}  # t -> slot message
        self.next_expected = 0  # next slot t this shard will send
        self.eof = False  # pipe hit EOF (worker end closed)
        self.ended = False
        self.end_error: "str | None" = None
        self.restarts = 0
        self.last_message = time.monotonic()


def save_layout_checkpoint(
    path: "str | Path",
    *,
    t: int,
    plan: ShardPlan,
    controller_name: str,
    backend: "str | None",
    paths: "list[str]",
    step_stats: "list[StepStats]",
    shards: "list[dict]",
) -> Path:
    """Atomically write the coordinator's layout checkpoint (JSON)."""
    path = Path(path)
    record = {
        "schema": SHARD_CHECKPOINT_SCHEMA,
        "t": int(t),
        "plan": plan.to_json(),
        "controller": controller_name,
        "backend": backend,
        "paths": list(paths),
        "step_stats": [s.to_dict() for s in step_stats],
        "shards": shards,
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


def load_layout_checkpoint(path: "str | Path") -> dict:
    """Load and schema-check a layout checkpoint."""
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    if record.get("schema") != SHARD_CHECKPOINT_SCHEMA:
        raise ValueError(
            f"{path}: unsupported shard checkpoint schema "
            f"{record.get('schema')!r} (expected {SHARD_CHECKPOINT_SCHEMA!r})"
        )
    return record


class ShardedServeLoop:
    """Serve a slot source with ``n_shards`` worker processes.

    The public surface mirrors :class:`~repro.serve.runtime.ServeLoop`:
    construct (or :meth:`resume`), then :meth:`run` to a
    :class:`~repro.serve.runtime.ServeReport` whose merged trajectory,
    event summary and per-slot outcomes are byte-compatible with the
    single-process loop's.
    """

    def __init__(
        self,
        controller,
        source,
        config: "ShardedServeConfig | None" = None,
        event_log: "EventLog | None" = None,
        *,
        health=None,
        on_slot=None,
        plan: "ShardPlan | None" = None,
        _steps: "list[Allocation] | None" = None,
        _paths: "list[str] | None" = None,
        _step_stats: "list[StepStats] | None" = None,
        _start_t: int = 0,
    ) -> None:
        self.controller = controller
        self.source = as_source(source)
        self.config = config or ShardedServeConfig()
        self.log = event_log if event_log is not None else EventLog()
        self.health = health
        self.on_slot = on_slot
        self.plan = plan or plan_partition(
            self.source.network,
            self.config.n_shards,
            self.config.partition,
            demand=historical_demand(self.source),
        )
        self.plan.validate(self.source.network)
        self.steps: "list[Allocation]" = list(_steps or [])
        self.paths: "list[str]" = list(_paths or [])
        self.step_stats: "list[StepStats]" = list(_step_stats or [])
        self.t = _start_t
        self._outcomes: "list[SlotOutcome]" = []
        self._scratch: "tempfile.TemporaryDirectory | None" = None
        self._owns_telemetry_scratch = False

    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        controller,
        source,
        checkpoint_path: "str | Path",
        config: "ShardedServeConfig | None" = None,
        event_log: "EventLog | None" = None,
        *,
        health=None,
        on_slot=None,
    ) -> "ShardedServeLoop":
        """Rebuild a sharded run from its layout checkpoint.

        The partition plan is restored from the checkpoint (never
        recomputed — a policy change must not reshuffle a half-served
        run), the merged decisions up to the recorded ``t`` are
        reconstructed from the shard checkpoints, and each worker is
        relaunched in resume mode re-sending from ``t``.
        """
        record = load_layout_checkpoint(checkpoint_path)
        name = record.get("controller", "")
        if name and name != controller.name:
            raise ValueError(
                f"layout checkpoint {checkpoint_path} was written by "
                f"controller {name!r}, cannot resume with {controller.name!r}"
            )
        src = as_source(source)
        plan = ShardPlan.from_json(record["plan"])
        cfg = config or ShardedServeConfig(
            n_shards=plan.n_shards, partition=plan.policy,
            checkpoint_path=checkpoint_path, checkpoint_every=1,
        )
        if cfg.n_shards != plan.n_shards:
            raise ValueError(
                f"layout checkpoint records {plan.n_shards} shards, "
                f"relaunched with --shards {cfg.n_shards}; the shard count "
                "cannot change across a resume"
            )
        t = int(record["t"])
        steps = _merged_steps_from_shards(src.network, plan, record["shards"], t)
        loop = cls(
            controller,
            src,
            config=cfg,
            event_log=event_log,
            health=health,
            on_slot=on_slot,
            plan=plan,
            _steps=steps,
            _paths=list(record["paths"])[:t],
            _step_stats=[StepStats.from_dict(s) for s in record["step_stats"]][:t],
            _start_t=t,
        )
        loop._resume_record = record
        return loop

    # ------------------------------------------------------------------
    def run(self) -> ServeReport:
        cfg = self.config
        network = self.source.network
        start_t = self.t
        backend = getattr(
            getattr(self.controller, "config", None), "backend", None
        )
        telemetry_dir = self._resolve_telemetry_dir()
        shard_files = self._resolve_shard_files()
        self.log.emit(
            "serve_resume" if start_t else "serve_start",
            t=start_t,
            schema=EVENT_SCHEMA,
            controller=self.controller.name,
            backend=backend,
            source=repr(self.source),
            deadline_s=cfg.deadline_s,
            enforce=cfg.enforce if cfg.deadline_s is not None else None,
            cache=cache_runtime.active_dir(),
            blas=blas_info(),
            shards=self.plan.n_shards,
            partition=self.plan.policy,
            assignments=[list(a) for a in self.plan.assignments],
        )

        shards = [
            _Shard(k, assignment, ShardView(network, assignment))
            for k, assignment in enumerate(self.plan.assignments)
        ]
        for shard in shards:
            shard.next_expected = start_t
            self._launch(
                shard, shard_files, telemetry_dir,
                resume=start_t > 0, resend_from=start_t,
            )

        # The coordinator reads the source itself — only for the global
        # slot data the health monitor and merge bookkeeping need; the
        # workers each iterate their own copy of the (deterministic)
        # source, so nothing is shipped over the pipes but decisions.
        slots = self.source.slots(start_t)
        error: "str | None" = None
        count = 0
        try:
            while cfg.max_slots is None or count < cfg.max_slots:
                slot_start = time.perf_counter()
                try:
                    slot = next(slots)
                except StopIteration:
                    break
                except ValueError as exc:
                    error = str(exc)
                    self.log.emit("source_error", t=self.t, message=error)
                    break
                source_elapsed = time.perf_counter() - slot_start
                messages = self._collect_slot(shards, self.t, telemetry_dir)
                if messages is None:
                    # every shard ended before producing this slot
                    break
                outcome = self._merge_slot(self.t, slot, messages)
                outcome.phases["source_read"] = source_elapsed
                count += 1
                if (
                    cfg.checkpoint_every
                    and (self.t % cfg.checkpoint_every == 0)
                ):
                    ck_start = time.perf_counter()
                    self._write_checkpoint(shard_files)
                    outcome.phases["checkpoint"] = (
                        time.perf_counter() - ck_start
                    )
                outcome.slot_wall = time.perf_counter() - slot_start
                outcome.phases["overhead"] = max(
                    outcome.slot_wall - sum(outcome.phases.values()), 0.0
                )
                self._publish_slot(outcome)
                if self.health is not None:
                    self.health.observe_slot(
                        outcome.t, slot, outcome.decision,
                        outcome=outcome, log=self.log,
                    )
                obs_telemetry.autoflush()
                if self.on_slot is not None:
                    self.on_slot(self, outcome)
            self._drain_ends(shards)
            for shard in shards:
                if shard.end_error and error is None:
                    error = f"shard {shard.index}: {shard.end_error}"
        finally:
            self._reap(shards)
            if cfg.checkpoint_path is not None and self.t > start_t:
                self._write_checkpoint(shard_files)
            self._fold_telemetry(telemetry_dir)
            self._cleanup_scratch()
        return self._finish(error)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _launch(
        self,
        shard: _Shard,
        shard_files: "dict[int, tuple[str, str]]",
        telemetry_dir: "str | None",
        *,
        resume: bool,
        resend_from: int,
    ) -> None:
        cfg = self.config
        ckpt_path, events_path = shard_files[shard.index]
        payload = ShardPayload(
            shard=shard.index,
            assignment=shard.assignment,
            source=self.source,
            controller=self.controller,
            checkpoint_path=ckpt_path,
            events_path=events_path,
            deadline_s=cfg.deadline_s,
            enforce=cfg.enforce,
            checkpoint_every=1,
            injector=cfg.injector,
            hold_tol=cfg.hold_tol,
            telemetry_dir=telemetry_dir,
            cache_dir=cache_runtime.active_dir(),
            resume=resume,
            resend_from=resend_from,
            kill_after=cfg.kill_shard.get(shard.index),
        )
        # fork: sources/controllers go over as live objects, no pickling
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=worker_main, args=(payload, send), daemon=True
        )
        proc.start()
        send.close()  # keep only the worker's copy — EOF then means death
        shard.process, shard.conn = proc, recv
        shard.eof = False
        shard.ended = False
        shard.last_message = time.monotonic()

    def _restart(
        self,
        shard: _Shard,
        shard_files: "dict[int, tuple[str, str]]",
        telemetry_dir: "str | None",
    ) -> None:
        proc = shard.process
        exitcode = proc.exitcode if proc is not None else None
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
            exitcode = proc.exitcode
        if shard.conn is not None:
            shard.conn.close()
        if shard.restarts >= self.config.max_restarts:
            raise RuntimeError(
                f"shard {shard.index} died (exit code {exitcode}) and "
                f"exhausted its {self.config.max_restarts} restarts"
            )
        shard.restarts += 1
        self.log.emit(
            "shard_down",
            t=shard.next_expected,
            shard=shard.index,
            exitcode=exitcode,
            restarts=shard.restarts,
        )
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter(
                "shard_restarts_total",
                help="shard worker restarts, by shard",
                shard=str(shard.index),
            ).inc()
        self._launch(
            shard, shard_files, telemetry_dir,
            resume=True, resend_from=shard.next_expected,
        )
        self.log.emit(
            "shard_restart",
            t=shard.next_expected,
            shard=shard.index,
            resend_from=shard.next_expected,
        )

    def _pump(self, shard: _Shard) -> None:
        """Drain every message currently readable on one shard's pipe."""
        while shard.conn is not None and not shard.eof and shard.conn.poll(0):
            try:
                message = shard.conn.recv()
            except (EOFError, OSError):
                # poll() stays truthy on a closed pipe; remember the EOF
                # so death detection is immediate, not heartbeat-paced.
                shard.eof = True
                return
            shard.last_message = time.monotonic()
            if message.get("type") == "end":
                shard.ended = True
                shard.end_error = message.get("error")
                return
            t = int(message["t"])
            shard.buffer[t] = message
            shard.next_expected = max(shard.next_expected, t + 1)

    def _collect_slot(
        self,
        shards: "list[_Shard]",
        t: int,
        telemetry_dir: "str | None",
    ) -> "list[dict] | None":
        """Block until every shard's slot-``t`` message is buffered.

        Pumps *all* pipes while waiting (a 64 KiB pipe buffer would
        otherwise deadlock a fast shard against a slow one), restarts
        shards that die, and returns ``None`` when every shard ended
        without producing ``t`` (source exhausted).
        """
        shard_files = self._resolve_shard_files()
        while True:
            pending = [s for s in shards if t not in s.buffer]
            for shard in pending:
                self._pump(shard)
            pending = [s for s in shards if t not in s.buffer]
            if not pending:
                return [s.buffer.pop(t) for s in shards]
            if all(s.ended for s in pending):
                if any(t in s.buffer for s in shards):
                    dead = [s.index for s in pending]
                    raise RuntimeError(
                        f"shards {dead} ended at slot {t} while others "
                        "kept serving; shards disagree on the horizon"
                    )
                return None
            live = [s for s in pending if not s.ended]
            conns = [s.conn for s in live if s.conn is not None]
            if conns:
                conn_wait(conns, timeout=0.1)
            now = time.monotonic()
            for shard in live:
                self._pump(shard)  # drain anything sent before a death
                died = shard.eof or (
                    shard.process is not None
                    and not shard.process.is_alive()
                    and not shard.conn.poll(0)
                )
                hung = now - shard.last_message > self.config.heartbeat_timeout_s
                if (died or hung) and t not in shard.buffer and not shard.ended:
                    self._restart(shard, shard_files, telemetry_dir)

    def _drain_ends(self, shards: "list[_Shard]") -> None:
        """Wait for every live worker's end message (or its death)."""
        deadline = time.monotonic() + self.config.heartbeat_timeout_s
        while time.monotonic() < deadline:
            for shard in shards:
                self._pump(shard)
            live = [s for s in shards if not s.ended]
            if not live:
                return
            if all(
                s.process is None or not s.process.is_alive() for s in live
            ):
                return
            conns = [s.conn for s in live if s.conn is not None]
            if conns:
                conn_wait(conns, timeout=0.1)

    def _reap(self, shards: "list[_Shard]") -> None:
        for shard in shards:
            if shard.process is not None and shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=5.0)
            if shard.conn is not None:
                shard.conn.close()

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def _merge_slot(
        self, t: int, slot, messages: "list[dict]"
    ) -> SlotOutcome:
        """Fold every shard's slot-``t`` message into the global slot."""
        network = self.source.network
        x = np.zeros(network.n_edges)
        y = np.zeros(network.n_edges)
        s = np.zeros(network.n_edges)
        for shard_msg in messages:
            view = self._views[int(shard_msg["shard"])]
            view.lift_into(x, y, s, Allocation(
                np.asarray(shard_msg["x"], dtype=float),
                np.asarray(shard_msg["y"], dtype=float),
                np.asarray(shard_msg["s"], dtype=float),
            ))
        decision = Allocation(x, y, s)
        shard_paths = [str(m["path"]) for m in messages]
        path = shard_paths[0] if len(set(shard_paths)) == 1 else "mixed"
        wall = max(float(m["wall_time"]) for m in messages)
        missed = any(m["deadline_missed"] for m in messages)
        served = all(m["served"] for m in messages)
        errors = [m["error"] for m in messages if m.get("error")]
        error = str(errors[0]) if errors else None
        # Mirror the single-process event stream against the
        # coordinator's registry: the merged run's unlabeled serve_*
        # families must count global slots exactly like a single
        # process would (the shards' own copies are shard-labeled).
        if missed:
            self.log.emit(
                "deadline_miss", t=t, wall_time=wall,
                enforce=self.config.enforce,
            )
        if path != "primary":
            self.log.emit("fallback", t=t, reason=error or "shard-fallback")
        self.log.emit(
            "slot_decided",
            t=t,
            path=path,
            wall_time=wall,
            deadline_missed=missed,
            served=served,
            error=error,
        )
        stats = _merge_step_stats(t, messages)
        self.steps.append(decision)
        self.paths.append(path)
        self.step_stats.append(stats)
        self.t = t + 1
        outcome = SlotOutcome(
            t, path, wall,
            deadline_missed=missed, served=served, error=error,
            decision=decision,
            phases={"solve": wall, "fallback": 0.0, "events": 0.0},
        )
        self._outcomes.append(outcome)
        return outcome

    @property
    def _views(self) -> "dict[int, ShardView]":
        cached = getattr(self, "_views_cache", None)
        if cached is None:
            cached = {
                k: ShardView(self.source.network, a)
                for k, a in enumerate(self.plan.assignments)
            }
            self._views_cache = cached
        return cached

    def _publish_slot(self, outcome: SlotOutcome) -> None:
        reg = obs_metrics.active()
        if reg is None:
            return
        reg.histogram(
            "serve_slot_seconds",
            help="total wall time per slot (source read through checkpoint)",
        ).observe(outcome.slot_wall)
        for phase, seconds in outcome.phases.items():
            reg.histogram(
                "serve_phase_seconds",
                help="slot wall time attributed to each serve phase",
                phase=phase,
            ).observe(seconds)

    # ------------------------------------------------------------------
    # durability + report
    # ------------------------------------------------------------------
    def _resolve_shard_files(self) -> "dict[int, tuple[str, str]]":
        cached = getattr(self, "_shard_files_cache", None)
        if cached is not None:
            return cached
        resume_record = getattr(self, "_resume_record", None)
        if resume_record is not None:
            cached = {
                int(s["index"]): (str(s["checkpoint"]), str(s["events"]))
                for s in resume_record["shards"]
            }
        else:
            if self.config.checkpoint_path is not None:
                base = Path(self.config.checkpoint_path)
                base.parent.mkdir(parents=True, exist_ok=True)
                stem = str(base)
            else:
                self._scratch = tempfile.TemporaryDirectory(
                    prefix="repro-shard-"
                )
                stem = str(Path(self._scratch.name) / "shard-run")
            cached = {
                k: (f"{stem}.shard{k}.npz", f"{stem}.shard{k}.events.jsonl")
                for k in range(self.plan.n_shards)
            }
        self._shard_files_cache = cached
        return cached

    def _resolve_telemetry_dir(self) -> "str | None":
        if self.config.telemetry_dir is not None:
            return str(self.config.telemetry_dir)
        if obs_metrics.active() is not None:
            # --metrics without --telemetry: the shard registries still
            # need a rendezvous on disk so their counts can fold into
            # the parent registry at the end; use a private scratch dir.
            self._telemetry_scratch = tempfile.TemporaryDirectory(
                prefix="repro-shard-telemetry-"
            )
            self._owns_telemetry_scratch = True
            return self._telemetry_scratch.name
        return None

    def _fold_telemetry(self, telemetry_dir: "str | None") -> None:
        reg = obs_metrics.active()
        if telemetry_dir is None or reg is None:
            return
        aggregator = obs_telemetry.TelemetryAggregator(telemetry_dir)
        aggregator.poll()
        # Merge ONLY the worker sinks (ids start "shard-"): the
        # coordinator's own ambient sink may live in the same directory
        # and already mirrors whatever was folded on a previous run —
        # re-folding it would double-count.
        worker_sinks = [
            s for s in aggregator.sink_ids() if s.startswith("shard-")
        ]
        merged = obs_telemetry.merge_snapshots(
            [aggregator.sink_snapshot(s) for s in worker_sinks]
        )
        # Fold ONLY the shard-labeled entries: the coordinator already
        # mirrors the unlabeled serve_* families itself, and the cache
        # ops every worker counted against its shard label must land
        # exactly once (PR 7's exclusion discipline, extended: the
        # label partitions the work, so a plain sum is the truth).
        labeled = [
            e for e in merged["metrics"] if "shard" in e.get("labels", {})
        ]
        obs_telemetry.merge_snapshot_into(
            reg, {"schema": obs_metrics.METRICS_SCHEMA, "metrics": labeled}
        )

    def _cleanup_scratch(self) -> None:
        if self._scratch is not None and self.config.checkpoint_path is None:
            self._scratch.cleanup()
            self._scratch = None
        if self._owns_telemetry_scratch:
            self._telemetry_scratch.cleanup()
            self._owns_telemetry_scratch = False

    def _write_checkpoint(self, shard_files: "dict[int, tuple[str, str]]") -> None:
        path = self.config.checkpoint_path
        if path is None:
            return
        backend = getattr(
            getattr(self.controller, "config", None), "backend", None
        )
        save_layout_checkpoint(
            path,
            t=self.t,
            plan=self.plan,
            controller_name=self.controller.name,
            backend=backend,
            paths=self.paths,
            step_stats=self.step_stats,
            shards=[
                {"index": k, "checkpoint": ckpt, "events": events}
                for k, (ckpt, events) in sorted(shard_files.items())
            ],
        )
        self.log.emit(
            "checkpoint_written",
            t=self.t,
            path=str(path),
            n_steps=len(self.steps),
        )
        sink = obs_telemetry.active_sink()
        if sink is not None:
            sink.flush(force=True)

    def _finish(self, error: "str | None") -> ServeReport:
        summary = summarize_events(self.log.events)
        self.log.emit("serve_end", t=self.t, **summary, error=error)
        trajectory = None
        if self.steps:
            trajectory = Trajectory.from_steps(self.steps)
            trajectory.run_stats = RunStats(list(self.step_stats))
        return ServeReport(
            outcomes=list(self._outcomes),
            trajectory=trajectory,
            summary=summary,
            error=error,
            paths=list(self.paths),
        )


def _merge_step_stats(t: int, messages: "list[dict]") -> StepStats:
    """Fold per-shard step stats into the global slot's entry.

    Wall time joins by ``max`` (the shards solved concurrently); the
    work counters sum; the backend set unions — the merged ``RunStats``
    then reports the run's true total solver work.
    """
    stats = [m.get("stats") for m in messages]
    stats = [s for s in stats if s]
    backends = sorted({b for s in stats for b in s.get("backends", [])})
    return StepStats(
        t=t,
        wall_time=max((float(s["wall_time"]) for s in stats), default=0.0),
        n_solves=sum(int(s["n_solves"]) for s in stats),
        newton_iters=sum(int(s["newton_iters"]) for s in stats),
        warm_attempts=sum(int(s["warm_attempts"]) for s in stats),
        warm_hits=sum(int(s["warm_hits"]) for s in stats),
        fallbacks=sum(int(s["fallbacks"]) for s in stats),
        backends=tuple(backends),
    )


def _merged_steps_from_shards(
    network, plan: ShardPlan, shards: "list[dict]", t: int
) -> "list[Allocation]":
    """Reconstruct merged decisions ``[0, t)`` from shard checkpoints.

    Each worker checkpoints every slot *before* the coordinator merges
    it, so every shard checkpoint holds at least ``t`` steps; lifting
    the per-shard slices through their views rebuilds the global
    decisions bitwise.
    """
    from repro.serve.checkpoint import load_checkpoint

    if t == 0:
        return []
    views = {
        k: ShardView(network, a) for k, a in enumerate(plan.assignments)
    }
    per_shard: "dict[int, list[Allocation]]" = {}
    for entry in shards:
        k = int(entry["index"])
        snapshot = load_checkpoint(entry["checkpoint"])
        if len(snapshot["steps"]) < t:
            raise ValueError(
                f"shard {k} checkpoint {entry['checkpoint']} holds "
                f"{len(snapshot['steps'])} steps but the layout checkpoint "
                f"records {t} merged slots"
            )
        per_shard[k] = snapshot["steps"]
    merged = []
    for slot_t in range(t):
        x = np.zeros(network.n_edges)
        y = np.zeros(network.n_edges)
        s = np.zeros(network.n_edges)
        for k, view in views.items():
            view.lift_into(x, y, s, per_shard[k][slot_t])
        merged.append(Allocation(x, y, s))
    return merged
