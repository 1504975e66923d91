"""The fault-tolerant streaming serve loop.

:class:`ServeLoop` is the long-lived process shape around the engine:
it pulls validated slots from a :class:`~repro.serve.sources.SlotSource`,
drives a :class:`~repro.engine.session.Controller` through
:class:`~repro.engine.session.SolveSession`, and guarantees every slot
is served on time even when the primary solver stalls or raises.

Per-slot decision path
----------------------
1. **primary** — the controller's own solve, optionally bounded by a
   per-slot deadline budget.  With ``enforce="thread"`` (the default
   when a deadline is set) the solve runs on a worker thread and is
   abandoned at the deadline; with ``enforce="cooperative"`` the solve
   always completes and overruns are recorded as ``deadline_miss``
   events without discarding the (feasible) result.
2. **hold** — on a timeout/failure, re-apply the previously applied
   allocation if it still covers this slot's workload (it satisfies
   all capacity constraints by construction, so coverage is the only
   check).
3. **greedy** — otherwise, a solver-free greedy cover
   (:func:`greedy_cover`) waterfills each tier-1 cloud's demand across
   its SLA edges within the remaining tier-2/link capacities.

Whichever path decides, the decision is recorded in the session (so
the trajectory is complete and the next primary solve anchors at what
actually ran), an event is emitted, and — at the configured cadence —
a crash-safe checkpoint is written.  A killed run resumed from its
checkpoint (:meth:`ServeLoop.resume`) produces a trajectory bitwise
identical to the uninterrupted run's (test-asserted).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.engine.session import SlotData, SolveSession
from repro.model.allocation import Allocation
from repro.model.network import CloudNetwork
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry as obs_telemetry
from repro.obs import tracing as obs_tracing
from repro.serve.checkpoint import load_checkpoint, save_checkpoint
from repro.serve.events import EVENT_SCHEMA, EventLog, summarize_events
from repro.serve.faults import FaultInjector, SolverFailure, SolverStall
from repro.serve.sources import SlotSource, as_source
from repro.solvers.blas import blas_info


def greedy_cover(
    network: CloudNetwork,
    workload: np.ndarray,
    tol: float = 1e-9,
) -> "tuple[Allocation, bool]":
    """Solver-free feasible cover of one slot's workload.

    For each tier-1 cloud the demand is first split evenly across its
    SLA edges (clipped to edge and remaining tier-2 capacity), then any
    shortfall is waterfilled into the edges with the most remaining
    headroom.  Returns the allocation (``x = y = s``) and whether every
    cloud's demand was fully covered.  Deterministic: a pure function
    of ``(network, workload)``, so resumed runs reproduce it exactly.
    """
    workload = np.asarray(workload, dtype=float)
    assign = np.zeros(network.n_edges)
    cloud_used = np.zeros(network.n_tier2)
    served = True
    for j in range(network.n_tier1):
        need = float(workload[j])
        if need <= tol:
            continue
        edges = network.edges_of_tier1(j)
        share = need / len(edges)
        for e in edges:
            i = network.edge_i[e]
            amount = min(
                share,
                float(network.edge_capacity[e]),
                float(network.tier2_capacity[i] - cloud_used[i]),
            )
            if amount <= 0:
                continue
            assign[e] += amount
            cloud_used[i] += amount
            need -= amount
        if need > tol:
            def headroom(e: int) -> float:
                i = network.edge_i[e]
                return min(
                    float(network.edge_capacity[e] - assign[e]),
                    float(network.tier2_capacity[i] - cloud_used[i]),
                )

            for e in sorted(edges, key=lambda e: (-headroom(e), e)):
                amount = min(need, max(headroom(e), 0.0))
                if amount <= 0:
                    continue
                assign[e] += amount
                cloud_used[int(network.edge_i[e])] += amount
                need -= amount
                if need <= tol:
                    break
        if need > tol:
            served = False
    return Allocation(assign.copy(), assign.copy(), assign.copy()), served


def covers(
    network: CloudNetwork,
    allocation: Allocation,
    workload: np.ndarray,
    tol: float = 1e-7,
) -> bool:
    """Does ``allocation`` still cover ``workload``?

    Capacity constraints are time-invariant, so a previously feasible
    allocation stays feasible; only the coverage constraint
    ``sum_{i in I_j} s_ij >= lambda_j`` can break when demand rises.
    """
    coverage = network.aggregate_tier1(allocation.s)
    return bool(np.all(coverage >= np.asarray(workload, dtype=float) - tol))


@dataclass(frozen=True)
class ServeConfig:
    """Runtime policy of a :class:`ServeLoop`.

    Parameters
    ----------
    deadline_s:
        Per-slot wall-clock budget for the primary solve; ``None``
        disables deadline handling entirely.
    enforce:
        ``"thread"`` abandons an over-budget solve and falls back
        (preemptive); ``"cooperative"`` lets it finish and only
        records the miss (deterministic — used by the bitwise
        resume tests).
    checkpoint_path, checkpoint_every:
        Write a crash-safe checkpoint every ``checkpoint_every`` slots
        (0 disables): the carry file at ``checkpoint_path`` plus its
        decision journal ``<checkpoint_path>.journal``
        (:mod:`repro.serve.checkpoint`).  A final checkpoint is always
        written at the end of :meth:`ServeLoop.run` when a path is
        configured.
    injector:
        Optional deterministic fault injector exercising the fallback
        chain (tests, smoke jobs).
    max_slots:
        Serve at most this many slots in one :meth:`ServeLoop.run`
        call (``None`` = until the source is exhausted).
    hold_tol:
        Coverage tolerance of the hold fallback.
    """

    deadline_s: "float | None" = None
    enforce: str = "thread"
    checkpoint_path: "str | Path | None" = None
    checkpoint_every: int = 0
    injector: "FaultInjector | None" = None
    max_slots: "int | None" = None
    hold_tol: float = 1e-7

    def __post_init__(self) -> None:
        if self.deadline_s is not None and not (self.deadline_s > 0):
            raise ValueError(
                f"deadline_s must be > 0, got {self.deadline_s!r}: a "
                "non-positive per-slot budget would fail every primary "
                "solve before it starts.  Pass a positive --deadline-ms "
                "(or omit it to disable deadline enforcement)."
            )
        if self.enforce not in ("thread", "cooperative"):
            raise ValueError(
                f"enforce must be 'thread' or 'cooperative', got {self.enforce!r}"
            )
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_every and self.checkpoint_path is None:
            raise ValueError("checkpoint_every set but no checkpoint_path")


@dataclass
class SlotOutcome:
    """How one slot was served.

    ``phases`` breaks the slot's wall time down by serve phase
    (``source_read`` / ``solve`` / ``fallback`` / ``events`` /
    ``checkpoint`` / ``overhead``); the phase marks are taken
    back-to-back and the residual loop bookkeeping is recorded as
    ``overhead``, so the phases partition ``slot_wall`` exactly — the
    deadline budget is fully attributed, nothing hides in untimed
    glue.  ``wall_time`` keeps its original meaning: the decision time
    alone (primary attempt plus any fallback), excluding source read
    and checkpoint.
    """

    t: int
    path: str  # "primary" | "hold" | "greedy"
    wall_time: float
    deadline_missed: bool = False
    served: bool = True
    error: "str | None" = None
    decision: "Allocation | None" = None
    phases: "dict[str, float]" = field(default_factory=dict)
    slot_wall: float = 0.0


@dataclass
class ServeReport:
    """Result of a :meth:`ServeLoop.run` call."""

    outcomes: "list[SlotOutcome]"
    trajectory: "object | None"
    summary: dict
    error: "str | None" = None
    paths: "list[str]" = field(default_factory=list)

    def describe(self) -> str:
        s = self.summary
        served = s["slots"] - s["unserved"]
        parts = [
            f"{s['slots']} slots ({served} served, {s['unserved']} unserved)",
            "paths: "
            + ", ".join(f"{k}={v}" for k, v in sorted(s["paths"].items())),
            f"{s['deadline_misses']} deadline misses",
            f"{s['fallbacks']} fallbacks",
            f"{s['checkpoints']} checkpoints",
        ]
        if s.get("alerts"):
            parts.append(f"{s['alerts']} alerts")
        if self.error:
            parts.append(f"stopped on source error: {self.error}")
        return "; ".join(parts)


class ServeLoop:
    """Drive a controller through a slot source, fault-tolerantly.

    Parameters
    ----------
    controller:
        Any :class:`~repro.engine.session.Controller`.  Checkpointing
        additionally requires the ``export_state``/``restore_state``
        hooks (``RegularizedOnline`` implements them).
    source:
        A :class:`~repro.serve.sources.SlotSource` or a bare
        :class:`~repro.model.instance.Instance`.
    config:
        Runtime policy (:class:`ServeConfig`).
    event_log:
        Event sink; defaults to an in-memory :class:`EventLog`.
    initial:
        Decision at slot ``-1`` (controller default when ``None``).
    health:
        Optional :class:`~repro.obs.health.HealthMonitor`; fed every
        decided slot (primary or fallback) so its gauges track the
        trajectory that actually ran, and its alert rules emit
        ``alert`` events into this loop's event log.
    on_slot:
        Optional ``(loop, outcome) -> None`` hook called after each
        slot is fully published — the ``--watch`` console view hangs
        off this.
    """

    def __init__(
        self,
        controller,
        source,
        config: "ServeConfig | None" = None,
        event_log: "EventLog | None" = None,
        initial: "Allocation | None" = None,
        *,
        health=None,
        on_slot=None,
        _session: "SolveSession | None" = None,
        _paths: "list[str] | None" = None,
        _journaled: int = 0,
    ) -> None:
        self.controller = controller
        self.source: SlotSource = as_source(source)
        self.config = config or ServeConfig()
        self.log = event_log if event_log is not None else EventLog()
        self.health = health
        self.on_slot = on_slot
        if _session is not None:
            self.session = _session
        else:
            self.session = SolveSession(
                controller, self._session_source(), initial=initial
            )
        self.paths: "list[str]" = list(_paths or [])
        # Leading records of the checkpoint journal this run has on disk.
        self._journaled = _journaled
        steps = self.session._steps
        self._last: "Allocation | None" = steps[-1] if steps else initial
        self._outcomes: "list[SlotOutcome]" = []

    def _session_source(self):
        """Predictive controllers need the instance; others the network."""
        return getattr(self.source, "instance", self.source.network)

    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        controller,
        source,
        checkpoint_path: "str | Path",
        config: "ServeConfig | None" = None,
        event_log: "EventLog | None" = None,
        health=None,
        on_slot=None,
    ) -> "ServeLoop":
        """Rebuild a loop from a checkpoint written by a previous run."""
        snapshot = load_checkpoint(checkpoint_path)
        name = snapshot.get("controller_name", "")
        if name and name != controller.name:
            raise ValueError(
                f"checkpoint {checkpoint_path} was written by controller "
                f"{name!r}, cannot resume with {controller.name!r}"
            )
        src = as_source(source)
        session = SolveSession.resume(
            controller,
            getattr(src, "instance", src.network),
            snapshot,
        )
        # Checkpointing back into the file resumed from continues its
        # journal; any other path starts a journal of its own.
        target = config.checkpoint_path if config is not None else None
        same = target is not None and (
            Path(target).resolve() == Path(checkpoint_path).resolve()
        )
        return cls(
            controller,
            src,
            config=config,
            event_log=event_log,
            health=health,
            on_slot=on_slot,
            _session=session,
            _paths=snapshot["paths"],
            _journaled=len(snapshot["steps"]) if same else 0,
        )

    # ------------------------------------------------------------------
    def run(self) -> ServeReport:
        """Serve slots until the source is exhausted (or ``max_slots``)."""
        cfg = self.config
        start_t = self.session.t
        self.log.emit(
            "serve_resume" if start_t else "serve_start",
            t=start_t,
            schema=EVENT_SCHEMA,
            controller=self.controller.name,
            source=repr(self.source),
            deadline_s=cfg.deadline_s,
            enforce=cfg.enforce if cfg.deadline_s is not None else None,
            blas=blas_info(),
        )
        error: "str | None" = None
        count = 0
        slots = self.source.slots(start_t)
        while cfg.max_slots is None or count < cfg.max_slots:
            slot_start = time.perf_counter()
            try:
                with obs_tracing.span("serve.source_read", t=self.session.t):
                    slot = next(slots)
            except StopIteration:
                break
            except ValueError as exc:
                # A malformed source record: log it, checkpoint what we
                # have, and shut down cleanly instead of dying with a
                # traceback mid-trace.
                error = str(exc)
                self.log.emit("source_error", t=self.session.t, message=error)
                break
            source_elapsed = time.perf_counter() - slot_start
            outcome = self._serve_slot(self.session.t, slot)
            outcome.phases["source_read"] = source_elapsed
            count += 1
            if (
                cfg.checkpoint_every
                and self.session.t % cfg.checkpoint_every == 0
            ):
                ck_start = time.perf_counter()
                self._write_checkpoint()
                outcome.phases["checkpoint"] = time.perf_counter() - ck_start
            outcome.slot_wall = time.perf_counter() - slot_start
            # Whatever the contiguous phase marks did not capture is
            # loop bookkeeping (span records, outcome wiring); surface
            # it as its own phase so the slot budget is attributed
            # exactly rather than ">= 95% with hidden glue".
            outcome.phases["overhead"] = max(
                outcome.slot_wall - sum(outcome.phases.values()), 0.0
            )
            self._publish_slot(outcome)
            if self.health is not None:
                self.health.observe_slot(
                    outcome.t, slot, outcome.decision,
                    outcome=outcome, log=self.log,
                )
            # Stream the registry (including this slot's health gauges)
            # to any attached telemetry sink at its own cadence.
            obs_telemetry.autoflush()
            if self.on_slot is not None:
                self.on_slot(self, outcome)
        if cfg.checkpoint_path is not None and self.session.t > start_t:
            with obs_tracing.span("serve.final_checkpoint", t=self.session.t):
                self._write_checkpoint()
        return self._finish(error)

    # ------------------------------------------------------------------
    def _serve_slot(self, t: int, slot: SlotData) -> SlotOutcome:
        cfg = self.config
        phases: "dict[str, float]" = {}
        span = obs_tracing.span("serve.slot", t=t)
        with span:
            start = time.perf_counter()
            decision = None
            reason: "str | None" = None
            timed_out = False
            # Injected faults fire *before* the primary solve touches the
            # carried state, so injection never corrupts the session.
            injected = cfg.injector.draw(t) if cfg.injector is not None else None
            if injected is not None:
                reason = injected  # "stall" or "failure"
            else:
                try:
                    with obs_tracing.span("serve.solve", t=t):
                        if cfg.deadline_s is not None and cfg.enforce == "thread":
                            decision = self._step_with_timeout(slot, cfg.deadline_s)
                        else:
                            decision = self.session.step(slot)
                except SolverStall:
                    reason, timed_out = "stall", True
                except Exception as exc:  # noqa: BLE001 — keep serving through faults
                    reason = (
                        "failure"
                        if isinstance(exc, SolverFailure)
                        else type(exc).__name__
                    )
            elapsed = time.perf_counter() - start
            phases["solve"] = elapsed
            mark = time.perf_counter()

            if decision is not None:
                missed = cfg.deadline_s is not None and elapsed > cfg.deadline_s
                if missed:
                    self.log.emit(
                        "deadline_miss", t=t, wall_time=elapsed, enforce=cfg.enforce
                    )
                outcome = SlotOutcome(
                    t, "primary", elapsed, deadline_missed=missed, decision=decision
                )
            else:
                with obs_tracing.span("serve.fallback", t=t, reason=reason):
                    if timed_out:
                        # The abandoned worker may still be mutating the old
                        # carried state; fork a clean session around it.
                        self._fork_session(t)
                    if reason == "stall":
                        self.log.emit(
                            "deadline_miss", t=t, wall_time=elapsed,
                            enforce=cfg.enforce,
                        )
                    self.log.emit("fallback", t=t, reason=reason)
                    outcome = self._fallback(t, slot, reason)
                    outcome.wall_time = time.perf_counter() - start
                    self.session.apply(slot, outcome.decision)
            # The branch above is fallback handling when a fallback ran,
            # event/bookkeeping overhead otherwise.
            branch = time.perf_counter() - mark
            mark += branch
            events_extra = 0.0
            if outcome.path == "primary":
                phases["fallback"] = 0.0
                events_extra = branch
            else:
                phases["fallback"] = branch

            self._last = self.session._steps[-1]
            self.paths.append(outcome.path)
            self._outcomes.append(outcome)
            with obs_tracing.span("serve.events", t=t):
                self.log.emit(
                    "slot_decided",
                    t=t,
                    path=outcome.path,
                    wall_time=outcome.wall_time,
                    deadline_missed=outcome.deadline_missed,
                    served=outcome.served,
                    error=outcome.error,
                )
            phases["events"] = time.perf_counter() - mark + events_extra
            outcome.phases = phases
            span.set(path=outcome.path, wall_time=outcome.wall_time)
        return outcome

    def _publish_slot(self, outcome: SlotOutcome) -> None:
        """Record the slot's latency and phase breakdown in the registry."""
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

    def _fallback(self, t: int, slot: SlotData, reason: "str | None") -> SlotOutcome:
        net = self.source.network
        missed = reason == "stall"
        held = self._last
        if held is not None and covers(net, held, slot.workload, self.config.hold_tol):
            return SlotOutcome(
                t, "hold", 0.0,
                deadline_missed=missed, error=reason, decision=held.copy(),
            )
        decision, served = greedy_cover(net, slot.workload)
        return SlotOutcome(
            t, "greedy", 0.0,
            deadline_missed=missed, served=served, error=reason, decision=decision,
        )

    def _step_with_timeout(self, slot: SlotData, deadline: float):
        box: dict = {}

        def work() -> None:
            try:
                box["decision"] = self.session.step(slot)
            except BaseException as exc:  # noqa: BLE001 — rethrown below
                box["error"] = exc

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        worker.join(deadline)
        if worker.is_alive():
            raise SolverStall(f"solve exceeded deadline budget {deadline}s")
        if "error" in box:
            raise box["error"]
        return box["decision"]

    def _fork_session(self, t: int) -> None:
        """Replace a session whose step was abandoned mid-solve.

        The zombie worker holds references to the *old* session and
        state; the fork copies the bookkeeping up to slot ``t`` into a
        fresh session with freshly-built carried state anchored at the
        last applied decision, so nothing the zombie later does is
        observable.
        """
        old = self.session
        fresh = SolveSession(
            self.controller, self._session_source(), initial=self._last
        )
        fresh.t = t
        fresh._steps = list(old._steps[:t])
        fresh._step_stats = list(old._step_stats[:t])
        self.session = fresh

    # ------------------------------------------------------------------
    def _write_checkpoint(self) -> None:
        """Append the slots decided since the last write, then replace the carry."""
        cfg = self.config
        snapshot = self.session.export_state()
        save_checkpoint(
            cfg.checkpoint_path,
            snapshot,
            controller_name=self.controller.name,
            paths=self.paths,
            journaled=self._journaled,
        )
        self._journaled = len(snapshot["steps"])
        self.log.emit(
            "checkpoint_written",
            t=self.session.t,
            path=str(cfg.checkpoint_path),
            n_steps=self._journaled,
        )
        # Checkpoints are the durability boundary: make the trace and
        # telemetry streams on disk at least as current as the
        # checkpoint, so a kill loses no span/snapshot that led to a
        # durable slot.
        tracer = obs_tracing.active()
        if tracer is not None:
            tracer.flush()
        sink = obs_telemetry.active_sink()
        if sink is not None:
            sink.flush(force=True)

    def _finish(self, error: "str | None") -> ServeReport:
        summary = summarize_events(self.log.events)
        self.log.emit("serve_end", t=self.session.t, **summary, error=error)
        trajectory = self.session.trajectory() if self.session.t else None
        return ServeReport(
            outcomes=list(self._outcomes),
            trajectory=trajectory,
            summary=summary,
            error=error,
            paths=list(self.paths),
        )
