"""Span tracing of the program's layers from outside the program.

The traced run replaces the calls listed in :data:`PATCHES` with
timing wrappers, at the name the caller looks them up by, for the
duration of one episode only.  They are the layers' public calls plus
the serve loop's own per-slot steps (``_serve_slot``, ``_publish_slot``),
so that the loop's bookkeeping is timed as ``serve.runtime`` work; what
no span but ``ServeLoop.run`` covers is unattributed glue.  Each call
records one span ``[name, start, end, parent, slot]`` in memory; the
spans are written out when the episode ends.  Self time (duration minus
direct children) splits a slot's latency across the layers.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

from perfbench import stats

#: (span name, module, owner class or None for a module function, attribute).
PATCHES = (
    ("serve.runtime.run", "repro.serve.runtime", "ServeLoop", "run"),
    ("serve.sources.read", "repro.serve.sources", "InstanceSource", "slots"),
    ("serve.runtime.slot", "repro.serve.runtime", "ServeLoop", "_serve_slot"),
    ("serve.runtime.publish", "repro.serve.runtime", "ServeLoop", "_publish_slot"),
    ("engine.session.step", "repro.engine.session", "SolveSession", "step"),
    ("engine.session.export", "repro.engine.session", "SolveSession", "export_state"),
    ("engine.stats.publish", "repro.engine.session", None, "publish_step_stats"),
    ("solvers.backends.solve", "repro.solvers.backends.batched",
     "BatchedNewtonBackend", "solve"),
    ("core.subproblem.build", "repro.core.subproblem", "RegularizedSubproblem", "build"),
    ("solvers.barrier.solve", "repro.solvers.convex", "SmoothConvexProgram", "solve"),
    ("serve.events.emit", "repro.serve.events", "EventLog", "emit"),
    ("serve.checkpoint.write", "repro.serve.runtime", None, "save_checkpoint"),
    ("serve.checkpoint.restore", "repro.serve.runtime", None, "load_checkpoint"),
    ("obs.telemetry.flush", "repro.obs.telemetry", "TelemetrySink", "flush"),
    ("obs.telemetry.autoflush", "repro.obs.telemetry", None, "autoflush"),
    ("obs.health.observe", "repro.obs.health", "HealthMonitor", "observe_slot"),
)

#: The serve loop's own span: its self time is loop glue no layer covers.
ROOT_SPAN = PATCHES[0][0]

#: Fallback reasons of ``BatchedNewtonBackend.solve`` (``bail(...)`` sites).
FALLBACK_REASONS = (
    "hedge_y_on_star",
    "star_link_at_capacity",
    "degenerate_link_objective",
    "degenerate_tier2_objective",
    "single_component",
    "star_cloud_at_capacity",
    "no_interior_candidate",
    "batched_newton_stalled",
    "hedge_x_violation",
)


class SpanRecorder:
    """In-memory span list; ``slot`` is the slot the next spans belong to."""

    def __init__(self, slot: int = 0) -> None:
        self.spans: "list[list]" = []
        self.slot = slot
        self.checkpoint_bytes = 0
        self._open: "list[int]" = []

    def wrap(self, name: str, fn):
        spans, open_, clock, recorder = self.spans, self._open, time.perf_counter, self

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, open_[-1] if open_ else -1, recorder.slot]
            open_.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()

        return traced

    def wrap_slots(self, name: str, slots_fn):
        """Trace each ``next()`` of a source's ``slots()`` iterator."""
        spans, open_, clock, recorder = self.spans, self._open, time.perf_counter, self

        def traced_slots(source, start: int = 0):
            it = slots_fn(source, start)
            while True:
                rec = [name, clock(), 0.0, open_[-1] if open_ else -1, recorder.slot]
                open_.append(len(spans))
                spans.append(rec)
                try:
                    slot = next(it)
                except StopIteration:
                    return
                finally:
                    rec[2] = clock()
                    open_.pop()
                yield slot

        return traced_slots

    def write(self, path: "str | Path") -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, slot in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "slot": slot}
                ) + "\n")


@contextmanager
def patched(recorder: SpanRecorder):
    """Install the :data:`PATCHES` wrappers; restore the originals on exit."""
    saved = []
    try:
        for name, module, owner, attr in PATCHES:
            mod = importlib.import_module(module)
            target = getattr(mod, owner) if owner else mod
            orig = getattr(target, attr)
            if attr == "slots":
                wrapper = recorder.wrap_slots(name, orig)
            else:
                wrapper = recorder.wrap(name, orig)
            if attr == "save_checkpoint":
                wrapper = _sized(recorder, wrapper)
            setattr(target, attr, wrapper)
            saved.append((target, attr, orig))
        yield recorder
    finally:
        for target, attr, orig in reversed(saved):
            setattr(target, attr, orig)


def _sized(recorder: SpanRecorder, traced_save):
    """Add each written checkpoint's file size, outside its span."""

    def save(*args, **kwargs):
        path = traced_save(*args, **kwargs)
        recorder.checkpoint_bytes += os.path.getsize(path)
        return path

    return save


def registry_totals(snapshot: dict) -> "dict[str, float]":
    """Counter values (and histogram sums) keyed ``name`` and ``name{reason}``."""
    totals: "dict[str, float]" = {}
    for entry in snapshot["metrics"]:
        value = entry["sum"] if entry["type"] == "histogram" else entry["value"]
        if value is None:
            continue
        name = entry["name"]
        totals[name] = totals.get(name, 0.0) + value
        reason = entry["labels"].get("reason")
        if reason is not None:
            key = f"{name}{{{reason}}}"
            totals[key] = totals.get(key, 0.0) + value
    return totals


def layer_metrics(spans, stamps, counters: dict, extra: dict) -> dict:
    """Per-layer metrics of one traced episode.

    ``stamps`` are the slot completion times; the timed window runs
    from the first to the last (slot latency is the gap between
    consecutive completions), and per-slot values divide the layer's
    self time inside it by the slots it holds.  The serve loop's own
    span (``ServeLoop.run``) has the untimed loop glue as its self time:
    that is ``serve.runtime.overhead_ms``.  It is *not* attributed, so
    ``serve.runtime.attributed_frac`` is the share of the window that
    the layer spans cover.  Counts are per episode.
    ``counters`` comes from :func:`registry_totals`; ``extra`` carries
    the set-up times, byte counts and event count the episode measured
    directly.
    """
    n = len(stamps) - 1
    latency = stamps[-1] - stamps[0]
    by_layer = stats.self_times(spans, stamps[0], stamps[-1])
    restore = sum(s[2] - s[1] for s in spans if s[0] == "serve.checkpoint.restore")

    def per_slot_ms(layer: str) -> float:
        return 1e3 * by_layer.get(layer, 0.0) / n

    backend_slots = counters.get("backend_slots_total", 0.0)
    fallbacks = counters.get("backend_sequential_fallbacks_total", 0.0)
    warm_tries = counters.get("engine_warm_attempts_total", 0.0)
    slots_total = counters.get("engine_steps_total", 0.0) or 1.0
    m = {
        "setup.instance_ms": 1e3 * extra["instance_s"],
        "setup.loop_ms": 1e3 * extra["loop_s"],
        "serve.sources.read_ms": per_slot_ms("serve.sources.read"),
        "serve.runtime.overhead_ms": per_slot_ms(ROOT_SPAN),
        "serve.runtime.first_slot_ms": 1e3 * extra["first_slot_s"],
        "serve.runtime.slot_self_ms": per_slot_ms("serve.runtime.slot"),
        "serve.runtime.publish_ms": per_slot_ms("serve.runtime.publish"),
        "serve.runtime.attributed_frac": sum(
            own for layer, own in by_layer.items() if layer != ROOT_SPAN
        ) / latency,
        "engine.session.step_self_ms": per_slot_ms("engine.session.step"),
        "engine.session.export_ms": per_slot_ms("engine.session.export"),
        "engine.stats.publish_ms": per_slot_ms("engine.stats.publish"),
        "engine.session.history_mb": extra["history_bytes"] / 1e6,
        "solvers.backends.solve_self_ms": per_slot_ms("solvers.backends.solve"),
        "solvers.backends.star_components":
            counters.get("backend_fast_path_hits_total", 0.0) / slots_total,
    }
    for reason in FALLBACK_REASONS:
        m[f"solvers.backends.fallbacks.{reason}"] = counters.get(
            f"backend_sequential_fallbacks_total{{{reason}}}", 0.0
        )
    m.update({
        "solvers.backends.fallback_frac":
            fallbacks / (backend_slots + fallbacks) if backend_slots + fallbacks else 0.0,
        "core.subproblem.build_ms": per_slot_ms("core.subproblem.build"),
        "core.subproblem.builds": float(
            sum(1 for s in spans if s[0] == "core.subproblem.build")
        ),
        "core.subproblem.warm_hit_ratio":
            counters.get("engine_warm_hits_total", 0.0) / warm_tries if warm_tries else 0.0,
        "solvers.barrier.solve_ms": per_slot_ms("solvers.barrier.solve"),
        "solvers.barrier.newton_iters":
            counters.get("solver_newton_iters_total", 0.0) / slots_total,
        "solvers.barrier.backtracks":
            counters.get("solver_backtracks_total", 0.0) / slots_total,
        "solvers.barrier.factorization_ms":
            1e3 * counters.get("solver_factorization_seconds", 0.0) / slots_total,
        "serve.events.emit_ms": per_slot_ms("serve.events.emit"),
        "serve.events.emitted": float(extra["events"]),
        "serve.events.bytes": extra["event_bytes"] / slots_total,
        "serve.checkpoint.write_ms": per_slot_ms("serve.checkpoint.write"),
        "serve.checkpoint.writes": float(
            sum(1 for s in spans if s[0] == "serve.checkpoint.write")
        ),
        "serve.checkpoint.bytes": extra["checkpoint_bytes"] / slots_total,
        "serve.checkpoint.restore_ms": 1e3 * restore,
        "obs.telemetry.flush_ms": per_slot_ms("obs.telemetry.flush"),
        "obs.telemetry.autoflush_ms": per_slot_ms("obs.telemetry.autoflush"),
        "obs.telemetry.flushes": float(extra["telemetry_records"]),
        "obs.telemetry.bytes": extra["telemetry_bytes"] / slots_total,
        "obs.health.observe_ms": per_slot_ms("obs.health.observe"),
    })
    return m
