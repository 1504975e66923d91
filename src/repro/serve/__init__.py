"""The fault-tolerant streaming allocation runtime.

Layers, bottom to top:

* :mod:`repro.serve.sources` — :class:`SlotSource` implementations
  yielding validated per-slot inputs (in-memory instances, hourly CSV
  traces, replayable JSONL feeds);
* :mod:`repro.serve.faults` — deterministic solver stall/failure
  injection used to exercise the fallback chain;
* :mod:`repro.serve.events` — the structured JSONL event log every
  run emits (consumed by ``repro replay`` and
  :func:`repro.evaluation.reporting.render_serve_events`);
* :mod:`repro.serve.checkpoint` — checkpoints (an atomically replaced
  carry file plus an append-only decision journal) enabling
  bitwise-identical resume of a killed run;
* :mod:`repro.serve.runtime` — :class:`ServeLoop`, the deadline-aware
  loop with the hold/greedy fallback chain.

See ``docs/SERVING.md`` for the architecture and the ``repro serve`` /
``repro replay`` CLI entry points.
"""

from repro.serve.checkpoint import CHECKPOINT_SCHEMA, load_checkpoint, save_checkpoint
from repro.serve.events import (
    EVENT_SCHEMA,
    EventLog,
    read_events,
    summarize_events,
)
from repro.serve.faults import FaultInjector, SolverFailure, SolverStall
from repro.serve.runtime import (
    ServeConfig,
    ServeLoop,
    ServeReport,
    SlotOutcome,
    covers,
    greedy_cover,
)
from repro.serve.sources import (
    FEED_SCHEMA,
    InstanceSource,
    JSONLSource,
    SlotSource,
    TraceCSVSource,
    as_source,
    write_feed,
)

__all__ = [
    "ServeLoop",
    "ServeConfig",
    "ServeReport",
    "SlotOutcome",
    "greedy_cover",
    "covers",
    "SlotSource",
    "InstanceSource",
    "TraceCSVSource",
    "JSONLSource",
    "as_source",
    "write_feed",
    "FEED_SCHEMA",
    "FaultInjector",
    "SolverStall",
    "SolverFailure",
    "EventLog",
    "read_events",
    "summarize_events",
    "EVENT_SCHEMA",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_SCHEMA",
]
