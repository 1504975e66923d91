"""Unified observability layer: metrics, tracing, exporters.

One dependency-free subsystem answers "where did the time go?" across
every layer of the library (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  fixed-bucket histograms (p50/p95/p99 estimation), **disabled by
  default**: while no registry is active, instrumented code receives
  shared no-op instruments and pays essentially nothing;
* :mod:`repro.obs.tracing` — a span tracer with per-thread nesting and
  optional JSONL streaming, same no-op default;
* :mod:`repro.obs.export` — Prometheus text / human table / JSON
  exporters over the plain-dict snapshot format;
* :mod:`repro.obs.telemetry` — streaming per-process JSONL sinks plus
  a cross-process :class:`~repro.obs.telemetry.TelemetryAggregator`
  whose merge is associative/commutative/idempotent, and the
  ``telemetry watch`` console view;
* :mod:`repro.obs.health` — online algorithm-health gauges (empirical
  competitive ratio, switching-cost share, SLO burn rate) and
  declarative alert rules.  It needs numpy, so unlike the rest of the
  package it is **not** imported here — ``repro.obs`` itself stays
  importable on a bare stdlib.

Instrumented layers: the barrier solver (Newton iterations, line-search
backtracks, factorization time), the solve engine (per-step stats routed
through :func:`repro.engine.stats.publish_step_stats`), and the serve
runtime (per-slot phase accounting + events routed through
:func:`repro.serve.events.publish_event`).  The CLI's ``--metrics PATH``
flag enables everything for one run and writes the exports.
"""

from repro.obs import export, metrics, telemetry, tracing
from repro.obs.export import (
    describe_snapshot,
    load_snapshot_json,
    parse_prometheus,
    to_prometheus,
    write_prometheus,
    write_snapshot_json,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry_from_snapshot,
)
from repro.obs.telemetry import (
    SINK_SUFFIX,
    TELEMETRY_SCHEMA,
    TelemetryAggregator,
    TelemetrySink,
    deterministic_view,
    merge_snapshot_into,
    merge_snapshots,
    read_sink,
    replay_sink,
)
from repro.obs.tracing import TRACE_SCHEMA, Span, Tracer, read_trace

__all__ = [
    "metrics",
    "tracing",
    "export",
    "telemetry",
    "TelemetrySink",
    "TelemetryAggregator",
    "read_sink",
    "replay_sink",
    "merge_snapshots",
    "merge_snapshot_into",
    "deterministic_view",
    "TELEMETRY_SCHEMA",
    "SINK_SUFFIX",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "registry_from_snapshot",
    "DEFAULT_BUCKETS",
    "METRICS_SCHEMA",
    "Tracer",
    "Span",
    "read_trace",
    "TRACE_SCHEMA",
    "to_prometheus",
    "parse_prometheus",
    "describe_snapshot",
    "write_prometheus",
    "write_snapshot_json",
    "load_snapshot_json",
]
