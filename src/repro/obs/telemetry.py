"""Streaming telemetry pipeline: per-process sinks + cross-process merge.

The metrics registry (:mod:`repro.obs.metrics`) aggregates one
process's instruments; this module streams that state *out* of the
process and merges many processes' streams back into one registry —
the measurement substrate for parallel sweeps (``--jobs``) and the
serve runtime.

Three pieces:

* :class:`TelemetrySink` — periodically writes delta-encoded registry
  snapshots to one JSONL file per process inside a shared telemetry
  directory.  Every record carries *absolute* instrument state (only
  the entries that changed since the last flush), so replaying a
  sink's records reconstructs the registry exactly as of its last
  flush, a torn final line (crash mid-write) loses at most the last
  interval, and re-applying a record is a no-op.
* :class:`TelemetryAggregator` — tails every sink file under a
  directory and merges them into one registry.  Ingestion is keyed by
  ``(sink, seq)``: re-ingesting a record is a no-op and ingestion
  order never matters, so the merge is associative, commutative and
  idempotent (property-tested).  Across sinks, counters and histogram
  aggregates are summed and gauges joined by ``max`` (the "worst of
  any process" reading, and the lattice join that keeps the merge
  order-free).  The merged state round-trips through the exact
  snapshot format — :func:`repro.obs.metrics.registry_from_snapshot`
  rebuilds the combined registry.
* a ``repro top``-style console view (:func:`render_watch`) over any
  snapshot — live per-phase latencies, backend/cache op counts,
  fallback counts and health gauges — behind ``repro telemetry watch``
  and ``repro serve --watch``.

An *ambient* sink (:func:`attach` / :func:`autoflush`) lets hot loops
flush on a cadence with one module-global check per step, mirroring
how the registry itself is activated.

This module is dependency-free (stdlib only), like the rest of
:mod:`repro.obs`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    estimate_percentile,
    registry_from_snapshot,
)

#: Schema identifier stamped on every telemetry record.
TELEMETRY_SCHEMA = "repro-telemetry/v1"

#: File-name suffix the aggregator discovers sinks by.
SINK_SUFFIX = ".telemetry.jsonl"


def _entry_key(entry: dict) -> "tuple[str, tuple]":
    """The ``(name, labels)`` identity of one snapshot entry.

    Matches the ordering key :meth:`MetricsRegistry.snapshot` sorts by,
    so folded states list entries in the exact snapshot order.
    """
    return (
        entry["name"],
        tuple(sorted((str(k), str(v)) for k, v in entry["labels"].items())),
    )


# ----------------------------------------------------------------------
# Sink: one JSONL stream per process
# ----------------------------------------------------------------------
class TelemetrySink:
    """Streams delta-encoded registry snapshots to a per-process file.

    Parameters
    ----------
    directory:
        Shared telemetry directory (created if missing).  Each sink
        owns one ``<sink_id>.telemetry.jsonl`` file inside it; the id
        defaults to ``proc-<pid>`` and is suffixed on collision so two
        runs never interleave writes into one file.
    registry:
        Registry to snapshot; defaults to whichever registry is
        *active* at each flush (so a sink can be created before
        :func:`repro.obs.metrics.enable`).
    label:
        Base sink id instead of ``proc-<pid>`` (tests, sweep workers).
    full_every:
        Every ``full_every``-th record carries the complete snapshot
        instead of a delta, bounding how far back a tailing reader
        must look to bootstrap.
    min_interval_s:
        Cadence floor for non-forced flushes (:meth:`flush` with
        ``force=False``): calls inside the interval are free no-ops,
        so hot loops can call unconditionally.

    Records are single JSON lines appended and flushed immediately —
    one writer per file, so appends never interleave, and a crash can
    only tear the final line (which readers skip).  Delta entries
    carry *absolute* values of the families that changed, never
    increments: replay is a per-entry overwrite, and applying a record
    twice changes nothing.
    """

    def __init__(
        self,
        directory: "str | Path",
        registry: "MetricsRegistry | None" = None,
        label: "str | None" = None,
        full_every: int = 50,
        min_interval_s: float = 0.0,
    ) -> None:
        if full_every < 1:
            raise ValueError(f"full_every must be >= 1, got {full_every}")
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.registry = registry
        self.full_every = int(full_every)
        self.min_interval_s = float(min_interval_s)
        base = label if label else f"proc-{os.getpid()}"
        self.sink_id, path = base, self.dir / f"{base}{SINK_SUFFIX}"
        n = 0
        while path.exists():
            n += 1
            self.sink_id = f"{base}-{n}"
            path = self.dir / f"{self.sink_id}{SINK_SUFFIX}"
        self.path = path
        self.seq = 0
        self._last: "dict[tuple, dict]" = {}
        self._last_flush = float("-inf")
        self._fh = open(self.path, "a", encoding="utf-8")

    def _resolve_registry(self) -> "MetricsRegistry | None":
        return self.registry if self.registry is not None else obs_metrics.active()

    def flush(self, force: bool = True) -> bool:
        """Write one record if anything changed; returns whether it did.

        ``force=False`` additionally respects ``min_interval_s`` so
        per-step call sites stay cheap.
        """
        if self._fh is None:
            return False
        if (
            not force
            and self.min_interval_s > 0
            and time.monotonic() - self._last_flush < self.min_interval_s
        ):
            return False
        reg = self._resolve_registry()
        if reg is None:
            return False
        entries = reg.snapshot()["metrics"]
        current = {_entry_key(e): e for e in entries}
        kind = "full" if self.seq % self.full_every == 0 else "delta"
        payload = (
            entries
            if kind == "full"
            else [e for e in entries if self._last.get(_entry_key(e)) != e]
        )
        self._last_flush = time.monotonic()
        if not payload and self.seq > 0:
            return False
        record = {
            "schema": TELEMETRY_SCHEMA,
            "sink": self.sink_id,
            "seq": self.seq,
            "kind": kind,
            "metrics": payload,
        }
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        self._last = current
        self.seq += 1
        return True

    def close(self) -> None:
        """Final flush and release the file handle."""
        if self._fh is None:
            return
        self.flush(force=True)
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_sink(path: "str | Path") -> "list[dict]":
    """Load a sink file's records, tolerating a torn final line.

    A record line that fails to parse is an error — unless it is the
    *last* line of the file, which a crash mid-append legitimately
    truncates; that line is skipped.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    records: "list[dict]" = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if i == len(lines):  # torn tail from a crashed writer
                break
            raise ValueError(
                f"{path}: malformed telemetry record on line {i}: {exc}"
            ) from exc
        if record.get("schema") != TELEMETRY_SCHEMA:
            raise ValueError(
                f"{path}: unsupported telemetry schema "
                f"{record.get('schema')!r} on line {i}"
            )
        records.append(record)
    return records


def replay_sink(records: "list[dict]") -> dict:
    """Fold one sink's records into its registry snapshot at last flush.

    Records apply in ``seq`` order as per-entry overwrites (entries
    carry absolute state), so duplicates and replays are no-ops and
    the result equals the source registry's own ``snapshot()``
    exactly — the round trip the delta encoding is tested against.
    """
    entries: "dict[tuple, dict]" = {}
    for record in sorted(records, key=lambda r: int(r["seq"])):
        for entry in record["metrics"]:
            entries[_entry_key(entry)] = entry
    return {
        "schema": METRICS_SCHEMA,
        "metrics": [entries[k] for k in sorted(entries)],
    }


# ----------------------------------------------------------------------
# Cross-sink merge
# ----------------------------------------------------------------------
def merge_entry(a: dict, b: dict) -> dict:
    """Join two snapshot entries of the same ``(name, labels)``.

    Counters and histogram aggregates sum (each sink's values are
    disjoint contributions); gauges join by ``max`` — the order-free
    lattice join, read as "the worst any process reports" for the
    health gauges this layer monitors.
    """
    if a["type"] != b["type"]:
        raise ValueError(
            f"metric {a['name']!r} is a {a['type']} in one sink and a "
            f"{b['type']} in another; sinks disagree on the family kind"
        )
    out = dict(a)
    out["help"] = a.get("help") or b.get("help") or ""
    if a["type"] == "counter":
        out["value"] = float(a["value"]) + float(b["value"])
    elif a["type"] == "gauge":
        out["value"] = max(float(a["value"]), float(b["value"]))
    else:  # histogram
        if list(a["buckets"]) != list(b["buckets"]):
            raise ValueError(
                f"histogram {a['name']!r} has bucket layout {a['buckets']} "
                f"in one sink and {b['buckets']} in another"
            )
        out["counts"] = [int(x) + int(y) for x, y in zip(a["counts"], b["counts"])]
        out["sum"] = float(a["sum"]) + float(b["sum"])
        out["count"] = int(a["count"]) + int(b["count"])
        mins = [m for m in (a["min"], b["min"]) if m is not None]
        maxs = [m for m in (a["max"], b["max"]) if m is not None]
        out["min"] = min(mins) if mins else None
        out["max"] = max(maxs) if maxs else None
    return out


def merge_snapshots(snapshots: "list[dict]") -> dict:
    """Combine per-process snapshots into one merged snapshot.

    Entry-wise :func:`merge_entry`; the result is a valid
    ``repro-metrics/v1`` snapshot, so
    :func:`~repro.obs.metrics.registry_from_snapshot` rebuilds the
    combined registry and every exporter applies unchanged.
    """
    entries: "dict[tuple, dict]" = {}
    for snapshot in snapshots:
        if snapshot.get("schema") != METRICS_SCHEMA:
            raise ValueError(
                f"unsupported metrics snapshot schema {snapshot.get('schema')!r}"
            )
        for entry in snapshot["metrics"]:
            key = _entry_key(entry)
            have = entries.get(key)
            entries[key] = dict(entry) if have is None else merge_entry(have, entry)
    return {
        "schema": METRICS_SCHEMA,
        "metrics": [entries[k] for k in sorted(entries)],
    }


def merge_snapshot_into(registry: MetricsRegistry, snapshot: dict) -> None:
    """Fold a merged snapshot into a live registry (same join rules).

    Used by the parallel sweep runner to land worker telemetry in the
    coordinator's ``--metrics`` registry.
    """
    for entry in snapshot["metrics"]:
        name, labels, help_ = entry["name"], entry["labels"], entry.get("help", "")
        if entry["type"] == "counter":
            registry.counter(name, help=help_, **labels).inc(float(entry["value"]))
        elif entry["type"] == "gauge":
            gauge = registry.gauge(name, help=help_, **labels)
            gauge.set(max(gauge.value, float(entry["value"])))
        else:
            hist = registry.histogram(
                name, help=help_, buckets=tuple(entry["buckets"]), **labels
            )
            hist.counts = [
                int(x) + int(y) for x, y in zip(hist.counts, entry["counts"])
            ]
            hist.sum += float(entry["sum"])
            hist.count += int(entry["count"])
            if entry["min"] is not None:
                hist.min = min(hist.min, float(entry["min"]))
            if entry["max"] is not None:
                hist.max = max(hist.max, float(entry["max"]))


class TelemetryAggregator:
    """Tails every sink under a directory and merges them into one view.

    ``poll()`` reads any bytes appended since the last poll (complete
    lines only — a torn tail is left for the next poll), and
    ``ingest()`` applies one record keyed by ``(sink, seq)``: already
    seen pairs are skipped, so ingestion is idempotent and
    order-independent and the merged state is a pure function of the
    record *set*.  Sink files are discovered recursively, so sweep
    subdirectories all land in one view.
    """

    def __init__(self, directory: "str | Path") -> None:
        self.dir = Path(directory)
        self._records: "dict[str, dict[int, dict]]" = {}
        self._offsets: "dict[Path, int]" = {}

    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Ingest new records from every sink file; returns how many."""
        ingested = 0
        if not self.dir.exists():
            return 0
        for path in sorted(self.dir.rglob(f"*{SINK_SUFFIX}")):
            ingested += self._poll_file(path)
        return ingested

    def _poll_file(self, path: Path) -> int:
        offset = self._offsets.get(path, 0)
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                data = fh.read()
        except OSError:
            return 0  # vanished between glob and open
        end = data.rfind(b"\n")
        if end < 0:
            return 0  # nothing complete yet
        self._offsets[path] = offset + end + 1
        ingested = 0
        for line in data[:end].decode("utf-8").split("\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: malformed telemetry record: {exc}"
                ) from exc
            ingested += int(self.ingest(record))
        return ingested

    def ingest(self, record: dict) -> bool:
        """Apply one record; returns False if ``(sink, seq)`` was seen."""
        if record.get("schema") != TELEMETRY_SCHEMA:
            raise ValueError(
                f"unsupported telemetry schema {record.get('schema')!r}"
            )
        seqs = self._records.setdefault(str(record["sink"]), {})
        seq = int(record["seq"])
        if seq in seqs:
            return False
        seqs[seq] = record
        # A full record supersedes everything before it; drop the
        # superseded prefix so long-lived aggregations stay bounded.
        if record.get("kind") == "full":
            for old in [s for s in seqs if s < seq]:
                del seqs[old]
        return True

    # ------------------------------------------------------------------
    def sink_ids(self) -> "list[str]":
        return sorted(self._records)

    def sink_snapshot(self, sink_id: str) -> dict:
        """The reconstructed snapshot of one sink's latest state."""
        return replay_sink(list(self._records[sink_id].values()))

    def merged_snapshot(self) -> dict:
        """All sinks combined (see :func:`merge_snapshots`)."""
        return merge_snapshots(
            [self.sink_snapshot(s) for s in self.sink_ids()]
        )

    def merged(self) -> MetricsRegistry:
        """The combined registry, via the exact snapshot round trip."""
        return registry_from_snapshot(self.merged_snapshot())


# ----------------------------------------------------------------------
# Deterministic view (CI: parallel == serial)
# ----------------------------------------------------------------------
def deterministic_view(snapshot: dict) -> dict:
    """The run-invariant projection of a snapshot.

    Counter values and histogram *observation counts* are pure
    functions of the work performed, so they must be byte-identical
    between a serial sweep and an aggregator-merged parallel sweep of
    the same points (CI asserts this).  Wall-time-valued fields
    (histogram sums/buckets/min/max) and instantaneous gauges are
    dropped — they measure the machine, not the work.
    """
    metrics = []
    for entry in snapshot["metrics"]:
        if entry["type"] == "counter":
            metrics.append(
                {
                    "name": entry["name"],
                    "type": "counter",
                    "labels": dict(entry["labels"]),
                    "value": entry["value"],
                }
            )
        elif entry["type"] == "histogram":
            metrics.append(
                {
                    "name": entry["name"],
                    "type": "histogram",
                    "labels": dict(entry["labels"]),
                    "count": entry["count"],
                }
            )
    return {"schema": f"{METRICS_SCHEMA}#deterministic", "metrics": metrics}


# ----------------------------------------------------------------------
# Ambient sink (autoflush from hot loops)
# ----------------------------------------------------------------------
_active_sink: "TelemetrySink | None" = None


def attach(
    directory: "str | Path",
    registry: "MetricsRegistry | None" = None,
    label: "str | None" = None,
    min_interval_s: float = 1.0,
    **kwargs,
) -> TelemetrySink:
    """Install a sink as the process-wide autoflush target."""
    global _active_sink
    if _active_sink is not None:
        _active_sink.close()
    _active_sink = TelemetrySink(
        directory,
        registry=registry,
        label=label,
        min_interval_s=min_interval_s,
        **kwargs,
    )
    return _active_sink


def detach() -> None:
    """Close and uninstall the ambient sink (final state is flushed)."""
    global _active_sink
    if _active_sink is not None:
        _active_sink.close()
    _active_sink = None


def active_sink() -> "TelemetrySink | None":
    return _active_sink


def forget_inherited() -> None:
    """Drop a fork-inherited ambient sink without touching its file.

    A forked worker process shares the parent's sink object *and* file
    descriptor; :func:`detach` would final-flush the parent's stream
    from the child (duplicate seq, interleaved appends).  Workers call
    this before installing their own sink: the child's reference is
    severed, the parent's stream is untouched.
    """
    global _active_sink
    if _active_sink is not None:
        _active_sink._fh = None
        _active_sink = None


def active_dir() -> "str | None":
    """The ambient sink's telemetry directory, or ``None``."""
    return None if _active_sink is None else str(_active_sink.dir)


def autoflush() -> bool:
    """Cadenced flush of the ambient sink; safe to call per step.

    The engine calls this once per :meth:`SolveSession.step` so long
    in-process runs stream their registry without any plumbing; the
    cost while no sink is attached is one module-global check.
    """
    sink = _active_sink
    if sink is None:
        return False
    return sink.flush(force=False)


# ----------------------------------------------------------------------
# Watch view
# ----------------------------------------------------------------------
#: ANSI clear-screen-and-home, written before each watch repaint.
CLEAR_SCREEN = "\x1b[H\x1b[2J"

_WATCH_COUNTERS = (
    "serve_slots_total",
    "serve_fallbacks_total",
    "serve_deadline_misses_total",
    "serve_unserved_total",
    "serve_alerts_total",
    "serve_checkpoints_total",
    "engine_steps_total",
    "engine_newton_iters_total",
    "backend_slots_total",
    "backend_fast_path_hits_total",
    "backend_sequential_fallbacks_total",
    "solver_cache_ops_total",
)


def _label_suffix(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def render_watch(snapshot: dict, title: str = "telemetry") -> str:
    """A compact ``repro top``-style text dashboard of a snapshot.

    Three sections: per-phase serve latency (count/mean/p95), the
    operational counters (slots by path, fallbacks, backend/cache
    ops) and the ``health_*`` gauges.  Pure text — the watch loops repaint it
    with :data:`CLEAR_SCREEN`; tests render it once.
    """
    phases: "list[tuple]" = []
    counters: "list[tuple]" = []
    gauges: "list[tuple]" = []
    slots = 0.0
    for entry in snapshot["metrics"]:
        name, labels = entry["name"], entry["labels"]
        if entry["type"] == "histogram" and name in (
            "serve_phase_seconds",
            "serve_slot_seconds",
            "engine_step_seconds",
        ):
            count = entry["count"]
            mean = entry["sum"] / count if count else 0.0
            mn = entry["min"] if entry["min"] is not None else 0.0
            mx = entry["max"] if entry["max"] is not None else 0.0
            p95 = estimate_percentile(
                tuple(entry["buckets"]), entry["counts"], mn, mx, 0.95
            )
            phases.append(
                (
                    name + _label_suffix(labels),
                    count,
                    f"{mean * 1e3:.3f}",
                    f"{p95 * 1e3:.3f}",
                )
            )
        elif entry["type"] == "counter" and name in _WATCH_COUNTERS:
            if name == "serve_slots_total":
                slots += float(entry["value"])
            counters.append((name + _label_suffix(labels), f"{entry['value']:g}"))
        elif entry["type"] == "gauge" and name.startswith("health_"):
            gauges.append((name + _label_suffix(labels), f"{entry['value']:.4g}"))
    parts = [f"== {title} ==  slots decided: {slots:g}"]

    def table(headers: "list[str]", rows: "list[tuple]") -> str:
        cells = [[str(v) for v in row] for row in rows]
        widths = [
            max(len(h), *(len(r[c]) for r in cells)) if cells else len(h)
            for c, h in enumerate(headers)
        ]
        line = lambda ps: "  ".join(p.ljust(w) for p, w in zip(ps, widths))
        return "\n".join(
            [line(headers), line(["-" * w for w in widths])]
            + [line(r) for r in cells]
        )

    if phases:
        parts.append(table(["latency", "count", "mean [ms]", "p95 [ms]"], phases))
    if counters:
        parts.append(table(["counter", "value"], counters))
    if gauges:
        parts.append(table(["health gauge", "value"], gauges))
    if len(parts) == 1:
        parts.append("(no telemetry yet)")
    return "\n\n".join(parts)


def watch(
    directory: "str | Path",
    interval_s: float = 1.0,
    iterations: "int | None" = None,
    out=None,
    clear: bool = True,
) -> None:
    """Tail a telemetry directory and repaint the watch view live.

    ``iterations=None`` runs until interrupted (Ctrl-C exits cleanly);
    tests and CI pass a small count.  ``clear=False`` appends frames
    instead of repainting (non-TTY logs).
    """
    out = sys.stdout if out is None else out
    aggregator = TelemetryAggregator(directory)
    n = 0
    try:
        while True:
            aggregator.poll()
            frame = render_watch(
                aggregator.merged_snapshot(),
                title=f"telemetry {directory} [{len(aggregator.sink_ids())} sinks]",
            )
            if clear:
                out.write(CLEAR_SCREEN)
            out.write(frame + "\n")
            out.flush()
            n += 1
            if iterations is not None and n >= iterations:
                return
            time.sleep(interval_s)
    except KeyboardInterrupt:
        return
