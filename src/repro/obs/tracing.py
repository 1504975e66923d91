"""Span-based tracer with nested phase timing and a no-op default.

A *span* is one timed phase of work (``engine.step``, ``serve.solve``,
``barrier.solve`` …) with optional attributes.  Spans nest: each thread
keeps its own stack of open spans, so a span opened while another is
open records that span as its parent — the serve loop's worker-thread
solves produce correctly rooted trees without any plumbing.

Like the metrics registry (:mod:`repro.obs.metrics`), tracing is
**disabled by default**: :func:`span` returns a shared no-op object
whose ``__enter__``/``__exit__``/``set`` do nothing, so instrumented
code pays a single ``is None`` check per phase.  :func:`enable`
installs a :class:`Tracer`; when the tracer has a ``path``, finished
spans are streamed to a JSONL file one object per line (flushed with
the file's normal buffering; :meth:`Tracer.close` flushes the rest) —
the trace-file exporter of the observability layer.

Span timestamps are ``time.perf_counter`` values relative to the
tracer's creation, so within one trace file all spans share a clock;
they are not wall-clock epochs.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

#: Schema identifier stamped on every span line in a JSONL trace.
TRACE_SCHEMA = "repro-trace/v1"


class Span:
    """One timed phase; created via :func:`span` / :meth:`Tracer.span`."""

    __slots__ = (
        "name", "attrs", "span_id", "parent_id", "depth",
        "start", "duration", "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: "int | None" = None
        self.depth = 0
        self.start = 0.0
        self.duration = 0.0
        self._tracer = tracer

    def set(self, **attrs) -> "Span":
        """Attach attributes (e.g. outcomes known only mid-span)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._close(self)


class _NullSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()
    name = ""
    duration = 0.0

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans; optionally streams them to JSONL.

    Parameters
    ----------
    path:
        When given, every finished span is appended to this JSONL file.
    keep:
        In-memory retention cap: only the first ``keep`` finished spans
        stay in :attr:`spans` (the stream file, when configured, always
        gets everything); :attr:`dropped` counts the overflow so
        truncation is never silent.
    """

    def __init__(self, path: "str | Path | None" = None, keep: int = 10_000) -> None:
        self.path = None if path is None else Path(path)
        self.keep = int(keep)
        self.spans: "list[dict]" = []
        self.dropped = 0
        self._epoch = time.perf_counter()
        self._next_id = 1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fh = None
        if self.path is not None:
            self._fh = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def _stack(self) -> "list[Span]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, span: Span) -> None:
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        if stack:
            span.parent_id = stack[-1].span_id
            span.depth = stack[-1].depth + 1
        stack.append(span)
        span.start = time.perf_counter() - self._epoch

    def _close(self, span: Span) -> None:
        span.duration = time.perf_counter() - self._epoch - span.start
        stack = self._stack()
        # The span being closed is normally the top of this thread's
        # stack; tolerate out-of-order exits (generator-held contexts)
        # by removing it wherever it is.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        record = {
            "schema": TRACE_SCHEMA,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "depth": span.depth,
            "name": span.name,
            "start_s": round(span.start, 9),
            "duration_s": round(span.duration, 9),
        }
        if span.attrs:
            record["attrs"] = span.attrs
        with self._lock:
            if len(self.spans) < self.keep:
                self.spans.append(record)
            else:
                self.dropped += 1
            if self._fh is not None:
                self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Push buffered spans to the stream file (crash durability).

        The serve loop calls this at every checkpoint so the trace on
        disk always covers at least every durable slot — a kill after
        a checkpoint can no longer lose the spans that led up to it.
        """
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: "str | Path") -> "list[dict]":
    """Load a JSONL trace file written by a :class:`Tracer`.

    Blank lines are skipped; a malformed line raises a
    :class:`ValueError` naming its line number.
    """
    spans: "list[dict]" = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: malformed span on line {lineno}: {exc}"
                ) from exc
    return spans


# ----------------------------------------------------------------------
# Active-tracer switch
# ----------------------------------------------------------------------
_active: "Tracer | None" = None


def enable(
    tracer: "Tracer | None" = None,
    path: "str | Path | None" = None,
    keep: int = 10_000,
) -> Tracer:
    """Install ``tracer`` (or a new one writing to ``path``) as active."""
    global _active
    _active = tracer if tracer is not None else Tracer(path=path, keep=keep)
    return _active


def disable() -> None:
    """Close and uninstall the active tracer (no-op default restored)."""
    global _active
    if _active is not None:
        _active.close()
    _active = None


def active() -> "Tracer | None":
    return _active


def enabled() -> bool:
    return _active is not None


def span(name: str, **attrs):
    """A span on the active tracer, or the shared no-op when disabled."""
    tracer = _active
    return NULL_SPAN if tracer is None else tracer.span(name, **attrs)


class use:
    """Context manager installing a tracer for the block (tests)."""

    def __init__(self, tracer: "Tracer | None" = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self._saved: "Tracer | None" = None

    def __enter__(self) -> Tracer:
        global _active
        self._saved = _active
        _active = self.tracer
        return self.tracer

    def __exit__(self, *exc) -> None:
        global _active
        _active = self._saved
