"""Dependency-free metrics registry: counters, gauges, histograms.

The registry is the single aggregation point of the observability
layer (see ``docs/OBSERVABILITY.md``): the barrier solver, the solve
engine and the serve runtime all publish into whichever registry is
*active*, and exporters (:mod:`repro.obs.export`) turn an immutable
:meth:`MetricsRegistry.snapshot` into Prometheus text, a human table
or JSON.

Zero-overhead default
---------------------
No registry is active unless :func:`enable` has been called (the CLI's
``--metrics`` flag does).  While disabled, the module-level
:func:`counter` / :func:`gauge` / :func:`histogram` accessors return
shared no-op singletons whose methods do nothing, so instrumented hot
paths pay one ``is None`` check and an attribute call — no allocation,
no locking, no arithmetic.  Instrumentation must therefore always go
through the accessors (or guard on :func:`active`) rather than holding
instrument references across enable/disable boundaries.

Histograms use *fixed* bucket boundaries (latency-style by default)
plus exact ``sum``/``count``/``min``/``max``; quantiles (p50/p95/p99)
are estimated by linear interpolation inside the bucket containing the
target rank, clamped to the observed ``[min, max]`` — the classic
Prometheus ``histogram_quantile`` estimate, computable from a snapshot
alone.
"""

from __future__ import annotations

import bisect
import threading

#: Default histogram boundaries (seconds), latency-shaped: ~exponential
#: from 100 us to 30 s.  The overflow bucket (+inf) is implicit.
DEFAULT_BUCKETS: "tuple[float, ...]" = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Schema identifier stamped on snapshots.
METRICS_SCHEMA = "repro-metrics/v1"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-boundary histogram with exact sum/count/min/max.

    ``counts[i]`` is the number of observations in
    ``(bounds[i-1], bounds[i]]`` (first bucket: ``<= bounds[0]``);
    ``counts[-1]`` is the overflow bucket (``> bounds[-1]``).
    """

    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds: "tuple[float, ...] | None" = None) -> None:
        bounds = DEFAULT_BUCKETS if bounds is None else tuple(
            float(b) for b in bounds
        )
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket boundaries must be increasing: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1])."""
        return estimate_percentile(
            self.bounds, self.counts, self.min, self.max, q
        )

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)


def estimate_percentile(
    bounds: "tuple[float, ...]",
    counts: "list[int]",
    lo: float,
    hi: float,
    q: float,
) -> float:
    """Quantile estimate from bucketed counts (snapshot-computable).

    Linear interpolation inside the bucket holding rank ``q * count``,
    clamped to the observed ``[lo, hi]`` so tails never extrapolate
    past real observations (the overflow bucket has no upper edge).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cum = 0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        if cum + c >= rank:
            lower = bounds[i - 1] if i > 0 else lo
            upper = bounds[i] if i < len(bounds) else hi
            frac = (rank - cum) / c
            est = lower + frac * (upper - lower)
            return min(max(est, lo), hi)
        cum += c
    return hi


#: No-op instruments handed out while no registry is active.  Shared
#: singletons: calling their methods is the entire cost of disabled
#: instrumentation.
class NullCounter:
    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class NullHistogram:
    __slots__ = ()
    sum = 0.0
    count = 0

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _label_key(labels: dict) -> "tuple[tuple[str, str], ...]":
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Named, optionally labeled instruments with one aggregation point.

    Instruments are created on first access and keyed by
    ``(name, labels)``; every name has exactly one kind (and, for
    histograms, one bucket layout) — a conflicting re-registration
    raises so two subsystems cannot silently split a metric.
    Instrument creation is locked; increments/observations rely on the
    GIL (single attribute updates), which matches the single-process
    serve/solve loops this library runs.
    """

    def __init__(self) -> None:
        self._metrics: "dict[tuple[str, tuple], object]" = {}
        self._families: "dict[str, dict]" = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, help_: str, labels: dict, **extra):
        key = (name, _label_key(labels))
        inst = self._metrics.get(key)
        if inst is not None:
            fam = self._families[name]
            if fam["kind"] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam['kind']}, "
                    f"requested {kind}"
                )
            return inst
        with self._lock:
            inst = self._metrics.get(key)
            if inst is not None:
                return inst
            fam = self._families.get(name)
            if fam is None:
                fam = {"kind": kind, "help": help_, **extra}
                self._families[name] = fam
            elif fam["kind"] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam['kind']}, "
                    f"requested {kind}"
                )
            if kind == "histogram":
                inst = Histogram(bounds=fam.get("buckets"))
            else:
                inst = _KINDS[kind]()
            self._metrics[key] = inst
            return inst

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """The counter ``name{labels}``, created on first access."""
        return self._get("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """The gauge ``name{labels}``, created on first access."""
        return self._get("gauge", name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: "tuple[float, ...] | None" = None,
        **labels,
    ) -> Histogram:
        """The histogram ``name{labels}``; ``buckets`` applies on first
        registration of the family and must not change afterwards."""
        fam = self._families.get(name)
        if fam is not None and buckets is not None:
            have = fam.get("buckets") or DEFAULT_BUCKETS
            if tuple(buckets) != tuple(have):
                raise ValueError(
                    f"histogram {name!r} already registered with buckets "
                    f"{have}, requested {tuple(buckets)}"
                )
        return self._get("histogram", name, help, labels, buckets=buckets)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Immutable JSON-serializable view of every instrument.

        Deterministically ordered by ``(name, labels)``; the inverse is
        :func:`registry_from_snapshot` (round-trip property-tested).
        """
        metrics = []
        for (name, labels) in sorted(self._metrics):
            inst = self._metrics[(name, labels)]
            fam = self._families[name]
            entry: dict = {
                "name": name,
                "type": fam["kind"],
                "help": fam["help"],
                "labels": dict(labels),
            }
            if isinstance(inst, Histogram):
                entry["buckets"] = list(inst.bounds)
                entry["counts"] = list(inst.counts)
                entry["sum"] = inst.sum
                entry["count"] = inst.count
                entry["min"] = inst.min if inst.count else None
                entry["max"] = inst.max if inst.count else None
            else:
                entry["value"] = inst.value
            metrics.append(entry)
        return {"schema": METRICS_SCHEMA, "metrics": metrics}

    def clear(self) -> None:
        """Drop every instrument (tests; fresh CLI runs)."""
        with self._lock:
            self._metrics.clear()
            self._families.clear()

    def describe(self) -> str:
        """Human-readable summary table of the current snapshot."""
        from repro.obs.export import describe_snapshot

        return describe_snapshot(self.snapshot())


def registry_from_snapshot(snapshot: dict) -> MetricsRegistry:
    """Rebuild a registry whose aggregates equal ``snapshot``'s.

    Counter/gauge values and every histogram aggregate (bucket counts,
    sum, count, min, max) are restored exactly; per-observation detail
    is gone, which is the point of bucketed histograms.
    """
    if snapshot.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            f"unsupported metrics snapshot schema {snapshot.get('schema')!r}"
        )
    reg = MetricsRegistry()
    for entry in snapshot["metrics"]:
        name, labels = entry["name"], entry["labels"]
        kind = entry["type"]
        if kind == "counter":
            reg.counter(name, help=entry.get("help", ""), **labels).value = float(
                entry["value"]
            )
        elif kind == "gauge":
            reg.gauge(name, help=entry.get("help", ""), **labels).value = float(
                entry["value"]
            )
        elif kind == "histogram":
            hist = reg.histogram(
                name,
                help=entry.get("help", ""),
                buckets=tuple(entry["buckets"]),
                **labels,
            )
            hist.counts = [int(c) for c in entry["counts"]]
            hist.sum = float(entry["sum"])
            hist.count = int(entry["count"])
            hist.min = float("inf") if entry["min"] is None else float(entry["min"])
            hist.max = float("-inf") if entry["max"] is None else float(entry["max"])
        else:
            raise ValueError(f"unknown metric type {kind!r} for {name!r}")
    return reg


# ----------------------------------------------------------------------
# Active-registry switch (the no-op default lives here)
# ----------------------------------------------------------------------
_active: "MetricsRegistry | None" = None


def enable(registry: "MetricsRegistry | None" = None) -> MetricsRegistry:
    """Install ``registry`` (a fresh one by default) as the active sink."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable() -> None:
    """Return to the zero-overhead no-op default."""
    global _active
    _active = None


def active() -> "MetricsRegistry | None":
    """The active registry, or ``None`` while metrics are disabled."""
    return _active


def enabled() -> bool:
    return _active is not None


def counter(name: str, help: str = "", **labels):
    """Active registry's counter, or the shared no-op when disabled."""
    reg = _active
    return NULL_COUNTER if reg is None else reg.counter(name, help, **labels)


def gauge(name: str, help: str = "", **labels):
    """Active registry's gauge, or the shared no-op when disabled."""
    reg = _active
    return NULL_GAUGE if reg is None else reg.gauge(name, help, **labels)


def histogram(
    name: str,
    help: str = "",
    buckets: "tuple[float, ...] | None" = None,
    **labels,
):
    """Active registry's histogram, or the shared no-op when disabled."""
    reg = _active
    if reg is None:
        return NULL_HISTOGRAM
    return reg.histogram(name, help, buckets=buckets, **labels)


class use:
    """Context manager installing a registry for the block (tests)."""

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._saved: "MetricsRegistry | None" = None

    def __enter__(self) -> MetricsRegistry:
        self._saved = _active
        enable(self.registry)
        return self.registry

    def __exit__(self, *exc) -> None:
        global _active
        _active = self._saved
