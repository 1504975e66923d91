"""Tests for the metrics registry and its exporters (repro.obs)."""

import json
import math

import pytest

from repro.obs import metrics
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
    Histogram,
    MetricsRegistry,
    estimate_percentile,
    registry_from_snapshot,
)


class TestInstruments:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        c.inc()
        c.inc(4.0)
        assert c.value == 5.0

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match=">= 0"):
            reg.counter("requests_total").inc(-1.0)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("queue_depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7.0

    def test_same_key_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x", path="a") is reg.counter("x", path="a")
        assert reg.counter("x", path="a") is not reg.counter("x", path="b")

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a="1", b="2") is reg.counter("x", b="2", a="1")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.histogram("x")

    def test_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(0.1, 1.0))
        with pytest.raises(ValueError, match="already registered with buckets"):
            reg.histogram("lat", buckets=(0.2, 2.0))
        # Re-access without buckets (or with the same ones) is fine.
        reg.histogram("lat")
        reg.histogram("lat", buckets=(0.1, 1.0))


class TestHistogram:
    def test_bucket_placement(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 2.0, 3.0, 9.0):
            h.observe(v)
        # counts: <=1, (1,2], (2,4], >4
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.sum == pytest.approx(17.0)
        assert h.min == 0.5 and h.max == 9.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram(bounds=())

    def test_mean_and_default_buckets(self):
        h = Histogram()
        assert h.bounds == DEFAULT_BUCKETS
        assert h.mean == 0.0
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == pytest.approx(3.0)

    def test_percentiles_clamped_to_observed_range(self):
        h = Histogram(bounds=(1.0, 10.0))
        for _ in range(100):
            h.observe(5.0)
        # All mass is in (1, 10]; interpolation stays within [min, max].
        assert h.min <= h.p50 <= h.max
        assert h.min <= h.p99 <= h.max

    def test_percentile_ordering(self):
        h = Histogram()
        for i in range(1, 200):
            h.observe(i / 1000.0)  # 1ms .. 199ms
        assert h.p50 <= h.p95 <= h.p99 <= h.max
        assert h.p50 == pytest.approx(0.1, rel=0.3)

    def test_empty_percentile_zero(self):
        assert Histogram().p50 == 0.0

    def test_percentile_validates_q(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram().percentile(1.5)

    def test_estimate_percentile_overflow_bucket_uses_hi(self):
        # Everything in the overflow bucket: only hi bounds it.
        counts = [0, 0, 10]
        assert estimate_percentile((1.0, 2.0), counts, 5.0, 9.0, 0.99) <= 9.0
        assert estimate_percentile((1.0, 2.0), counts, 5.0, 9.0, 1.0) == 9.0


class TestSnapshot:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("slots_total", help="slots", path="primary").inc(10)
        reg.counter("slots_total", path="greedy").inc(2)
        reg.gauge("depth").set(3.5)
        h = reg.histogram("lat_seconds", help="latency", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        return reg

    def test_snapshot_schema_and_order(self):
        snap = self._populated().snapshot()
        assert snap["schema"] == METRICS_SCHEMA
        names = [(e["name"], tuple(sorted(e["labels"].items()))) for e in snap["metrics"]]
        assert names == sorted(names)

    def test_snapshot_json_serializable(self):
        snap = self._populated().snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_round_trip_exact(self):
        reg = self._populated()
        snap = reg.snapshot()
        again = registry_from_snapshot(snap).snapshot()
        assert again == snap

    def test_round_trip_rejects_bad_schema(self):
        with pytest.raises(ValueError, match="schema"):
            registry_from_snapshot({"schema": "nope", "metrics": []})

    def test_empty_histogram_min_max_null(self):
        reg = MetricsRegistry()
        reg.histogram("lat_seconds")
        (entry,) = reg.snapshot()["metrics"]
        assert entry["min"] is None and entry["max"] is None
        restored = registry_from_snapshot(reg.snapshot())
        assert restored.snapshot() == reg.snapshot()

    def test_clear(self):
        reg = self._populated()
        reg.clear()
        assert reg.snapshot()["metrics"] == []


class TestActiveSwitch:
    def test_disabled_returns_nulls(self):
        assert not metrics.enabled()
        assert metrics.counter("x") is metrics.NULL_COUNTER
        assert metrics.gauge("x") is metrics.NULL_GAUGE
        assert metrics.histogram("x") is metrics.NULL_HISTOGRAM
        # Null methods are inert.
        metrics.counter("x").inc()
        metrics.gauge("x").set(1)
        metrics.histogram("x").observe(1)

    def test_enable_disable(self):
        reg = metrics.enable()
        try:
            assert metrics.active() is reg
            metrics.counter("x").inc()
            assert reg.counter("x").value == 1.0
        finally:
            metrics.disable()
        assert metrics.active() is None

    def test_use_restores_previous(self):
        outer = metrics.enable()
        try:
            with metrics.use() as inner:
                assert metrics.active() is inner
                assert inner is not outer
            assert metrics.active() is outer
        finally:
            metrics.disable()


class TestPrometheusExport:
    def _snap(self):
        reg = MetricsRegistry()
        reg.counter("slots_total", help="slots decided", path="primary").inc(7)
        reg.gauge("depth").set(2.0)
        h = reg.histogram("lat_seconds", buckets=(0.01, 0.1))
        for v in (0.005, 0.05, 0.5):
            h.observe(v)
        return reg.snapshot()

    def test_round_trip_samples(self):
        text = to_prometheus(self._snap())
        samples = parse_prometheus(text)
        assert samples[("slots_total", (("path", "primary"),))] == 7.0
        assert samples[("depth", ())] == 2.0
        assert samples[("lat_seconds_count", ())] == 3.0
        assert samples[("lat_seconds_sum", ())] == pytest.approx(0.555)

    def test_buckets_cumulative(self):
        samples = parse_prometheus(to_prometheus(self._snap()))
        le = lambda b: samples[("lat_seconds_bucket", (("le", b),))]
        assert le("0.01") == 1.0
        assert le("0.1") == 2.0
        assert le("+Inf") == 3.0

    def test_headers_present(self):
        text = to_prometheus(self._snap())
        assert "# HELP slots_total slots decided" in text
        assert "# TYPE lat_seconds histogram" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x", path='a"b\\c').inc()
        text = to_prometheus(reg.snapshot())
        assert parse_prometheus(text)[("x", (("path", 'a"b\\c'),))] == 1.0

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus("not a sample at{all")

    def test_rejects_bad_schema(self):
        with pytest.raises(ValueError, match="schema"):
            to_prometheus({"schema": "other", "metrics": []})

    def test_nan_inf_formatting(self):
        reg = MetricsRegistry()
        reg.gauge("g_inf").set(float("inf"))
        reg.gauge("g_nan").set(float("nan"))
        samples = parse_prometheus(to_prometheus(reg.snapshot()))
        assert samples[("g_inf", ())] == float("inf")
        assert math.isnan(samples[("g_nan", ())])


class TestDescribeAndFiles:
    def test_describe_lists_all_metrics(self):
        reg = MetricsRegistry()
        reg.counter("slots_total", path="primary").inc(3)
        reg.histogram("lat_seconds").observe(0.02)
        text = describe_snapshot(reg.snapshot())
        assert 'slots_total{path="primary"}' in text
        assert "lat_seconds" in text
        assert "p95 [ms]" in text

    def test_describe_empty(self):
        assert "no metrics" in describe_snapshot(MetricsRegistry().snapshot())

    def test_registry_describe_shortcut(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        assert "x" in reg.describe()

    def test_prometheus_file_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("x").inc(2)
        path = write_prometheus(reg.snapshot(), tmp_path / "m.prom")
        samples = parse_prometheus(path.read_text(encoding="utf-8"))
        assert samples[("x", ())] == 2.0

    def test_snapshot_json_file_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.histogram("lat_seconds").observe(0.3)
        snap = reg.snapshot()
        path = write_snapshot_json(snap, tmp_path / "m.json")
        assert load_snapshot_json(path) == snap

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other", "metrics": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="schema"):
            load_snapshot_json(path)
