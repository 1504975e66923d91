"""Tests of the benchmark's own helpers.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import copy
import json

import numpy as np
import pytest

from perfbench import episode, inputs, run, stats
from perfbench.spans import SpanRecorder, layer_metrics


# -- tail percentile ---------------------------------------------------
def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.choose_tail_percentile(477) == 97.5
    assert stats.choose_tail_percentile(1797) == 99.0
    assert stats.choose_tail_percentile(36000) == 99.95
    assert stats.choose_tail_percentile(50) is None
    for n in (100, 477, 1797, 36000, 96000):
        q = stats.choose_tail_percentile(n)
        assert stats.beyond(q, n) >= 10
        higher = [p for p in stats.TAIL_LADDER if p > q]
        assert all(stats.beyond(p, n) < 10 for p in higher)


def test_tail_value_is_nearest_rank_and_refuses_thin_tails():
    samples = np.arange(1.0, 101.0)[::-1]
    assert stats.tail_value(samples, 90.0) == 90.0
    assert stats.beyond(90.0, 100) == 10
    with pytest.raises(ValueError, match="beyond"):
        stats.tail_value(samples, 91.0)


def test_window_tails_use_whole_windows_only():
    latencies = list(range(1, 1001)) + list(range(1, 1001)) + [5.0] * 300
    assert stats.window_tails(latencies, 1000, 99.0) == [990.0, 990.0]


def test_every_tail_window_supports_a_tail_and_fits_the_horizon():
    for spec in run.RECORD["workloads"].values():
        q = stats.choose_tail_percentile(spec["tail_window"])
        assert q is not None and stats.beyond(q, spec["tail_window"]) >= 10
        assert spec["tail_window"] <= spec["horizon"] - 1


# -- self time -----------------------------------------------------------
NESTED = [
    ("a", 0.0, 10.0, -1, 0),
    ("b", 1.0, 4.0, 0, 0),
    ("c", 2.0, 3.0, 1, 0),
    ("d", 5.0, 6.0, 0, 1),
]


def test_self_time_subtracts_direct_children():
    own = stats.self_times(NESTED)
    assert own == {"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0}
    assert sum(own.values()) == 10.0


def test_self_time_clipped_to_window_sums_to_covered_time():
    own = stats.self_times(NESTED, 2.5, 5.5)
    assert own == pytest.approx({"a": 1.0, "b": 1.0, "c": 0.5, "d": 0.5})
    assert sum(own.values()) == pytest.approx(3.0)


def test_recorder_links_nested_calls_to_their_parent():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda: 1)
    outer = rec.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    rec.slot = 7
    assert list(rec.wrap_slots("read", lambda src, start: iter([start]))(None, 3)) == [3]
    names = [(s[0], s[3], s[4]) for s in rec.spans]
    assert names == [("outer", -1, 0), ("inner", 0, 0), ("inner", 0, 0),
                     ("read", -1, 7), ("read", -1, 7)]
    assert all(s[1] <= s[2] for s in rec.spans)


# -- lower bound and failed slots ----------------------------------------
def test_cheapest_route_lower_bound():
    edge_i = np.array([0, 1, 1])
    edge_j = np.array([0, 0, 1])
    tier2 = np.array([[1.0, 5.0], [1.0, 5.0]])
    link = np.array([[0.5, 0.1, 2.0], [3.0, 0.1, 2.0]])
    workload = np.array([[2.0, 0.0], [2.0, 1.0]])
    # slot 0: j0 min(1.5, 5.1) * 2 = 3; slot 1: j0 min(4, 5.1) * 2 + j1 7 * 1
    assert stats.lower_bound(workload[0], tier2[0], link[0], edge_i, edge_j) == 3.0
    assert stats.lower_bound(workload, tier2, link, edge_i, edge_j) == 3.0 + 15.0


def test_failed_slots_count_fallbacks_unserved_and_infeasible():
    paths = ["primary", "hold", "primary", "greedy", "primary"]
    served = [True, True, False, True, True]
    feasible = [True, True, True, True, False]
    assert stats.failed_slots(paths, served, feasible) == 4
    assert stats.failed_slots(["primary"] * 3, [True] * 3, [True] * 3) == 0


def _episode_record(**changes):
    record = {"fingerprint": "f" * 64, "feasible": True, "feasibility": "ok",
              "within_theorem1": True, "cost": 2.0, "lower_bound": 1.0,
              "theorem1_ratio": 3.0, "attempted": 10, "failed": 0}
    record.update(changes)
    return record


def test_any_failed_slot_fails_the_run():
    ok = [_episode_record(), _episode_record()]
    assert run.check_episodes("corpus-k1", 999, ok) == []
    bad = [_episode_record(), _episode_record(failed=1)]
    problems = run.check_episodes("corpus-k1", 999, bad)
    assert len(problems) == 1 and "1 of 20 slots" in problems[0]


# -- fingerprints ----------------------------------------------------------
def test_inputs_are_a_function_of_the_seed():
    a = inputs.generate("corpus-k1", 5, 48)
    b = inputs.generate("corpus-k1", 5, 48)
    c = inputs.generate("corpus-k1", 6, 48)
    assert inputs.fingerprint(a) == inputs.fingerprint(b) != inputs.fingerprint(c)
    traces = inputs.generate("paper-k2", 5, 48)["trace"]
    assert traces.shape == (inputs.variants("paper-k2"), 48)
    assert len({row.tobytes() for row in traces}) == len(traces)


def test_episode_exits_nonzero_on_fingerprint_mismatch():
    with pytest.raises(SystemExit) as exc:
        episode.main(["--workload", "corpus-k1", "--seed", "5", "--horizon", "48",
                      "--expect-fingerprint", "0" * 64])
    assert exc.value.code != 0


def test_run_exits_nonzero_on_fingerprint_mismatch(monkeypatch, capsys):
    record = copy.deepcopy(run.RECORD)
    record["fingerprints"]["corpus-k1"]["5"] = "0" * 64
    monkeypatch.setattr(run, "RECORD", record)
    assert run.main(["--workload", "corpus-k1", "--seed", "5", "--seconds", "1"]) != 0
    assert "fingerprint" in capsys.readouterr().err


# -- BENCHMARK.json ----------------------------------------------------------
def test_traced_run_reports_exactly_the_declared_per_layer_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    extra = dict.fromkeys(
        ("instance_s", "loop_s", "first_slot_s", "history_bytes", "events",
         "event_bytes", "checkpoint_bytes", "telemetry_bytes", "telemetry_records"),
        0.0,
    )
    spans = [("serve.runtime.run", 0.0, 3.0, -1, 0), ("engine.session.step", 1.0, 2.0, 0, 1)]
    layers = layer_metrics(spans, [0.5, 1.5, 2.5], {}, extra)
    # The serve loop's own self time is glue: reported, not attributed.
    assert layers["serve.runtime.attributed_frac"] == 0.5
    assert layers["serve.runtime.overhead_ms"] == 500.0
    assert layers["engine.session.step_self_ms"] == 500.0
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(layers) | {"trace.overhead_frac"} == declared
    assert {m["name"] for m in spec["end_to_end"]} == {
        "slots_per_s", "slot_p50_ms", "slot_tail_ms", "setup_s", "peak_rss_mb", "cost_ratio"
    }
    assert {w["name"] for w in spec["workloads"]} == set(run.RECORD["workloads"])
