"""Tests for the ``python -m repro`` CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "table1" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_no_subcommand_prints_help_exit_2(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert "usage: repro" in out
        assert "serve" in out

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_parser_still_rejects_bad_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


@pytest.fixture
def trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    rows = "\n".join(f"{h},{100 + 20 * (h % 6)}" for h in range(8))
    path.write_text("hour,requests\n" + rows + "\n")
    return path


class TestServeCommand:
    SMALL = ["--n-tier2", "3", "--n-tier1", "4", "--k", "2"]

    def test_serve_trace_all_slots_served(self, capsys, trace_csv, tmp_path):
        events = tmp_path / "events.jsonl"
        rc = main(
            ["serve", "--trace", str(trace_csv), "--events", str(events),
             "--inject-stall", "0.3", "--inject-fail", "0.2",
             "--inject-seed", "7", *self.SMALL]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "8 slots (8 served, 0 unserved)" in out
        payloads = [json.loads(line) for line in events.read_text().splitlines()]
        assert sum(p["event"] == "slot_decided" for p in payloads) == 8

    def test_serve_then_resume(self, capsys, trace_csv, tmp_path):
        ck = tmp_path / "run.ckpt"
        base = ["serve", "--trace", str(trace_csv), "--checkpoint", str(ck),
                *self.SMALL]
        assert main([*base, "--horizon", "3"]) == 0
        assert ck.exists()
        rc = main([*base, "--resume"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resumed from" in out and "at slot 3" in out

    def test_replay_renders_event_log(self, capsys, trace_csv, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main(
            ["serve", "--trace", str(trace_csv), "--horizon", "4",
             "--events", str(events), *self.SMALL]
        ) == 0
        capsys.readouterr()
        assert main(["replay", str(events)]) == 0
        out = capsys.readouterr().out
        assert "slots" in out and "path:primary" in out

    def test_replay_missing_events_fails(self, capsys, tmp_path):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        assert main(["replay", str(empty)]) == 1
        assert "no events" in capsys.readouterr().err

    def test_bounded_run_then_resume_decides_like_uninterrupted(
        self, capsys, tmp_path
    ):
        # The network is derived from the whole trace, so a --horizon
        # leg and a --resume leg serve the network an uninterrupted run
        # serves, and write byte-equal decisions.
        trace = EXAMPLES / "data" / "hourly_24.csv"
        base = ["serve", "--trace", str(trace), "--n-tier2", "6",
                "--n-tier1", "12", "--k", "2", "--inject-stall", "0.3",
                "--inject-fail", "0.2", "--inject-seed", "7"]
        full, legs = tmp_path / "full.npy", tmp_path / "legs.npy"
        ck = tmp_path / "run.ckpt"
        assert main([*base, "--decisions", str(full)]) == 0
        assert main([*base, "--horizon", "12", "--checkpoint", str(ck)]) == 0
        capsys.readouterr()
        assert main(
            [*base, "--checkpoint", str(ck), "--resume", "--decisions", str(legs)]
        ) == 0
        assert "at slot 12" in capsys.readouterr().out
        assert legs.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("horizon", ["0", "9"])
    def test_horizon_outside_trace_exits_2(self, capsys, trace_csv, horizon):
        rc = main(
            ["serve", "--trace", str(trace_csv), "--horizon", horizon, *self.SMALL]
        )
        assert rc == 2
        assert "horizon must be in [1, 8]" in capsys.readouterr().err

    @pytest.mark.parametrize("ms", ["0", "-250"])
    def test_nonpositive_deadline_exits_2_naming_the_flag(
        self, capsys, trace_csv, ms
    ):
        rc = main(
            ["serve", "--trace", str(trace_csv), "--deadline-ms", ms, *self.SMALL]
        )
        assert rc == 2
        assert "--deadline-ms" in capsys.readouterr().err


class TestMetricsFlag:
    SMALL = TestServeCommand.SMALL

    def test_serve_with_metrics_exports_and_disables(self, capsys, trace_csv, tmp_path):
        from repro.obs import metrics, tracing
        from repro.obs.export import parse_prometheus

        prom = tmp_path / "serve.prom"
        rc = main(
            ["serve", "--trace", str(trace_csv), "--horizon", "4",
             "--metrics", str(prom), *self.SMALL]
        )
        out = capsys.readouterr().out
        assert rc == 0
        # The layer is switched off again after the command.
        assert metrics.active() is None and tracing.active() is None
        samples = parse_prometheus(prom.read_text())
        assert samples[("serve_slot_seconds_count", ())] == 4
        assert samples[("serve_slots_total", (("path", "primary"),))] == 4
        trace = tmp_path / "serve.prom.trace.jsonl"
        assert trace.exists()
        assert "== metrics ==" in out
        assert "serve_phase_seconds" in out

    def test_replay_with_metrics_reaggregates(self, capsys, trace_csv, tmp_path):
        from repro.obs.export import parse_prometheus

        events = tmp_path / "events.jsonl"
        assert main(
            ["serve", "--trace", str(trace_csv), "--horizon", "3",
             "--events", str(events), *self.SMALL]
        ) == 0
        capsys.readouterr()
        prom = tmp_path / "replay.prom"
        assert main(["replay", str(events), "--metrics", str(prom)]) == 0
        samples = parse_prometheus(prom.read_text())
        assert samples[("serve_slots_total", (("path", "primary"),))] == 3
        assert samples[("serve_decide_seconds_count", ())] == 3

    def test_metrics_written_even_when_command_fails(self, capsys, tmp_path):
        empty = tmp_path / "none.jsonl"
        empty.write_text("")
        prom = tmp_path / "fail.prom"
        assert main(["replay", str(empty), "--metrics", str(prom)]) == 1
        # The registry had nothing, but the export still happened.
        assert prom.exists()


class TestRun:
    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "price_per_gb" in out
        assert "0.09" in out

    def test_run_thm23(self, capsys):
        assert main(["run", "thm23"]) == 0
        out = capsys.readouterr().out
        assert "greedy/opt" in out


class TestTelemetryAndHealth:
    SMALL = TestServeCommand.SMALL

    def test_serve_telemetry_writes_replayable_sink(self, capsys, trace_csv, tmp_path):
        from repro.obs import telemetry as obs_telemetry

        tdir = tmp_path / "telemetry"
        rc = main(
            ["serve", "--trace", str(trace_csv), "--horizon", "4",
             "--telemetry", str(tdir), *self.SMALL]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert f"telemetry: {tdir}" in out
        assert obs_telemetry.active_sink() is None  # detached afterwards
        sinks = list(tdir.glob(f"*{obs_telemetry.SINK_SUFFIX}"))
        assert len(sinks) == 1
        snapshot = obs_telemetry.replay_sink(obs_telemetry.read_sink(sinks[0]))
        slots = [
            e for e in snapshot["metrics"] if e["name"] == "serve_slots_total"
        ]
        assert sum(e["value"] for e in slots) == 4

    def test_serve_alert_rule_emits_event_and_health_gauges(
        self, capsys, trace_csv, tmp_path
    ):
        from repro.obs.export import parse_prometheus

        events = tmp_path / "events.jsonl"
        prom = tmp_path / "serve.prom"
        rc = main(
            ["serve", "--trace", str(trace_csv), "--horizon", "4",
             "--events", str(events), "--metrics", str(prom),
             "--alert", "competitive_ratio>=1",
             "--alert", "slo_burn_rate>100",  # never fires
             *self.SMALL]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 alerts" in out
        assert "ALERT t=0: competitive_ratio>=1" in out
        payloads = [json.loads(line) for line in events.read_text().splitlines()]
        alerts = [p for p in payloads if p["event"] == "alert"]
        assert len(alerts) == 1
        assert alerts[0]["metric"] == "health_competitive_ratio"
        samples = parse_prometheus(prom.read_text())
        assert samples[("health_competitive_ratio", ())] >= 1.0
        assert ("health_switching_share", ()) in samples
        assert ("health_slo_burn_rate", ()) in samples
        assert samples[
            ("serve_alerts_total", (("rule", "competitive_ratio>=1"),))
        ] == 1
        capsys.readouterr()
        assert main(["replay", str(events)]) == 0
        replay_out = capsys.readouterr().out
        assert "alerts" in replay_out and "competitive_ratio>=1" in replay_out

    def test_serve_rejects_malformed_alert_rule(self, capsys, trace_csv):
        rc = main(
            ["serve", "--trace", str(trace_csv), "--horizon", "2",
             "--alert", "not a rule", *self.SMALL]
        )
        assert rc == 1
        assert "malformed alert rule" in capsys.readouterr().err

    def test_serve_watch_renders_frames(self, capsys, trace_csv):
        rc = main(
            ["serve", "--trace", str(trace_csv), "--horizon", "3",
             "--watch", *self.SMALL]
        )
        out = capsys.readouterr().out
        assert rc == 0
        # One frame per slot, driven off the live registry.
        assert out.count("== serve slot") == 3
        assert "slots decided" in out

    def test_telemetry_merge_command(self, capsys, trace_csv, tmp_path):
        tdir = tmp_path / "telemetry"
        assert main(
            ["serve", "--trace", str(trace_csv), "--horizon", "4",
             "--telemetry", str(tdir), *self.SMALL]
        ) == 0
        capsys.readouterr()
        out_prom = tmp_path / "merged.prom"
        assert main(
            ["telemetry", "merge", str(tdir), "--out", str(out_prom)]
        ) == 0
        out = capsys.readouterr().out
        assert "1 sinks" in out
        assert "== metrics ==" in out
        from repro.obs.export import parse_prometheus

        samples = parse_prometheus(out_prom.read_text())
        assert samples[("serve_slots_total", (("path", "primary"),))] == 4

    def test_telemetry_merge_empty_dir_fails(self, capsys, tmp_path):
        assert main(["telemetry", "merge", str(tmp_path)]) == 1
        assert "no telemetry" in capsys.readouterr().err

    def test_telemetry_watch_iterations(self, capsys, trace_csv, tmp_path):
        tdir = tmp_path / "telemetry"
        assert main(
            ["serve", "--trace", str(trace_csv), "--horizon", "2",
             "--telemetry", str(tdir), *self.SMALL]
        ) == 0
        capsys.readouterr()
        assert main(
            ["telemetry", "watch", str(tdir), "--iterations", "2",
             "--interval", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("== telemetry") == 2
