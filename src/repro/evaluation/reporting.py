"""Plain-text reporting of experiment results.

The benchmark harness prints, for every reproduced table/figure, the
same rows/series the paper reports; :class:`ExperimentResult` is that
structured payload plus free-form notes recording the expected shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.export import text_table


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or 0 < abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: "list[str]", rows: "list[tuple]") -> str:
    """Render an aligned plain-text table, numbers in short form."""
    return text_table(headers, [[_fmt(v) for v in row] for row in rows])


def render_run_stats(records: "list[tuple[str, object]]") -> str:
    """Render engine :class:`~repro.engine.stats.RunStats` as a table.

    ``records`` are ``(algorithm name, RunStats)`` pairs, e.g. from
    :data:`repro.evaluation.runner.stats_collector`.
    """
    headers = [
        "algorithm",
        "steps",
        "mean step [s]",
        "max step [s]",
        "solves",
        "newton iters",
        "warm hit rate",
        "backends",
    ]
    rows = []
    for name, stats in records:
        if stats.warm_attempts:
            hit = f"{100.0 * stats.warm_hit_rate:.0f}% ({stats.warm_hits}/{stats.warm_attempts})"
        else:
            hit = "n/a"
        rows.append(
            (
                name,
                stats.n_steps,
                stats.mean_step_time,
                stats.max_step_time,
                stats.total_solves,
                stats.total_newton_iters,
                hit,
                ",".join(stats.backends) or "-",
            )
        )
    return format_table(headers, rows)


def render_serve_events(events: "list[dict]") -> str:
    """Render a serve event log (:mod:`repro.serve.events`) as tables.

    Produces the run-level summary plus a per-slot table (slot, serve
    path, wall time, deadline miss, fallback reason) — the report
    surface behind ``repro replay``.
    """
    from repro.serve.events import summarize_events

    summary = summarize_events(events)
    paths = summary["paths"]
    summary_rows = [
        ("slots", summary["slots"]),
        ("served", summary["slots"] - summary["unserved"]),
        ("unserved", summary["unserved"]),
        *[(f"path:{name}", count) for name, count in sorted(paths.items())],
        ("deadline misses", summary["deadline_misses"]),
        ("fallbacks", summary["fallbacks"]),
        ("checkpoints", summary["checkpoints"]),
        ("source errors", summary["source_errors"]),
        ("alerts", summary["alerts"]),
    ]
    parts = [format_table(["metric", "value"], summary_rows)]

    alert_rows = [
        (
            event.get("t", "-"),
            event.get("rule", "?"),
            event.get("value", 0.0),
            event.get("threshold", 0.0),
        )
        for event in events
        if event.get("event") == "alert"
    ]
    if alert_rows:
        parts.append("")
        parts.append(
            format_table(["slot", "alert rule", "value", "threshold"], alert_rows)
        )

    slot_rows = [
        (
            event.get("t", "-"),
            event.get("path", "?"),
            event.get("wall_time", 0.0),
            "yes" if event.get("deadline_missed") else "",
            event.get("error") or "",
        )
        for event in events
        if event.get("event") == "slot_decided"
    ]
    if slot_rows:
        parts.append("")
        parts.append(
            format_table(
                ["slot", "path", "wall [s]", "miss", "fallback reason"], slot_rows
            )
        )
    return "\n".join(parts)


def render_metrics(snapshot: dict) -> str:
    """Render a metrics snapshot (:mod:`repro.obs`) as report tables.

    One table for scalar counters/gauges and one for histograms with
    estimated p50/p95/p99 latencies — the summary ``--metrics`` prints
    after a run.  Delegates to
    :func:`repro.obs.export.describe_snapshot`; :mod:`repro.obs` owns
    the rendering because it must stay importable without numpy.

    When the run recorded ``subproblem_warm_starts_total`` counters, a
    warm-start hit-rate summary line is appended (previously that rate
    was only visible in the perf bench output, not under ``--metrics``).
    """
    from repro.obs.export import describe_snapshot

    out = "== metrics ==\n" + describe_snapshot(snapshot)
    warm = {"hit": 0.0, "miss": 0.0, "restart": 0.0, "cold": 0.0}
    for entry in snapshot.get("metrics", []):
        if entry.get("name") == "subproblem_warm_starts_total":
            outcome = entry.get("labels", {}).get("outcome")
            if outcome in warm:
                warm[outcome] += float(entry.get("value", 0.0))
    attempts = warm["hit"] + warm["miss"] + warm["restart"]
    if attempts or warm["cold"]:
        if attempts:
            rate = f"{100.0 * warm['hit'] / attempts:.0f}% ({warm['hit']:.0f}/{attempts:.0f})"
        else:
            rate = "n/a"
        out += (
            f"\n\nwarm-start hit rate: {rate}"
            f"  [cold starts: {warm['cold']:.0f}]"
        )
    return out


@dataclass
class ExperimentResult:
    """Structured output of one reproduced table/figure.

    Attributes
    ----------
    name:
        Experiment id (e.g. ``"fig5/wikipedia"``).
    headers, rows:
        The tabular payload (what the paper's figure plots).
    series:
        Optional named time/parameter series backing the rows.
    notes:
        Free-form remarks (expected shape, scale used).
    """

    name: str
    headers: "list[str]"
    rows: "list[tuple]"
    series: "dict[str, np.ndarray]" = field(default_factory=dict)
    notes: "list[str]" = field(default_factory=list)

    def render(self) -> str:
        parts = [f"== {self.name} =="]
        parts.append(format_table(self.headers, self.rows))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def column(self, header: str) -> "list":
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]
