"""Exporters for metrics snapshots: Prometheus text, human table, JSON.

Everything here operates on the plain-dict snapshot produced by
:meth:`repro.obs.metrics.MetricsRegistry.snapshot`, so exports can be
rendered live, from a checkpointed run, or from a deserialized file —
the snapshot is the interchange format.

:func:`parse_prometheus` is the inverse of :func:`to_prometheus` at
the sample level (name + labels -> value); CI's obs-smoke step and the
round-trip tests use it to assert the exported text is well-formed.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import METRICS_SCHEMA, estimate_percentile


def _fmt_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _label_str(labels: dict, extra: "dict | None" = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def to_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Bucket samples are cumulative (``le``-labeled) as the format
    requires, with the implicit ``+Inf`` bucket equal to ``_count``.
    """
    if snapshot.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            f"unsupported metrics snapshot schema {snapshot.get('schema')!r}"
        )
    lines: "list[str]" = []
    seen_header: "set[str]" = set()
    for entry in snapshot["metrics"]:
        name, kind, labels = entry["name"], entry["type"], entry["labels"]
        if name not in seen_header:
            seen_header.add(name)
            if entry.get("help"):
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            cum = 0
            for bound, count in zip(entry["buckets"], entry["counts"]):
                cum += count
                lines.append(
                    f"{name}_bucket{_label_str(labels, {'le': _fmt_value(bound)})} {cum}"
                )
            lines.append(
                f"{name}_bucket{_label_str(labels, {'le': '+Inf'})} {entry['count']}"
            )
            lines.append(f"{name}_sum{_label_str(labels)} {_fmt_value(entry['sum'])}")
            lines.append(f"{name}_count{_label_str(labels)} {entry['count']}")
        else:
            lines.append(f"{name}{_label_str(labels)} {_fmt_value(entry['value'])}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> "dict[tuple[str, tuple], float]":
    """Parse Prometheus text into ``{(name, ((label, value), ...)): value}``.

    Supports the subset :func:`to_prometheus` emits (which is the
    subset the format defines for counters/gauges/histograms).  A
    malformed sample line raises :class:`ValueError` with its line
    number.
    """
    samples: "dict[tuple[str, tuple], float]" = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if "{" in line:
                name, rest = line.split("{", 1)
                label_part, value_part = rest.rsplit("}", 1)
                labels = []
                for item in _split_labels(label_part):
                    k, v = item.split("=", 1)
                    labels.append((k.strip(), json.loads(v.strip())))
                key = (name.strip(), tuple(sorted(labels)))
            else:
                name, value_part = line.rsplit(None, 1)
                key = (name.strip(), ())
                value_part = " " + value_part
            # float() accepts "+Inf"/"-Inf"/"NaN" natively.
            samples[key] = float(value_part.strip())
        except Exception as exc:
            raise ValueError(
                f"malformed Prometheus sample on line {lineno}: {line!r} ({exc})"
            ) from exc
    return samples


def _split_labels(label_part: str) -> "list[str]":
    """Split ``k1="v1",k2="v2"`` respecting quoted commas."""
    items, depth, current = [], False, []
    for ch in label_part:
        if ch == '"':
            depth = not depth
            current.append(ch)
        elif ch == "," and not depth:
            if current:
                items.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        items.append("".join(current))
    return [i for i in (s.strip() for s in items) if i]


# ----------------------------------------------------------------------
# Human-readable table
# ----------------------------------------------------------------------
def text_table(headers: "list[str]", rows: "list[tuple]") -> str:
    """Render an aligned plain-text table of ``str(cell)`` columns."""
    cells = [[str(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[c]) for r in cells)) if cells else len(h)
        for c, h in enumerate(headers)
    ]
    def line(parts):
        return "  ".join(p.ljust(w) for p, w in zip(parts, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in cells)
    return "\n".join(out)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def describe_snapshot(snapshot: dict) -> str:
    """Human summary: one table for scalars, one for histograms."""
    if snapshot.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            f"unsupported metrics snapshot schema {snapshot.get('schema')!r}"
        )
    scalars, hists = [], []
    for entry in snapshot["metrics"]:
        label = entry["name"] + _label_str(entry["labels"])
        if entry["type"] == "histogram":
            count = entry["count"]
            mean = entry["sum"] / count if count else 0.0
            mn = entry["min"] if entry["min"] is not None else 0.0
            mx = entry["max"] if entry["max"] is not None else 0.0
            p50, p95, p99 = (
                estimate_percentile(
                    tuple(entry["buckets"]), entry["counts"], mn, mx, q
                )
                for q in (0.50, 0.95, 0.99)
            )
            hists.append(
                (label, count, _ms(mean), _ms(p50), _ms(p95), _ms(p99), _ms(mx))
            )
        else:
            scalars.append((label, f"{entry['value']:g}"))
    parts = []
    if scalars:
        parts.append(text_table(["metric", "value"], scalars))
    if hists:
        parts.append(
            text_table(
                ["histogram", "count", "mean [ms]", "p50 [ms]", "p95 [ms]",
                 "p99 [ms]", "max [ms]"],
                hists,
            )
        )
    return "\n\n".join(parts) if parts else "(no metrics recorded)"


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def write_prometheus(snapshot: dict, path: "str | Path") -> Path:
    """Write the Prometheus text exposition of ``snapshot`` to ``path``."""
    path = Path(path)
    path.write_text(to_prometheus(snapshot), encoding="utf-8")
    return path


def write_snapshot_json(snapshot: dict, path: "str | Path") -> Path:
    """Write the raw snapshot dict as JSON to ``path``."""
    path = Path(path)
    path.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_snapshot_json(path: "str | Path") -> dict:
    """Inverse of :func:`write_snapshot_json` (validates the schema)."""
    snapshot = json.loads(Path(path).read_text(encoding="utf-8"))
    if snapshot.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            f"{path}: unsupported metrics snapshot schema "
            f"{snapshot.get('schema')!r}"
        )
    return snapshot
