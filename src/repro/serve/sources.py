"""Slot sources: where a serve loop's per-slot inputs come from.

A :class:`SlotSource` is anything that owns a network and can yield
validated :class:`~repro.engine.session.SlotData`, starting from an
arbitrary slot index (resume support).  Three concrete sources cover
the deployment shapes the runtime needs today:

* :class:`InstanceSource` — slots of an in-memory
  :class:`~repro.model.instance.Instance` (tests, experiments);
* :class:`TraceCSVSource` — an hourly-CSV demand trace
  (:func:`repro.workloads.traces.load_hourly_csv`) lifted onto the
  paper topology, so ``repro serve --trace demand.csv`` works from a
  bare file;
* :class:`JSONLSource` — a replayable JSONL feed, one record per slot,
  as captured from a live system (:func:`write_feed` records one).

Every source validates each slot (field values in the ``SlotData``
constructor, shapes against the source's network via
``SlotData.validate``) before handing it to the solver.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, Protocol, runtime_checkable

import numpy as np

from repro.engine.session import SlotData
from repro.model.instance import Instance
from repro.model.network import CloudNetwork

#: Schema identifier stamped on JSONL feed headers.
FEED_SCHEMA = "repro-serve-feed/v1"


@runtime_checkable
class SlotSource(Protocol):
    """The protocol the serve runtime drives.

    ``network`` is the topology every slot must match; ``horizon`` is
    the number of slots, or ``None`` for unbounded/live sources;
    ``slots(start)`` yields validated :class:`SlotData` from slot
    ``start`` onward (sources must support restarting from any index
    so a resumed run can skip what the checkpoint already covers).
    """

    network: CloudNetwork
    horizon: "int | None"

    def slots(self, start: int = 0) -> Iterator[SlotData]: ...


class InstanceSource:
    """Serve the slots of an in-memory :class:`Instance`."""

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.network = instance.network
        self.horizon: "int | None" = instance.horizon

    def slots(self, start: int = 0) -> Iterator[SlotData]:
        for t in range(start, self.instance.horizon):
            yield SlotData.from_instance(self.instance, t).validate(self.network)

    def __repr__(self) -> str:
        return f"InstanceSource({self.instance!r})"


class TraceCSVSource(InstanceSource):
    """Serve an hourly-CSV demand trace on the paper topology.

    The CSV is loaded with
    :func:`repro.workloads.traces.load_hourly_csv` and lifted onto the
    paper's geographic topology via
    :func:`repro.topology.build_paper_instance` (replication across
    tier-1 clouds, k-nearest SLA edges, peak-provisioned capacities,
    electricity/bandwidth prices).  ``horizon`` keeps the first slots
    of that instance: the network is always derived from the whole
    trace, so a bounded run and a later resume over the full trace
    serve the same network.
    """

    def __init__(
        self,
        path: "str | Path",
        *,
        column: int = -1,
        horizon: "int | None" = None,
        k: int = 2,
        n_tier2: "int | None" = None,
        n_tier1: "int | None" = None,
        seed: "int | None" = 42,
    ) -> None:
        from repro.topology import build_paper_instance
        from repro.workloads.traces import load_hourly_csv

        trace = load_hourly_csv(path, column=column)
        # A peak-provisioned topology needs strictly positive demand
        # peaks; an all-zero trace cannot define capacities.
        if float(trace.max(initial=0.0)) <= 0:
            raise ValueError(f"trace {path} has no positive demand")
        instance = build_paper_instance(
            trace, k=k, n_tier2=n_tier2, n_tier1=n_tier1, seed=seed
        )
        if horizon is not None:
            if not 1 <= horizon <= instance.horizon:
                raise ValueError(
                    f"horizon must be in [1, {instance.horizon}] for trace "
                    f"{path}, got {horizon}"
                )
            instance = instance.slice(0, horizon)
        super().__init__(instance)
        self.path = Path(path)

    def __repr__(self) -> str:
        return f"TraceCSVSource({str(self.path)!r}, T={self.horizon})"


class JSONLSource:
    """Serve a recorded JSONL feed (one slot per line).

    Each record is ``{"t": <slot index>, "workload": [...],
    "tier2_price": [...], "link_price": [...]}``; an optional header
    line ``{"schema": "repro-serve-feed/v1", ...}`` is skipped.
    Records must be contiguous from 0 — the feed is a replayable
    capture, not a sparse sample — and every record is validated
    against ``network`` with a line-numbered error on mismatch.
    """

    def __init__(self, path: "str | Path", network: CloudNetwork) -> None:
        self.path = Path(path)
        self.network = network
        self._records = self._load()
        self.horizon: "int | None" = len(self._records)

    def _load(self) -> "list[SlotData]":
        records: list[SlotData] = []
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{self.path}: malformed feed record on line {lineno}: {exc}"
                    ) from exc
                if "schema" in payload and "workload" not in payload:
                    continue  # feed header
                try:
                    t = int(payload["t"])
                    slot = SlotData(
                        np.asarray(payload["workload"], dtype=float),
                        np.asarray(payload["tier2_price"], dtype=float),
                        np.asarray(payload["link_price"], dtype=float),
                    ).validate(self.network)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(
                        f"{self.path}: invalid feed record on line {lineno}: {exc}"
                    ) from exc
                if t != len(records):
                    raise ValueError(
                        f"{self.path}: feed record on line {lineno} has t={t}, "
                        f"expected {len(records)} (feeds are contiguous from 0)"
                    )
                records.append(slot)
        return records

    def slots(self, start: int = 0) -> Iterator[SlotData]:
        yield from self._records[start:]

    def __repr__(self) -> str:
        return f"JSONLSource({str(self.path)!r}, T={self.horizon})"


def write_feed(path: "str | Path", source: SlotSource) -> int:
    """Record a source as a replayable JSONL feed; returns slots written.

    The feed round-trips exactly: floats are serialized with
    ``repr``-faithful JSON, so ``JSONLSource`` yields bitwise-identical
    arrays and a replayed run reproduces the original trajectory.
    """
    net = source.network
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "schema": FEED_SCHEMA,
            "n_tier1": net.n_tier1,
            "n_tier2": net.n_tier2,
            "n_edges": net.n_edges,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for t, slot in enumerate(source.slots(0)):
            record = {
                "t": t,
                "workload": slot.workload.tolist(),
                "tier2_price": slot.tier2_price.tolist(),
                "link_price": slot.link_price.tolist(),
            }
            fh.write(json.dumps(record) + "\n")
            count += 1
    return count


def as_source(source: Any) -> SlotSource:
    """Coerce an instance-or-source argument into a :class:`SlotSource`."""
    if isinstance(source, Instance):
        return InstanceSource(source)
    if hasattr(source, "slots") and hasattr(source, "network"):
        return source
    raise TypeError(
        f"expected an Instance or SlotSource, got {type(source).__name__}"
    )
