"""Deterministic process-parallel execution for experiment sweeps.

The paper's figures are grids — (recon-weight x epsilon), SLA size,
prediction window, error rate — whose points are independent solves.
:func:`parallel_map` fans those points out over worker processes while
keeping every observable output identical to a serial run:

* **Ordered results.**  Futures are consumed in submission order, so
  the returned list matches the input order no matter which worker
  finished first.
* **Identical code path.**  With ``jobs`` of ``None``/``0``/``1`` the
  same worker wrapper runs inline in the parent; parallel and serial
  sweeps therefore execute byte-identical work per point (asserted by
  the CLI acceptance test: ``--jobs N`` rows equal serial rows).
* **Deterministic RNG.**  Workers never share a global RNG; when a
  sweep needs randomness, :func:`run_sweep` derives one seed per
  *point* (not per worker) so results are independent of scheduling.
* **Merge-safe statistics.**  The module-global
  :data:`~repro.evaluation.runner.stats_collector` is per-process.
  Each worker collects its own records and returns them alongside the
  result; the parent merges them in submission order, so ``--stats
  --jobs N`` reporting equals the serial output.

Workers are plain module-level functions (picklable); point arguments
should be small tuples of primitives/instances.

* **Config travels in the payload.**  Worker processes must never
  reconstruct a :class:`~repro.core.subproblem.SubproblemConfig` from
  scattered scalars — a rebuilt config silently resets every field the
  payload didn't carry to its default, so a ``--jobs N`` sweep would
  quietly run other work than the serial one.  Point tuples therefore
  carry the
  fully-constructed config object (it is a plain dataclass of scalars
  and pickles cheaply); workers at most ``dataclasses.replace`` the
  swept field.

* **Workers publish full registries.**  When the parent has a metrics
  registry active (``--metrics``/``--telemetry``), every worker
  enables a *fresh* registry of its own (dropping the fork-inherited
  parent state, which the parent already owns) and streams it through
  a :class:`~repro.obs.telemetry.TelemetrySink` into a per-call
  scratch directory; after the futures drain, the coordinator runs a
  :class:`~repro.obs.telemetry.TelemetryAggregator` over the sinks
  and folds the merged snapshot into its own registry.  Counter
  totals (engine steps, Newton iterations, backend slots, warm-start
  hits …) therefore equal the serial run's exactly — CI asserts the
  deterministic view of a ``--jobs 2`` sweep is byte-identical to
  serial.
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.evaluation.runner import stats_collector
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry as obs_telemetry

#: Per-process worker telemetry (one sink per worker per sweep call).
_worker_telemetry: dict = {"dir": None, "sink": None}


def _worker_sink(telemetry_dir: str):
    """The calling worker process's sink for ``telemetry_dir``.

    First call in a given worker (per sweep): sever any fork-inherited
    ambient sink, enable a fresh registry (the inherited one holds the
    parent's counts, which the parent still owns — counting work into
    both would double it after the merge), and open a per-pid sink.
    Subsequent points in the same worker reuse both, so the sink
    streams the worker's cumulative registry.
    """
    if _worker_telemetry["dir"] != telemetry_dir:
        obs_telemetry.forget_inherited()
        if _worker_telemetry["sink"] is not None:
            _worker_telemetry["sink"].close()
        registry = obs_metrics.enable(obs_metrics.MetricsRegistry())
        _worker_telemetry["sink"] = obs_telemetry.TelemetrySink(
            telemetry_dir, registry=registry, label=f"worker-{os.getpid()}"
        )
        _worker_telemetry["dir"] = telemetry_dir
    return _worker_telemetry["sink"]


def _run_point(
    fn: Callable[[Any], Any],
    item: Any,
    seed: "int | None",
    collect: bool,
    telemetry_dir: "str | None" = None,
) -> "tuple[Any, list]":
    """Execute one sweep point; used both inline and in workers.

    Resets the (per-process) stats collector first: under the ``fork``
    start method a worker inherits the parent's already-collected
    records, which must not be returned (and merged) twice.
    ``telemetry_dir`` is only passed to pool workers: it routes the
    point's metrics into a fresh worker registry streamed to a sink
    the coordinator aggregates (never set on the inline path, where
    points publish directly into the parent registry).
    """
    sink = None
    if telemetry_dir is not None:
        sink = _worker_sink(telemetry_dir)
    if collect:
        stats_collector.enable()
        stats_collector.records = []
    if seed is not None:
        np.random.seed(seed)
    result = fn(item)
    records = stats_collector.clear() if collect else []
    if sink is not None:
        sink.flush(force=True)
    return result, records


def _worker(payload: "tuple[Callable, Any, int | None, bool, str | None]"):
    return _run_point(*payload)


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: "int | None" = None,
    seeds: "Sequence[int | None] | None" = None,
) -> list:
    """Map ``fn`` over ``items``, optionally across processes.

    Parameters
    ----------
    fn:
        A module-level (picklable) function of one argument.
    items:
        The sweep points.
    jobs:
        Number of worker processes; ``None``/``0``/``1`` runs inline
        (same wrapper, same per-point work).
    seeds:
        Optional per-item RNG seeds (``np.random.seed`` before each
        point); supply one per item so outcomes are scheduling-free.

    Returns the results in input order.  Statistics recorded by the
    points into the per-process :data:`stats_collector` are merged
    back into the parent's collector in submission order, making
    ``--stats`` output independent of ``jobs``.
    """
    items = list(items)
    if seeds is None:
        seeds = [None] * len(items)
    seeds = list(seeds)
    if len(seeds) != len(items):
        raise ValueError(f"expected {len(items)} seeds, got {len(seeds)}")
    collect = stats_collector.enabled
    results: list = []
    if not jobs or jobs <= 1 or len(items) <= 1:
        for item, seed in zip(items, seeds):
            saved = stats_collector.records if collect else []
            result, records = _run_point(fn, item, seed, collect)
            if collect:
                stats_collector.records = saved
            results.append(result)
            stats_collector.merge(records)
        return results
    parent_registry = obs_metrics.active()
    scratch = None
    telemetry_dir = None
    if parent_registry is not None:
        # Workers stream their registries into a per-call scratch dir;
        # a scratch (not the ambient --telemetry dir) so the parent's
        # own sink remains the single account of this process's
        # registry and external aggregation never sees the same work
        # twice (once from a worker sink, once post-merge).
        scratch = tempfile.TemporaryDirectory(prefix="repro-sweep-telemetry-")
        telemetry_dir = scratch.name
    try:
        with ProcessPoolExecutor(max_workers=int(jobs)) as pool:
            futures = [
                pool.submit(_worker, (fn, item, seed, collect, telemetry_dir))
                for item, seed in zip(items, seeds)
            ]
            for future in futures:  # submission order == input order
                result, records = future.result()
                results.append(result)
                stats_collector.merge(records)
        if parent_registry is not None:
            aggregator = obs_telemetry.TelemetryAggregator(telemetry_dir)
            aggregator.poll()
            obs_telemetry.merge_snapshot_into(
                parent_registry, aggregator.merged_snapshot()
            )
    finally:
        if scratch is not None:
            scratch.cleanup()
    return results


def run_sweep(
    fn: Callable[[Any], Any],
    grid: Iterable[Any],
    jobs: "int | None" = None,
    base_seed: "int | None" = None,
) -> list:
    """Sweep ``fn`` over ``grid`` with per-point derived seeds.

    ``base_seed`` (when given) seeds point ``i`` with
    ``base_seed + i`` — tied to the grid position, not the worker, so
    a sweep's random draws are reproducible at any ``jobs``.
    """
    grid = list(grid)
    seeds = None if base_seed is None else [base_seed + i for i in range(len(grid))]
    return parallel_map(fn, grid, jobs=jobs, seeds=seeds)
