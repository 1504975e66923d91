"""File-backed keyed store of reusable solver state.

The store is a plain directory of ``.npz`` blobs addressed by the
fingerprint keys of :mod:`repro.cache.fingerprint`:

* ``solve/<k0k1>/<key>.npz`` — one per-slot solve result (the
  edge-space :class:`~repro.model.allocation.Allocation` plus the
  reduced solution vector, i.e. the next slot's warm-start seed);
* ``state/<k0k1>/<key>.npz`` (+ ``<key>.npz.journal``) — one
  whole-session snapshot in the checkpoint serialization
  (:mod:`repro.serve.checkpoint`): a carry file and its decision
  journal, so the blob format is exactly ``SolveSession.export_state``'s.
  The two files are removed together.

Concurrency model: **read-mostly sharing with atomic single-writer
renames** (the CloudRouting ``filecache.py`` idiom).  Writers stage
next to the target under a unique temp name and ``os.replace`` into
place, so readers never observe a partial blob and concurrent writers
of the same key are harmless — both produce identical bytes because a
blob is a deterministic function of its key.  Parallel sweep workers
therefore share one directory with no locking (see
:mod:`repro.evaluation.parallel`).

Corruption is contained by construction: every read validates the
blob's schema and embedded key, and *any* failure (truncated file,
foreign npz, wrong schema) is counted as ``corrupt``, the offending
file is discarded best-effort, and the caller falls back to a cold
solve — a damaged cache can cost time, never correctness.

Counters (``hit``/``miss``/``store``/``evict``/``corrupt``) are kept
per store instance and mirrored into the active
:mod:`repro.obs.metrics` registry as
``solver_cache_ops_total{op=...}``.
"""

from __future__ import annotations

import io
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.model.allocation import Allocation
from repro.obs import metrics as obs_metrics

#: Schema tag embedded in every solve blob.
STORE_SCHEMA = "repro-solver-cache/v1"

#: Counter operations, in reporting order.
OPS = ("hit", "miss", "store", "evict", "corrupt")


@dataclass
class CacheCounters:
    """Per-store operation counts since construction (or last merge)."""

    hit: int = 0
    miss: int = 0
    store: int = 0
    evict: int = 0
    corrupt: int = 0

    def as_dict(self) -> "dict[str, int]":
        return {op: getattr(self, op) for op in OPS}

    def describe(self) -> str:
        attempts = self.hit + self.miss
        rate = f"{100.0 * self.hit / attempts:.0f}%" if attempts else "n/a"
        parts = ", ".join(f"{op}={getattr(self, op)}" for op in OPS)
        return f"{parts} (hit rate {rate})"


class SolverStateStore:
    """A cache directory of keyed solver-state blobs.

    Parameters
    ----------
    root:
        Cache directory; created on first use.
    max_entries:
        Optional cap on the number of *solve* blobs.  When a store
        pushes the count past the cap, the oldest blobs (by
        modification time, ties broken by key so eviction is
        deterministic) are removed and counted as ``evict``.  Session
        state blobs are few and never evicted.
    """

    def __init__(
        self, root: "str | Path", max_entries: "int | None" = None
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.root = Path(root)
        self.max_entries = max_entries
        self.counters = CacheCounters()
        # In-process memo over the file layer: a key read or written
        # once is served from memory afterwards (read-mostly sharing;
        # files exist for *other* processes and later runs).
        self._memory: "dict[str, tuple[Allocation, np.ndarray]]" = {}
        self._solve_count: "int | None" = None  # lazy; maintained once known

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _blob_path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.npz"

    def _publish(self, op: str, amount: int = 1) -> None:
        setattr(self.counters, op, getattr(self.counters, op) + amount)
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter(
                "solver_cache_ops_total",
                help="persistent solver-cache operations",
                op=op,
            ).inc(amount)

    @staticmethod
    def _unlink(path: Path) -> bool:
        """Remove a blob, then its journal if it has one.

        Returns ``False`` when the blob itself was already gone (another
        process removed it first).
        """
        from repro.serve.checkpoint import journal_path

        try:
            path.unlink()
            removed = True
        except OSError:
            removed = False
        try:
            journal_path(path).unlink()
        except OSError:
            pass
        return removed

    def _discard_corrupt(self, path: Path) -> None:
        self._publish("corrupt")
        self._unlink(path)

    @staticmethod
    def _atomic_write(path: Path, payload: bytes) -> None:
        """Stage-and-rename write; readers never see partial blobs."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on a failed replace
                tmp.unlink()

    # ------------------------------------------------------------------
    # Per-slot solve blobs
    # ------------------------------------------------------------------
    def get_solve(self, key: str) -> "tuple[Allocation, np.ndarray] | None":
        """The stored ``(Allocation, reduced v)`` for ``key``, or ``None``.

        Returned arrays are fresh copies — callers may hold or mutate
        them without poisoning the memo.
        """
        entry = self._memory.get(key)
        if entry is None:
            path = self._blob_path("solve", key)
            try:
                with np.load(path, allow_pickle=False) as data:
                    meta = json.loads(str(data["meta"]))
                    if meta.get("schema") != STORE_SCHEMA or meta.get("key") != key:
                        raise ValueError(
                            f"blob {path} does not match schema/key"
                        )
                    entry = (
                        Allocation(
                            data["x"].copy(), data["y"].copy(), data["s"].copy()
                        ),
                        data["v"].copy(),
                    )
            except FileNotFoundError:
                self._publish("miss")
                return None
            except Exception:
                # Truncated npz, foreign file, schema/key mismatch:
                # discard and fall back to a cold solve.
                self._discard_corrupt(path)
                return None
            self._memory[key] = entry
        self._publish("hit")
        alloc, v = entry
        return (
            Allocation(alloc.x.copy(), alloc.y.copy(), alloc.s.copy()),
            v.copy(),
        )

    def put_solve(self, key: str, allocation: Allocation, v: np.ndarray) -> None:
        """Store one solve result under ``key`` (idempotent)."""
        if key in self._memory:
            return
        self._memory[key] = (
            Allocation(
                np.array(allocation.x, dtype=float, copy=True),
                np.array(allocation.y, dtype=float, copy=True),
                np.array(allocation.s, dtype=float, copy=True),
            ),
            np.array(v, dtype=float, copy=True),
        )
        path = self._blob_path("solve", key)
        if not path.exists():
            meta = json.dumps({"schema": STORE_SCHEMA, "key": key}, sort_keys=True)
            buf = io.BytesIO()
            np.savez(
                buf,
                meta=np.array(meta),
                x=np.asarray(allocation.x, dtype=float),
                y=np.asarray(allocation.y, dtype=float),
                s=np.asarray(allocation.s, dtype=float),
                v=np.asarray(v, dtype=float),
            )
            self._atomic_write(path, buf.getvalue())
            if self._solve_count is not None:
                self._solve_count += 1
        self._publish("store")
        self._maybe_evict()

    # ------------------------------------------------------------------
    # Whole-session state blobs (export_state serialization)
    # ------------------------------------------------------------------
    def put_state(
        self, key: str, snapshot: dict, controller_name: str = ""
    ) -> Path:
        """Store a ``SolveSession.export_state`` snapshot under ``key``.

        Reuses the checkpoint serialization
        (:func:`repro.serve.checkpoint.save_checkpoint` — already
        atomic), so a cached session blob *is* a valid checkpoint.
        """
        from repro.serve.checkpoint import save_checkpoint

        path = self._blob_path("state", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(path, snapshot, controller_name=controller_name)
        self._publish("store")
        return path

    def get_state(self, key: str) -> "dict | None":
        """The stored session snapshot for ``key``, or ``None``."""
        from repro.serve.checkpoint import load_checkpoint

        path = self._blob_path("state", key)
        try:
            snapshot = load_checkpoint(path)
        except FileNotFoundError:
            self._publish("miss")
            return None
        except Exception:
            self._discard_corrupt(path)
            return None
        self._publish("hit")
        return snapshot

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _solve_blobs(self) -> "list[Path]":
        solve_dir = self.root / "solve"
        if not solve_dir.is_dir():
            return []
        return [p for p in solve_dir.glob("*/*.npz")]

    def _maybe_evict(self) -> None:
        if self.max_entries is None:
            return
        if self._solve_count is None:
            self._solve_count = len(self._solve_blobs())
        if self._solve_count <= self.max_entries:
            return
        blobs = self._solve_blobs()
        # Oldest first; key name breaks mtime ties deterministically.
        blobs.sort(key=lambda p: (p.stat().st_mtime_ns, p.name))
        for path in blobs[: len(blobs) - self.max_entries]:
            if not self._unlink(path):  # pragma: no cover - raced with another writer
                continue
            self._memory.pop(path.stem, None)
            self._publish("evict")
        self._solve_count = min(len(blobs), self.max_entries)

    def stats(self) -> dict:
        """Directory-level view: entry counts, bytes, and op counters."""
        from repro.serve.checkpoint import journal_path

        entries: "dict[str, int]" = {}
        total_bytes = 0
        for kind in ("solve", "state"):
            kind_dir = self.root / kind
            blobs = list(kind_dir.glob("*/*.npz")) if kind_dir.is_dir() else []
            entries[kind] = len(blobs)
            total_bytes += sum(
                f.stat().st_size
                for p in blobs
                for f in (p, journal_path(p))
                if f.exists()
            )
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "max_entries": self.max_entries,
            "counters": self.counters.as_dict(),
        }

    def clear(self) -> int:
        """Remove every blob; returns the number of entries removed."""
        removed = 0
        for kind in ("solve", "state"):
            kind_dir = self.root / kind
            if not kind_dir.is_dir():
                continue
            removed += sum(1 for _ in kind_dir.glob("*/*.npz"))
            shutil.rmtree(kind_dir)
        self._memory.clear()
        self._solve_count = 0
        return removed

    def merge_counts(self, ops: "dict[str, int]") -> None:
        """Fold a worker process's op counts into this store's counters.

        The parallel sweep coordinator calls this once per point in
        submission order, so merged totals are independent of worker
        scheduling.
        """
        for op, amount in sorted(ops.items()):
            if op not in OPS:
                raise ValueError(f"unknown cache op {op!r} (expected one of {OPS})")
            if amount:
                self._publish(op, int(amount))

    def __repr__(self) -> str:
        return f"SolverStateStore({str(self.root)!r})"
