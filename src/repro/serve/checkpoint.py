"""Checkpoint files: crash-safe, constant-size snapshots of a serve run.

The online controller links slot t to the past only through the
decision it carries (the previous allocation and a warm-start seed),
so what a resume needs is O(|E|) carry state.  The decisions already
taken are history: they are written once, appended to a journal, and
never re-encoded.  A checkpoint at ``PATH`` is therefore two files:

* **the carry file** ``PATH`` — an ``.npz`` holding the controller's
  carried arrays as exported through
  :meth:`~repro.engine.session.SolveSession.export_state`
  (``ctrl__*`` entries), ``commit`` (int64 ``[t, n_steps]``: the step
  index and the number of journal records the file commits) and a
  JSON ``meta`` record: schema tag (:data:`CHECKPOINT_SCHEMA`), the
  journal's record layout, the controller name, scalar/None state
  entries and the BLAS build and thread count.  Its size does not
  depend on ``t``.  It is replaced atomically (staged next to the
  target, then :func:`os.replace`);
* **the journal** ``PATH.journal`` — one fixed-size binary record per
  decided slot, in slot order (layout: :func:`record_dtype`): a
  payload length and its CRC32, then the decision ``x``, ``y``, ``s``
  as float64, the numeric :class:`~repro.engine.stats.StepStats`
  fields, the step's backend names in a fixed-width field and the
  serve path code (:data:`PATH_CODES`).

Write order: the new records are appended (and flushed) first, then
the carry file is replaced.  The carry's ``n_steps`` is the commit
point.  On load, the first ``n_steps`` records are read and checked —
a length or CRC mismatch in a committed record raises
:class:`ValueError` naming the file and the record index — and any
tail after them is truncated: it comes from a crash between the append
and the replace, or from a torn append, and holds no committed slot.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.engine.stats import StepStats
from repro.model.allocation import Allocation
from repro.solvers.blas import blas_info

#: Schema identifier stamped into every carry file's meta record.
CHECKPOINT_SCHEMA = "repro-serve-ckpt/v2"

#: Serve path of a journal record, by code; code 0 means "not recorded"
#: (a session snapshot saved outside a serve loop, e.g. a cache blob).
PATH_CODES = ("", "primary", "hold", "greedy")

#: Width in bytes of a record's comma-joined backend names.
BACKENDS_WIDTH = 64

#: Bytes of the ``length``/``crc`` record header the CRC does not cover.
_HEADER_BYTES = 8

#: npz key prefix for controller state arrays.
_CTRL_PREFIX = "ctrl__"

#: Fixed leading fields of a stored zip member's local header and
#: central-directory entry (signature, versions, flags, method 0,
#: DOS time/date of 1980-01-01 00:00).
_ZIP_LOCAL = struct.pack("<4s5H", b"PK\x03\x04", 20, 0, 0, 0, 0x21)
_ZIP_CENTRAL = struct.pack("<4s6H", b"PK\x01\x02", 20, 20, 0, 0, 0, 0x21)

#: Integer ``StepStats`` counters, in record order.
_COUNTERS = ("n_solves", "newton_iters", "warm_attempts", "warm_hits", "fallbacks")


def journal_path(path: "str | Path") -> Path:
    """The journal file belonging to the carry file at ``path``: ``PATH.journal``."""
    path = Path(path)
    return path.with_name(path.name + ".journal")


def record_dtype(n_x: int, n_y: int, n_s: int) -> np.dtype:
    """The packed little-endian layout of one journal record."""
    return np.dtype(
        [("length", "<u4"), ("crc", "<u4"),
         ("x", "<f8", (n_x,)), ("y", "<f8", (n_y,)), ("s", "<f8", (n_s,)),
         ("t", "<i8"), ("wall_time", "<f8")]
        + [(name, "<i8") for name in _COUNTERS]
        + [("backends", f"S{BACKENDS_WIDTH}"), ("path", "u1")]
    )


def _staged(path: Path) -> Path:
    return path.with_name(f"{path.name}.{os.getpid()}.tmp")


def _encode_records(dtype: np.dtype, steps, stats, paths, start: int) -> np.ndarray:
    """Records ``start..len(steps)-1`` with their CRCs filled in."""
    new, new_stats = steps[start:], stats[start:]
    recs = np.zeros(len(new), dtype)
    if not new:
        return recs
    recs["length"] = dtype.itemsize - _HEADER_BYTES
    for field in ("x", "y", "s"):
        recs[field] = [getattr(step, field) for step in new]
    for field in ("t", "wall_time", *_COUNTERS):
        recs[field] = [getattr(st, field) for st in new_stats]
    backends, codes = [], []
    for k in range(start, len(steps)):
        names = ",".join(stats[k].backends).encode("ascii")
        if len(names) > BACKENDS_WIDTH:
            raise ValueError(
                f"step {k}: backend names {stats[k].backends} exceed the "
                f"journal's {BACKENDS_WIDTH}-byte field"
            )
        path = paths[k] if k < len(paths) else ""
        if path not in PATH_CODES:
            raise ValueError(f"step {k}: unknown serve path {path!r}")
        backends.append(names)
        codes.append(PATH_CODES.index(path))
    recs["backends"], recs["path"] = backends, codes
    raw = recs.view(np.uint8).reshape(len(recs), dtype.itemsize)
    recs["crc"] = [zlib.crc32(row[_HEADER_BYTES:]) for row in raw]
    return recs


def _write_journal(jpath: Path, recs: np.ndarray, start: int) -> None:
    """Keep the journal's first ``start`` records and append ``recs``.

    ``start == 0`` rewrites the journal through a staged file, so a
    one-shot save never exposes a half-written journal.
    """
    if start == 0:
        tmp = _staged(jpath)
        with open(tmp, "wb") as fh:
            fh.write(recs.tobytes())
        os.replace(tmp, jpath)
        return
    keep = start * recs.dtype.itemsize
    with open(jpath, "r+b") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size < keep:
            raise ValueError(
                f"{jpath}: journal holds {size} bytes, fewer than the "
                f"{start} records already committed"
            )
        if size > keep:
            fh.seek(keep)
            fh.truncate()
        fh.write(recs.tobytes())


def _npz_bytes(entries: "dict[str, np.ndarray]") -> bytes:
    """An uncompressed ``.npz`` (a stored zip of ``.npy`` members).

    Built directly rather than through :func:`numpy.savez`, whose
    per-member ``zipfile`` machinery costs more than the rest of a
    checkpoint write; :func:`numpy.load` reads the result as usual.
    """
    parts, central, offset = [], [], 0
    for key, value in entries.items():
        npy = io.BytesIO()
        np.lib.format.write_array(npy, value, allow_pickle=False)
        data, name = npy.getvalue(), f"{key}.npy".encode()
        # CRC32, compressed and uncompressed size (stored: equal).
        sizes = struct.pack("<3L", zlib.crc32(data), len(data), len(data))
        parts += [_ZIP_LOCAL + sizes + struct.pack("<2H", len(name), 0) + name, data]
        central.append(
            _ZIP_CENTRAL + sizes
            + struct.pack("<5H2L", len(name), 0, 0, 0, 0, 0, offset) + name
        )
        offset += len(parts[-2]) + len(data)
    directory = b"".join(central)
    end = struct.pack(
        "<4s4H2LH", b"PK\x05\x06", 0, 0, len(central), len(central),
        len(directory), offset, 0,
    )
    return b"".join(parts) + directory + end


def save_checkpoint(
    path: "str | Path",
    snapshot: dict,
    *,
    controller_name: str = "",
    paths: "list[str] | None" = None,
    journaled: int = 0,
) -> Path:
    """Write a session snapshot (see ``SolveSession.export_state``).

    ``paths`` records which serve path ("primary"/"hold"/"greedy")
    produced each decision, so a resumed run's report is complete.

    ``journaled`` is the number of leading journal records this run
    has already written: only the steps after them are appended, so a
    serve loop checkpointing every slot writes O(1) bytes per call.
    The default 0 writes the whole journal afresh (one-shot saves).
    Returns the carry file's path.
    """
    path = Path(path)
    steps = snapshot.get("steps", [])
    stats = snapshot.get("step_stats", [])
    if len(stats) != len(steps):
        raise ValueError(
            f"snapshot holds {len(steps)} steps but {len(stats)} step stats"
        )
    if not 0 <= journaled <= len(steps):
        raise ValueError(
            f"journaled={journaled} outside the snapshot's {len(steps)} steps"
        )
    layout = None
    if steps:
        if not isinstance(steps[0], Allocation):
            raise TypeError(
                "checkpointing requires Allocation steps (two-tier "
                f"controllers); got {type(steps[0]).__name__}"
            )
        first = steps[0]
        layout = {"x": first.x.size, "y": first.y.size, "s": first.s.size}
        dtype = record_dtype(layout["x"], layout["y"], layout["s"])
        layout["record_bytes"] = dtype.itemsize
    else:
        dtype = record_dtype(0, 0, 0)
    recs = _encode_records(dtype, steps, stats, paths or [], journaled)
    _write_journal(journal_path(path), recs, journaled)

    arrays: dict[str, np.ndarray] = {}
    ctrl = snapshot.get("controller", {})
    ctrl_other: dict = {}
    none_keys: list[str] = []
    for key, value in ctrl.items():
        if value is None:
            none_keys.append(key)
        elif isinstance(value, np.ndarray):
            arrays[_CTRL_PREFIX + key] = value
        elif isinstance(value, (bool, int, float, str)):
            ctrl_other[key] = value
        else:
            raise TypeError(
                f"controller snapshot entry {key!r} has unsupported type "
                f"{type(value).__name__} (expected ndarray/scalar/None)"
            )
    meta = {
        "schema": CHECKPOINT_SCHEMA,
        "journal": layout,
        "controller": controller_name,
        "ctrl_scalars": ctrl_other,
        "ctrl_none": none_keys,
        "blas": blas_info(),
    }
    arrays["commit"] = np.array([snapshot["t"], len(steps)], dtype="<i8")
    arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))
    tmp = _staged(path)
    with open(tmp, "wb") as fh:
        fh.write(_npz_bytes(arrays))
    os.replace(tmp, path)
    return path


def _read_journal(path: Path, meta: dict, n: int):
    """The ``n`` committed ``(steps, step_stats, paths)``; truncates any tail."""
    jpath = journal_path(path)
    if n == 0:
        if jpath.exists() and jpath.stat().st_size:
            os.truncate(jpath, 0)
        return [], [], []
    layout = meta["journal"]
    dtype = record_dtype(layout["x"], layout["y"], layout["s"])
    if dtype.itemsize != layout["record_bytes"]:
        raise ValueError(
            f"{path}: journal records of {layout['record_bytes']} bytes, "
            f"this version writes {dtype.itemsize}"
        )
    size = n * dtype.itemsize
    try:
        with open(jpath, "rb") as fh:
            data = fh.read(size)
            tail = fh.seek(0, os.SEEK_END) > size
    except FileNotFoundError:
        raise ValueError(
            f"{jpath}: journal missing; the carry file {path} commits {n} records"
        ) from None
    if len(data) < size:
        raise ValueError(
            f"{jpath}: journal holds {len(data) // dtype.itemsize} complete "
            f"records; the carry file {path} commits {n}"
        )
    if tail:
        os.truncate(jpath, size)
    recs = np.frombuffer(data, dtype=dtype)
    view = memoryview(data)
    length = dtype.itemsize - _HEADER_BYTES
    for k in range(n):
        start = k * dtype.itemsize + _HEADER_BYTES
        if (
            recs["length"][k] != length
            or zlib.crc32(view[start : start + length]) != recs["crc"][k]
        ):
            raise ValueError(
                f"{jpath}: journal record {k} is corrupt (length or CRC32 "
                "mismatch)"
            )
    xs, ys, ss = recs["x"].copy(), recs["y"].copy(), recs["s"].copy()
    steps = [Allocation(xs[k], ys[k], ss[k]) for k in range(n)]
    fields = {name: recs[name].tolist() for name in ("t", "wall_time", *_COUNTERS)}
    backends = [b.decode("ascii") for b in recs["backends"].tolist()]
    stats = [
        StepStats(
            backends=tuple(backends[k].split(",")) if backends[k] else (),
            **{name: column[k] for name, column in fields.items()},
        )
        for k in range(n)
    ]
    paths = [PATH_CODES[code] for code in recs["path"].tolist() if code]
    return steps, stats, paths


def load_checkpoint(path: "str | Path") -> dict:
    """Load a checkpoint into an ``export_state``-shaped snapshot.

    Returns ``{"t", "steps", "step_stats", "controller", "paths",
    "controller_name"}`` ready for
    :meth:`~repro.engine.session.SolveSession.resume`.  Reads the
    carry file, then the journal records it commits; an uncommitted
    journal tail is truncated away.  Carry files written with an
    ``extra`` meta entry (older writers) load the same way.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"{path}: unsupported checkpoint schema {meta.get('schema')!r} "
                f"(this version reads {CHECKPOINT_SCHEMA!r}); the run cannot "
                "continue from it, restart without --resume"
            )
        t, n_steps = (int(v) for v in data["commit"])
        controller: dict = dict(meta["ctrl_scalars"])
        controller.update({key: None for key in meta["ctrl_none"]})
        for key in data.files:
            if key.startswith(_CTRL_PREFIX):
                controller[key[len(_CTRL_PREFIX):]] = data[key].copy()
    steps, stats, paths = _read_journal(path, meta, n_steps)
    return {
        "t": t,
        "steps": steps,
        "step_stats": stats,
        "controller": controller,
        "paths": paths,
        "controller_name": meta["controller"],
    }
