"""Unit tests for the persistent solver-state store (repro.cache).

The contract under test: a damaged or shared cache can cost a cold
solve, never a wrong result — corrupt blobs are discarded and counted,
eviction is deterministic, and worker op-counts merge exactly.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cache import (
    CacheCounters,
    SolverStateStore,
    array_digest,
    config_fingerprint,
    network_fingerprint,
    session_key,
    solve_key,
    structure_fingerprint,
)
from repro.cache import runtime as cache_runtime
from repro.core.subproblem import SubproblemConfig
from repro.model import Allocation

from conftest import make_network


def _alloc(n_edges: int = 4, seed: int = 0) -> Allocation:
    rng = np.random.default_rng(seed)
    return Allocation(rng.random(n_edges), rng.random(n_edges), rng.random(n_edges))


def _put(store: SolverStateStore, key: str, seed: int = 0) -> "tuple[Allocation, np.ndarray]":
    alloc = _alloc(seed=seed)
    v = np.arange(6.0) + seed
    store.put_solve(key, alloc, v)
    return alloc, v


KEY = "ab" + "0" * 62  # well-formed hex key with a stable shard prefix


class TestSolveBlobs:
    def test_roundtrip(self, tmp_path):
        store = SolverStateStore(tmp_path)
        alloc, v = _put(store, KEY)
        got = store.get_solve(KEY)
        assert got is not None
        got_alloc, got_v = got
        assert np.array_equal(got_alloc.x, alloc.x)
        assert np.array_equal(got_alloc.y, alloc.y)
        assert np.array_equal(got_alloc.s, alloc.s)
        assert np.array_equal(got_v, v)
        assert store.counters.store == 1 and store.counters.hit == 1

    def test_roundtrip_via_fresh_store(self, tmp_path):
        # The point of the exercise: a *different* process (modeled by
        # a fresh store on the same directory) sees the blob.
        alloc, v = _put(SolverStateStore(tmp_path), KEY)
        got = SolverStateStore(tmp_path).get_solve(KEY)
        assert got is not None
        assert np.array_equal(got[0].x, alloc.x)
        assert np.array_equal(got[1], v)

    def test_miss_counts(self, tmp_path):
        store = SolverStateStore(tmp_path)
        assert store.get_solve(KEY) is None
        assert store.counters.miss == 1
        assert store.counters.hit == 0

    def test_returned_arrays_are_copies(self, tmp_path):
        store = SolverStateStore(tmp_path)
        _put(store, KEY)
        first = store.get_solve(KEY)
        first[0].x[:] = -1.0
        first[1][:] = -1.0
        second = store.get_solve(KEY)
        assert float(second[0].x.min()) >= 0.0
        assert float(second[1].min()) >= 0.0

    def test_put_is_idempotent(self, tmp_path):
        store = SolverStateStore(tmp_path)
        _put(store, KEY)
        before = os.stat(store._blob_path("solve", KEY)).st_mtime_ns
        _put(store, KEY, seed=1)  # second put of the same key: ignored
        got = store.get_solve(KEY)
        assert np.array_equal(got[0].x, _alloc(seed=0).x)
        assert os.stat(store._blob_path("solve", KEY)).st_mtime_ns == before

    def test_truncated_blob_is_corrupt_not_wrong(self, tmp_path):
        store = SolverStateStore(tmp_path)
        _put(store, KEY)
        path = store._blob_path("solve", KEY)
        path.write_bytes(path.read_bytes()[:20])
        fresh = SolverStateStore(tmp_path)
        assert fresh.get_solve(KEY) is None
        assert fresh.counters.corrupt == 1
        assert not path.exists()  # discarded best-effort

    def test_foreign_npz_is_corrupt(self, tmp_path):
        store = SolverStateStore(tmp_path)
        path = store._blob_path("solve", KEY)
        path.parent.mkdir(parents=True)
        with open(path, "wb") as fh:
            np.savez(fh, something=np.arange(3))
        assert store.get_solve(KEY) is None
        assert store.counters.corrupt == 1

    def test_key_mismatch_inside_blob_is_corrupt(self, tmp_path):
        store = SolverStateStore(tmp_path)
        _put(store, KEY)
        other = "ab" + "f" * 62
        src = store._blob_path("solve", KEY)
        dst = store._blob_path("solve", other)
        dst.write_bytes(src.read_bytes())  # blob claims KEY, filed as other
        fresh = SolverStateStore(tmp_path)
        assert fresh.get_solve(other) is None
        assert fresh.counters.corrupt == 1

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = SolverStateStore(tmp_path)
        _put(store, KEY)
        assert list(tmp_path.rglob("*.tmp")) == []


class TestEviction:
    def test_oldest_evicted_beyond_cap(self, tmp_path):
        store = SolverStateStore(tmp_path, max_entries=2)
        keys = [f"{i:02x}" + "0" * 62 for i in range(4)]
        for i, key in enumerate(keys):
            _put(store, key, seed=i)
            # Deterministic, strictly increasing mtimes.
            os.utime(store._blob_path("solve", key), ns=(0, (i + 1) * 10**9))
        assert store.counters.evict == 2
        fresh = SolverStateStore(tmp_path)
        assert fresh.get_solve(keys[0]) is None
        assert fresh.get_solve(keys[1]) is None
        assert fresh.get_solve(keys[2]) is not None
        assert fresh.get_solve(keys[3]) is not None

    def test_bad_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            SolverStateStore(tmp_path, max_entries=0)

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = SolverStateStore(tmp_path)
        for i in range(5):
            _put(store, f"{i:02x}" + "0" * 62, seed=i)
        assert store.counters.evict == 0


class TestStateBlobs:
    def test_state_roundtrip(self, tmp_path):
        store = SolverStateStore(tmp_path)
        prev = Allocation.zeros(3)
        snapshot = {
            "t": 2,
            "steps": [],
            "step_stats": [],
            "controller": {"prev_x": prev.x, "prev_y": prev.y,
                           "prev_s": prev.s, "warm": None},
        }
        key = session_key("fp", "regularized-online")
        store.put_state(key, snapshot, controller_name="regularized-online")
        loaded = SolverStateStore(tmp_path).get_state(key)
        assert loaded["t"] == 2
        assert loaded["controller_name"] == "regularized-online"
        assert loaded["controller"]["warm"] is None

    def test_state_miss_and_corrupt(self, tmp_path):
        store = SolverStateStore(tmp_path)
        key = session_key("fp", "x")
        assert store.get_state(key) is None
        assert store.counters.miss == 1
        path = store._blob_path("state", key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not an npz")
        assert store.get_state(key) is None
        assert store.counters.corrupt == 1


    def test_state_blob_is_a_carry_file_and_journal(self, tmp_path):
        from repro.engine import SlotData, SolveSession
        from repro.core import RegularizedOnline
        from repro.serve.checkpoint import journal_path

        from conftest import make_instance

        network = make_network()
        instance = make_instance(network, horizon=3, seed=1)
        session = SolveSession(RegularizedOnline(), network)
        for t in range(3):
            session.step(SlotData.from_instance(instance, t))
        store = SolverStateStore(tmp_path)
        key = session_key("fp", "regularized-online")
        path = store.put_state(key, session.export_state())
        journal = journal_path(path)
        assert journal.stat().st_size > 0
        assert store.stats()["bytes"] == (
            path.stat().st_size + journal.stat().st_size
        )
        loaded = SolverStateStore(tmp_path).get_state(key)
        assert [a.y.tobytes() for a in loaded["steps"]] == [
            a.y.tobytes() for a in session._steps
        ]
        # A damaged journal record discards the carry file and journal
        # together.
        damaged = bytearray(journal.read_bytes())
        damaged[len(damaged) // 2] ^= 0x01
        journal.write_bytes(bytes(damaged))
        assert store.get_state(key) is None
        assert store.counters.corrupt == 1
        assert not path.exists() and not journal.exists()


class TestMaintenance:
    def test_stats_shape(self, tmp_path):
        store = SolverStateStore(tmp_path, max_entries=9)
        _put(store, KEY)
        stats = store.stats()
        assert stats["entries"] == {"solve": 1, "state": 0}
        assert stats["bytes"] > 0
        assert stats["max_entries"] == 9
        assert stats["counters"]["store"] == 1

    def test_clear_removes_everything(self, tmp_path):
        store = SolverStateStore(tmp_path)
        _put(store, KEY)
        store.put_state(session_key("fp", "c"), {"t": 0, "steps": [],
                                                 "step_stats": [],
                                                 "controller": {}})
        assert store.clear() == 2
        assert store.stats()["entries"] == {"solve": 0, "state": 0}
        assert SolverStateStore(tmp_path).get_solve(KEY) is None

    def test_merge_counts(self, tmp_path):
        store = SolverStateStore(tmp_path)
        store.merge_counts({"hit": 3, "miss": 1, "store": 1})
        assert store.counters.hit == 3
        assert store.counters.miss == 1
        with pytest.raises(ValueError, match="unknown cache op"):
            store.merge_counts({"frobnicate": 1})

    def test_counters_describe(self):
        counters = CacheCounters(hit=3, miss=1)
        text = counters.describe()
        assert "hit=3" in text and "hit rate 75%" in text
        assert "n/a" in CacheCounters().describe()


class TestRuntime:
    def test_activate_deactivate(self, tmp_path):
        assert cache_runtime.active() is None
        store = cache_runtime.activate(tmp_path)
        try:
            assert cache_runtime.active() is store
            assert cache_runtime.active_dir() == str(tmp_path)
        finally:
            cache_runtime.deactivate()
        assert cache_runtime.active() is None
        assert cache_runtime.active_dir() is None

    def test_use_context_manager(self, tmp_path):
        with cache_runtime.use(tmp_path) as store:
            assert cache_runtime.active() is store
        assert cache_runtime.active() is None


class TestFingerprints:
    def test_array_digest_separates_shape_and_none(self):
        flat = np.arange(6.0)
        assert array_digest(flat.reshape(2, 3)) != array_digest(flat.reshape(3, 2))
        assert array_digest(None) != array_digest(np.array([]))

    def test_network_fingerprint_ignores_names(self):
        from repro.model import Cloud, CloudNetwork, SLAEdge

        def build(prefix):
            tier2 = [Cloud(f"{prefix}{i}", 10.0, 20.0) for i in range(2)]
            tier1 = [Cloud(f"{prefix}-edge-{j}", np.inf) for j in range(3)]
            edges = [SLAEdge(j % 2, j, 7.0, 12.0) for j in range(3)]
            return CloudNetwork(tier2, tier1, edges)

        assert network_fingerprint(build("a")) == network_fingerprint(build("b"))

    def test_network_fingerprint_sees_capacity(self):
        assert network_fingerprint(make_network()) != network_fingerprint(
            make_network(tier2_capacity=11.0)
        )

    def test_config_fingerprint_sees_every_flag(self):
        base = SubproblemConfig(epsilon=1e-2)
        assert config_fingerprint(base) == config_fingerprint(
            SubproblemConfig(epsilon=1e-2)
        )
        for other in (
            SubproblemConfig(epsilon=2e-2),
            SubproblemConfig(epsilon=1e-2, hedging=False),
            SubproblemConfig(epsilon=1e-2, fused_kernels=False),
            SubproblemConfig(epsilon=1e-2, backend="batched"),
        ):
            assert config_fingerprint(base) != config_fingerprint(other)

    def test_solve_key_sees_every_input(self, small_network):
        config = SubproblemConfig(epsilon=1e-2)
        fp = structure_fingerprint(small_network, config)
        J, E = small_network.n_tier1, small_network.n_edges
        workload = np.ones(J)
        t2 = np.ones(small_network.n_tier2)
        link = np.ones(E)
        prev = Allocation.zeros(E)
        base = solve_key(fp, workload, t2, link, prev, None)
        assert base == solve_key(fp, workload, t2, link, prev, None)
        assert base != solve_key(fp, workload + 1e-9, t2, link, prev, None)
        assert base != solve_key(fp, workload, t2, link, prev, np.zeros(3))
        bumped = Allocation(prev.x + 1, prev.y, prev.s)
        assert base != solve_key(fp, workload, t2, link, bumped, None)
