"""Tests for serve checkpoint/resume (repro.serve.checkpoint).

The acceptance bar: a run killed at *any* slot index and resumed from
its checkpoint must produce a trajectory bitwise-identical to the
uninterrupted run's — including under deterministic fault injection.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import RegularizedOnline, SubproblemConfig
from repro.engine import SolveSession
from repro.engine.stats import StepStats
from repro.model import Allocation
from repro.serve import (
    CHECKPOINT_SCHEMA,
    FaultInjector,
    ServeConfig,
    ServeLoop,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.checkpoint import journal_path

from conftest import make_instance, make_network

EPS = SubproblemConfig(epsilon=1e-2)
HORIZON = 8


@pytest.fixture(scope="module")
def network():
    return make_network()


@pytest.fixture(scope="module")
def instance(network):
    return make_instance(network, horizon=HORIZON, seed=5)


@pytest.fixture(scope="module")
def injector():
    return FaultInjector(stall_prob=0.2, fail_prob=0.15, seed=3)


@pytest.fixture(scope="module")
def uninterrupted(instance, injector):
    """The reference run: no kill, faults injected."""
    return ServeLoop(
        RegularizedOnline(EPS), instance, ServeConfig(injector=injector)
    ).run()


class TestRoundTrip:
    def test_save_load_preserves_session_snapshot(self, network, instance, tmp_path):
        path = tmp_path / "ck.npz"
        session = SolveSession(RegularizedOnline(EPS), network)
        from repro.engine import SlotData

        for t in range(3):
            session.step(SlotData.from_instance(instance, t))
        snapshot = session.export_state()
        save_checkpoint(
            path, snapshot, controller_name="regularized-online",
            paths=["primary"] * 3,
        )
        loaded = load_checkpoint(path)
        assert loaded["t"] == 3
        assert loaded["controller_name"] == "regularized-online"
        assert loaded["paths"] == ["primary"] * 3
        assert len(loaded["steps"]) == 3
        for a, b in zip(loaded["steps"], snapshot["steps"]):
            assert np.array_equal(a.x, b.x)
        ctrl = loaded["controller"]
        assert np.array_equal(ctrl["prev_x"], snapshot["controller"]["prev_x"])
        assert np.array_equal(ctrl["warm"], snapshot["controller"]["warm"])
        assert all(isinstance(s, StepStats) for s in loaded["step_stats"])
        assert [s.t for s in loaded["step_stats"]] == [0, 1, 2]

    def test_none_entries_survive(self, tmp_path):
        path = tmp_path / "ck.npz"
        prev = Allocation.zeros(3)
        snapshot = {
            "t": 0,
            "steps": [],
            "step_stats": [],
            "controller": {
                "prev_x": prev.x, "prev_y": prev.y, "prev_s": prev.s,
                "warm": None,
            },
        }
        save_checkpoint(path, snapshot)
        loaded = load_checkpoint(path)
        assert loaded["controller"]["warm"] is None
        assert loaded["steps"] == []

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, {"t": 0, "steps": [], "controller": {}})
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_bad_schema_rejected(self, tmp_path):
        import json

        path = tmp_path / "ck.npz"
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps({"schema": "other/v9"})))
        with pytest.raises(ValueError, match="schema"):
            load_checkpoint(path)

    def test_export_without_hook_is_typeerror(self, network):
        class NoHooks:
            name = "bare"

            def make_state(self, source, initial=None):
                return object()

            def decide(self, state, t, slot):
                raise NotImplementedError

        session = SolveSession(NoHooks(), network)
        # The failure message must name the concrete controller class
        # (and its registered name), not just the missing hook — a bare
        # "no export_state" is useless when the session wraps a
        # user-supplied controller.
        with pytest.raises(TypeError, match="export_state") as exc:
            session.export_state()
        assert "NoHooks" in str(exc.value)
        assert "bare" in str(exc.value)
        with pytest.raises(TypeError, match="restore_state") as exc:
            SolveSession.resume(NoHooks(), network, {"controller": {}, "t": 0,
                                                     "steps": [], "step_stats": []})
        assert "NoHooks" in str(exc.value)


class TestKillAndResume:
    """Acceptance: bitwise-identical resume at every kill index."""

    @pytest.mark.parametrize("kill_at", list(range(1, HORIZON)))
    def test_resume_matches_uninterrupted(
        self, instance, injector, uninterrupted, tmp_path, kill_at
    ):
        path = tmp_path / "ck.npz"
        # "Kill" the loop after kill_at slots: max_slots stops it, and
        # the checkpoint-per-slot cadence means the file is exactly
        # what a SIGKILL would have left behind.
        ServeLoop(
            RegularizedOnline(EPS),
            instance,
            ServeConfig(
                injector=injector,
                checkpoint_path=path,
                checkpoint_every=1,
                max_slots=kill_at,
            ),
        ).run()
        resumed = ServeLoop.resume(
            RegularizedOnline(EPS),
            instance,
            path,
            config=ServeConfig(injector=injector),
        ).run()
        full = uninterrupted.trajectory
        assert resumed.trajectory.horizon == HORIZON
        assert np.array_equal(resumed.trajectory.x, full.x)
        assert np.array_equal(resumed.trajectory.y, full.y)
        assert np.array_equal(resumed.trajectory.s, full.s)
        # The serve-path record is complete across the restart.
        assert resumed.paths == uninterrupted.paths

    def test_resume_with_wrong_controller_rejected(self, instance, tmp_path):
        path = tmp_path / "ck.npz"
        ServeLoop(
            RegularizedOnline(EPS),
            instance,
            ServeConfig(checkpoint_path=path, checkpoint_every=1, max_slots=2),
        ).run()

        class Other(RegularizedOnline):
            name = "other-controller"

        with pytest.raises(ValueError, match="other-controller"):
            ServeLoop.resume(Other(EPS), instance, path)

    def test_checkpoint_schema_stamped(self, instance, tmp_path):
        path = tmp_path / "ck.npz"
        ServeLoop(
            RegularizedOnline(EPS),
            instance,
            ServeConfig(checkpoint_path=path, checkpoint_every=1, max_slots=1),
        ).run()
        assert load_checkpoint(path)  # schema accepted
        import json

        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
        assert meta["schema"] == CHECKPOINT_SCHEMA


class TestCheckpointFlushesObservability:
    def test_checkpoint_flushes_tracer_and_telemetry(self, instance, tmp_path):
        from repro.obs import metrics as obs_metrics
        from repro.obs import telemetry as obs_telemetry
        from repro.obs import tracing as obs_tracing
        from repro.obs.tracing import Tracer, read_trace

        trace_path = tmp_path / "trace.jsonl"
        tdir = tmp_path / "telemetry"
        with obs_metrics.use():
            obs_tracing.enable(Tracer(path=trace_path))
            obs_telemetry.attach(tdir, min_interval_s=3600.0)
            try:
                ServeLoop(
                    RegularizedOnline(EPS),
                    instance,
                    ServeConfig(
                        checkpoint_path=tmp_path / "run.ckpt",
                        checkpoint_every=1,
                        max_slots=2,
                    ),
                ).run()
                # Both streams are durable at the checkpoint barrier even
                # though neither was closed and the sink's own flush
                # cadence (1h) never came due.
                assert len(read_trace(trace_path)) > 0
                sink = obs_telemetry.active_sink()
                snapshot = obs_telemetry.replay_sink(
                    obs_telemetry.read_sink(sink.path)
                )
                slots = [
                    e
                    for e in snapshot["metrics"]
                    if e["name"] == "serve_slots_total"
                ]
                assert sum(e["value"] for e in slots) == 2
            finally:
                obs_telemetry.detach()
                obs_tracing.disable()


def _serve(instance, injector, path, max_slots):
    """Serve (or continue serving) ``max_slots`` slots, checkpointing each."""
    config = ServeConfig(
        injector=injector, checkpoint_path=path, checkpoint_every=1,
        max_slots=max_slots,
    )
    if path.exists():
        return ServeLoop.resume(
            RegularizedOnline(EPS), instance, path, config=config
        ).run()
    return ServeLoop(RegularizedOnline(EPS), instance, config).run()


def _assert_resumes_bitwise(instance, injector, uninterrupted, path):
    resumed = ServeLoop.resume(
        RegularizedOnline(EPS), instance, path, config=ServeConfig(injector=injector)
    ).run()
    full = uninterrupted.trajectory
    for a, b in ((resumed.trajectory.x, full.x), (resumed.trajectory.y, full.y),
                 (resumed.trajectory.s, full.s)):
        assert a.tobytes() == b.tobytes()
    assert resumed.paths == uninterrupted.paths


class TestJournal:
    """The append-only decision journal behind every checkpoint."""

    @pytest.fixture
    def crashed(self, instance, injector, tmp_path):
        """A run whose last append landed but whose carry is one slot old.

        Returns ``(path, carry_bytes, journal_bytes, record_bytes)``:
        the carry file committed after ``HORIZON - 1`` slots, and the
        journal after one more slot's record was appended.
        """
        path = tmp_path / "ck.npz"
        _serve(instance, injector, path, HORIZON - 1)
        carry = path.read_bytes()
        _serve(instance, injector, path, 1)
        journal = journal_path(path).read_bytes()
        assert len(journal) % HORIZON == 0
        return path, carry, journal, len(journal) // HORIZON

    def test_torn_last_record_is_truncated_and_resumes_bitwise(
        self, instance, injector, uninterrupted, crashed
    ):
        path, carry, journal, record = crashed
        committed = (HORIZON - 1) * record
        for cut in range(committed + 1, committed + record):
            path.write_bytes(carry)
            journal_path(path).write_bytes(journal[:cut])
            _assert_resumes_bitwise(instance, injector, uninterrupted, path)
            assert journal_path(path).stat().st_size == committed

    def test_journal_ahead_of_carry_is_truncated_and_resumes_bitwise(
        self, instance, injector, uninterrupted, crashed
    ):
        # Crash between the append and the carry replace: the journal
        # holds one record more than the carry file commits.
        path, carry, journal, record = crashed
        path.write_bytes(carry)
        journal_path(path).write_bytes(journal)
        loaded = load_checkpoint(path)
        assert loaded["t"] == len(loaded["steps"]) == HORIZON - 1
        assert journal_path(path).stat().st_size == (HORIZON - 1) * record
        _assert_resumes_bitwise(instance, injector, uninterrupted, path)

    @pytest.mark.parametrize("index", [0, 2, HORIZON - 1])
    def test_flipped_byte_in_committed_record_is_named(
        self, instance, injector, crashed, index
    ):
        path, _, journal, record = crashed
        damaged = bytearray(journal)
        damaged[index * record + record // 2] ^= 0x40
        journal_path(path).write_bytes(bytes(damaged))
        with pytest.raises(ValueError, match=f"record {index} is corrupt") as exc:
            load_checkpoint(path)
        assert str(journal_path(path)) in str(exc.value)

    def test_carry_file_size_does_not_grow_with_t(self, tmp_path):
        # k = 1: every SLA component is a closed-form star, so 500 slots
        # serve quickly.
        network = make_network(k=1)
        instance = make_instance(network, horizon=500, seed=9)
        controller = RegularizedOnline(
            SubproblemConfig(epsilon=1e-2, backend="batched")
        )
        path = tmp_path / "ck.npz"
        config = ServeConfig(checkpoint_path=path, checkpoint_every=1)
        ServeLoop(controller, instance, replace(config, max_slots=10)).run()
        at_10 = path.stat().st_size
        journal_at_10 = journal_path(path).stat().st_size
        ServeLoop.resume(controller, instance, path, config=config).run()
        assert load_checkpoint(path)["t"] == 500
        assert path.stat().st_size == at_10
        assert journal_path(path).stat().st_size == 50 * journal_at_10

    def test_v1_checkpoint_rejected_with_restart_hint(self, instance, tmp_path):
        import json

        path = tmp_path / "ck.npz"
        meta = {"schema": "repro-serve-ckpt/v1", "t": 2, "n_steps": 2}
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)),
                     steps_x=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="repro-serve-ckpt/v1") as exc:
            ServeLoop.resume(RegularizedOnline(EPS), instance, path)
        assert "without --resume" in str(exc.value)

    def test_fresh_run_replaces_a_stale_journal(
        self, instance, injector, uninterrupted, tmp_path
    ):
        path = tmp_path / "ck.npz"
        _serve(instance, injector, path, HORIZON)
        record = journal_path(path).stat().st_size // HORIZON
        path.unlink()  # a new run at the same path, not a resume
        _serve(instance, injector, path, 3)
        assert journal_path(path).stat().st_size == 3 * record
        _assert_resumes_bitwise(instance, injector, uninterrupted, path)

    def test_resume_into_another_path_writes_a_whole_journal(
        self, instance, injector, uninterrupted, tmp_path
    ):
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        _serve(instance, injector, first, 3)
        ServeLoop.resume(
            RegularizedOnline(EPS), instance, first,
            config=ServeConfig(injector=injector, checkpoint_path=second,
                               checkpoint_every=1, max_slots=2),
        ).run()
        assert load_checkpoint(second)["t"] == 5
        _assert_resumes_bitwise(instance, injector, uninterrupted, second)

    def test_append_writes_only_new_records(self, network, instance, tmp_path):
        from repro.engine import SlotData

        path = tmp_path / "ck.npz"
        session = SolveSession(RegularizedOnline(EPS), network)
        session.step(SlotData.from_instance(instance, 0))
        save_checkpoint(path, session.export_state())
        record = journal_path(path).stat().st_size
        for t in (1, 2):
            session.step(SlotData.from_instance(instance, t))
            save_checkpoint(path, session.export_state(), journaled=t)
        assert journal_path(path).stat().st_size == 3 * record
        loaded = load_checkpoint(path)
        for a, b in zip(loaded["steps"], session._steps):
            assert a.x.tobytes() == b.x.tobytes()
        assert [s.to_dict() for s in loaded["step_stats"]] == [
            s.to_dict() for s in session._step_stats
        ]

    def test_one_shot_save_writes_a_whole_journal_and_names_damage(
        self, network, instance, tmp_path
    ):
        # A snapshot saved outside a serve loop (journaled=0) is a carry
        # file plus a whole journal that reads back bitwise; a damaged
        # record is named on load.
        from repro.engine import SlotData

        path = tmp_path / "ck.npz"
        session = SolveSession(RegularizedOnline(EPS), network)
        for t in range(3):
            session.step(SlotData.from_instance(instance, t))
        save_checkpoint(path, session.export_state())
        journal = journal_path(path)
        assert journal.stat().st_size > 0
        loaded = load_checkpoint(path)
        for a, b in zip(loaded["steps"], session._steps, strict=True):
            for name in ("x", "y", "s"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        damaged = bytearray(journal.read_bytes())
        damaged[len(damaged) // 2] ^= 0x01
        journal.write_bytes(bytes(damaged))
        with pytest.raises(ValueError, match="record 1 is corrupt"):
            load_checkpoint(path)

    def test_carry_with_an_extra_meta_entry_still_resumes_bitwise(
        self, instance, injector, uninterrupted, tmp_path
    ):
        # Earlier writers stored an ``extra`` side record in the carry
        # file's meta; such a checkpoint loads and resumes unchanged.
        import json

        path = tmp_path / "ck.npz"
        _serve(instance, injector, path, 3)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(str(arrays["meta"]))
        meta["extra"] = {"shard": 0, "tier1": [0, 1]}
        arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        assert load_checkpoint(path)["t"] == 3
        _assert_resumes_bitwise(instance, injector, uninterrupted, path)
