"""Row provenance: ring recording, engine-mode equivalence, durability."""

import pytest

from inspect_helpers import load_statics, make_fixture
from repro.errors import RuntimeEngineError
from repro.inspect.provenance import ProvenanceRecorder, cause_to_dict, entry_to_dict
from repro.service import engine_for_mode


def run_with_provenance(fixture, mode, depth=64, **kwargs):
    """A finished engine of ``mode`` with provenance on from the start."""
    engine = engine_for_mode(fixture.program, mode, **kwargs)
    load_statics(engine, fixture.program, fixture.statics)
    engine.enable_provenance(depth=depth)
    engine.apply_many(fixture.events)
    engine.flush()
    return engine


def transitions(engine, view):
    """History reduced to what must agree across engine modes.

    Versions differ (batched engines stamp the fold's end version) and
    causes differ by design (event vs fold), so equivalence is over the
    ordered value transitions per key.
    """
    return [(e[1], e[2], e[3]) for e in engine.provenance.history(view)]


class TestRecorder:
    def test_depth_must_be_positive(self):
        with pytest.raises(RuntimeEngineError, match="depth must be positive"):
            ProvenanceRecorder({"V": ("a",)}, depth=0)

    def test_unknown_view_rejected(self):
        recorder = ProvenanceRecorder({"V": ("a",)})
        with pytest.raises(RuntimeEngineError, match="not tracking"):
            recorder.history("other")

    def test_ring_is_bounded(self, q1):
        shallow = run_with_provenance(q1, "incremental", depth=4)
        deep = run_with_provenance(q1, "incremental", depth=4096)
        view = q1.root
        short = shallow.provenance.history(view)
        full = deep.provenance.history(view)
        assert len(short) == 4
        assert len(full) > 4
        assert short == full[-4:]  # the ring keeps the newest entries

    def test_history_keys_are_table_column_tuples(self, q1):
        engine = run_with_provenance(q1, "incremental", depth=16)
        columns = engine.maps.table(q1.root).columns
        for entry in engine.provenance.history(q1.root):
            assert type(entry[1]) is tuple
            assert len(entry[1]) == len(columns)

    def test_cause_and_entry_wire_forms(self):
        assert cause_to_dict(None) is None
        assert cause_to_dict(("event", "R", "insert", (1, 2)))["kind"] == "event"
        fold = cause_to_dict(("fold", "R", "delta", 8, 3))
        assert (fold["events"], fold["tuples"]) == (8, 3)
        assert cause_to_dict(("restore", 41)) == {"kind": "restore", "version": 41}
        entry = entry_to_dict((7, (1, "x"), 0, 5, ("restore", 7)))
        assert entry["version"] == 7 and entry["key"] == [1, "x"]


class TestModeEquivalence:
    """The same stream yields the same per-key transitions in every mode."""

    def test_incremental_matches_compiled_exactly(self, q3):
        incremental = run_with_provenance(q3, "incremental")
        compiled = run_with_provenance(q3, "compiled")
        view = q3.root
        # Per-event engines agree on versions and causes too, not just values.
        assert incremental.provenance.history(view) == compiled.provenance.history(view)
        assert incremental.result_dict(view) == compiled.result_dict(view)

    def test_batched_replayed_runs_attribute_to_events(self, q3):
        """Runs below the cutoff replay per event: exact per-event history."""
        compiled = run_with_provenance(q3, "compiled")
        batched = run_with_provenance(q3, "batched", batch_size=32)
        view = q3.root
        assert transitions(batched, view) == transitions(compiled, view)
        history = batched.provenance.history(view)
        assert history and all(entry[4][0] == "event" for entry in history)
        # Same causes as per-event execution (versions may differ: commuting
        # triggers' events are reordered inside a batch).
        assert [e[4] for e in history] == [e[4] for e in compiled.provenance.history(view)]

    def test_batched_bulk_runs_attribute_to_folds(self):
        """Only bulk runs carry fold causes: VWAP's := triggers are bulk at any length."""
        vwap = make_fixture("VWAP", events=200)
        compiled = run_with_provenance(vwap, "compiled")
        batched = run_with_provenance(vwap, "batched", batch_size=32)
        view = vwap.root
        assert batched.result_dict(view) == compiled.result_dict(view)
        stats = batched.statistics()["batching"]
        assert stats["runs_bulk"] and not stats["runs_replayed"]
        causes = [e[4] for e in batched.provenance.history(view)]
        assert causes and all(cause[0] == "fold" for cause in causes)
        # Runs keep duplicate tuples apart: the descriptor's tuples == events.
        assert all(cause[3] == cause[4] >= 1 for cause in causes)

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_partitioned_explain_row_matches_current_state(self, q3, backend):
        compiled = run_with_provenance(q3, "compiled")
        engine = engine_for_mode(q3.program, "partitioned", partitions=2, backend=backend)
        try:
            load_statics(engine, q3.program, q3.statics)
            engine.enable_provenance(depth=64)
            engine.apply_many(q3.events)
            engine.flush()
            view = q3.root
            live = engine.result_dict(view)
            assert live == compiled.result_dict(view)
            key = max(live, key=repr)
            report = engine.explain_row(view, key)
            assert report["current"] == live[key]
            assert report["history"], "the tracked row has no recorded mutations"
            for entry in report["history"]:
                assert entry["key"] == list(key)
                assert "partition" in entry  # merged histories say who recorded them
        finally:
            if hasattr(engine, "close"):
                engine.close()


class TestDurability:
    def test_checkpoint_restore_preserves_history(self, q3):
        engine = run_with_provenance(q3, "compiled", depth=32)
        view = q3.root
        before = engine.provenance.history(view)
        assert before

        restored = engine_for_mode(q3.program, "compiled")
        load_statics(restored, q3.program, q3.statics)
        restored.restore_state(engine.checkpoint_state())
        assert restored.provenance.history(view) == before
        assert restored.result_dict(view) == engine.result_dict(view)

    def test_restored_engine_keeps_recording(self, q1):
        half = len(q1.events) // 2
        engine = run_with_provenance(q1, "incremental", depth=512)
        partial = engine_for_mode(q1.program, "incremental")
        load_statics(partial, q1.program, q1.statics)
        partial.enable_provenance(depth=512)
        partial.apply_many(q1.events[:half])

        restored = engine_for_mode(q1.program, "incremental")
        load_statics(restored, q1.program, q1.statics)
        restored.restore_state(partial.checkpoint_state())
        restored.apply_many(q1.events[half:])
        # Transitions recorded after the restore match an uninterrupted run.
        tail = transitions(restored, q1.root)[-half:]
        assert tail == transitions(engine, q1.root)[-len(tail):]

    def test_disabled_engine_has_no_recorder(self, q1):
        engine = engine_for_mode(q1.program, "incremental")
        load_statics(engine, q1.program, q1.statics)
        engine.apply_many(q1.events[:50])
        with pytest.raises(RuntimeEngineError, match="provenance is not enabled"):
            engine.explain_row(q1.root)
