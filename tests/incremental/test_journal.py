"""State format v5 (v4's layout): a base plus a journal of per-save segments.

A save appends what changed since the previous save as a segment, or
writes a new base when the journal would outgrow the base or the target is
another directory.  Whatever the interleaving of ingests, saves, loads and
saves elsewhere, loading must give back the in-memory state in every
concern, the first ingest after a load must bring each blocking index
forward to ``prepare(full)`` with the memo it was saved with, and every
further ingest must still pass the whole-state oracle.
"""

import pickle
import re
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.core.cleanup import CleanupConfig
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.core.precleanup import PreCleanupConfig
from repro.incremental import IncrementalMatcher, MatchStateError, read_manifest
from repro.runtime import RuntimeConfig
from tests.incremental.oracle import ingest_checked
from tests.incremental.test_batch_equivalence import (
    RUNTIMES,
    assert_equals_batch,
    partition_records,
)


def _profile_bytes(store) -> bytes | None:
    return None if store is None else pickle.dumps(store.__getstate__())


def assert_same_state(loaded, state) -> None:
    """``loaded`` equals ``state`` in every concern a save writes."""
    assert [r.record_id for r in loaded.records] == [r.record_id for r in state.records]
    assert loaded.records == state.records
    assert loaded.owned_pairs == state.owned_pairs
    assert loaded.decisions == state.decisions
    assert _profile_bytes(loaded.profiles) == _profile_bytes(state.profiles)
    assert loaded.cleanup_memo == state.cleanup_memo
    for ours, theirs in (
        (loaded.groups, state.groups),
        (loaded.pre_cleanup_groups, state.pre_cleanup_groups),
    ):
        assert (ours and ours.groups) == (theirs and theirs.groups)
    assert loaded.pre_cleanup_removed == state.pre_cleanup_removed
    assert loaded.cleanup_report == state.cleanup_report
    assert (loaded.num_candidates, loaded.num_ingests) == (
        state.num_candidates,
        state.num_ingests,
    )
    for ours, theirs in zip(loaded.blocking_notes(), state.blocking_notes()):
        assert_notes_equal(ours, theirs)


def assert_notes_equal(ours, theirs) -> None:
    if theirs is None:
        assert ours is None
        return
    (our_rows, our_memo), (their_rows, their_memo) = ours, theirs
    assert our_rows == their_rows
    assert np.array_equal(our_memo.tops, their_memo.tops)
    assert np.array_equal(our_memo.ceilings, their_memo.ceilings, equal_nan=True)


def assert_rebuilt_indexes(matcher, original) -> None:
    """After an empty first ingest of a loaded matcher: each index equals
    ``prepare(full)`` and carries the memo of the matcher that saved it."""
    assert matcher.state.indexed_records == len(matcher.state.records)
    dataset = matcher.state.dataset()
    for part, shared, theirs in zip(
        matcher.state.parts(), matcher.state.part_states, original.state.part_states
    ):
        assert shared == part.prepare(dataset)
        assert_notes_equal(part.saved_notes(shared), part.saved_notes(theirs))


def make_factory(golden_setup, strategy="gralmatch", max_component_size=6):
    _, matcher = golden_setup

    def make(runtime=None):
        return EntityGroupMatchingPipeline(
            matcher=matcher,
            blocking=CombinedBlocking(
                [IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]
            ),
            # Low enough that the pre-cleanup rule removes token-overlap
            # edges and both clean-up phases cut.
            cleanup_config=CleanupConfig(gamma=5, mu=4),
            pre_cleanup_config=PreCleanupConfig(max_component_size=max_component_size),
            runtime=runtime,
            cleanup_strategy=strategy,
        )

    return make


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.sampled_from(["save", "load", "save_elsewhere"]), st.just(0)),
    ),
    min_size=1,
    max_size=9,
)


@pytest.fixture(scope="module")
def firing_batch_runs(golden_setup):
    """The batch run of each strategy, computed once."""
    runs: dict = {}

    def run(strategy):
        if strategy not in runs:
            runs[strategy] = make_factory(golden_setup, strategy)().run(golden_setup[0])
        return runs[strategy]

    return run


@pytest.mark.parametrize("strategy", ["gralmatch", "adaptive"])
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps=STEPS)
def test_any_interleaving_loads_back_the_in_memory_state(
    golden_setup, firing_batch_runs, tmp_path_factory, strategy, steps
):
    records = golden_setup[0].records
    factory = make_factory(golden_setup, strategy)
    root = tmp_path_factory.mktemp("journal")
    matcher = IncrementalMatcher.from_pipeline(factory(), name="journal")
    directory = root / "state0"
    fed = 0
    for number, (action, size) in enumerate([*steps, ("ingest", len(records))]):
        if action == "ingest":
            batch = records[fed:fed + size]
            fed += len(batch)
            if batch or matcher.state.num_ingests:
                ingest_checked(matcher, batch)
            continue
        if action == "save_elsewhere":
            directory = root / f"state{number + 1}"
        matcher.save(directory)
        loaded = IncrementalMatcher.load(directory)
        assert_same_state(loaded.state, matcher.state)
        if action == "load" and matcher.state.num_ingests:
            # Go on from the loaded state; an empty ingest brings its
            # indexes forward without touching a record.
            assert ingest_checked(loaded, []).records_rescored == 0
            assert_rebuilt_indexes(loaded, matcher)
            matcher = loaded
    assert fed == len(records)
    assert_equals_batch(matcher, firing_batch_runs(strategy))


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("schedule", ["1", "2", "7", "record-at-a-time"])
def test_a_save_and_a_load_after_every_batch_equal_the_batch_run(
    golden_setup, pipeline_factory, batch_result, tmp_path, runtime, schedule
):
    records = golden_setup[0].records
    if schedule == "record-at-a-time":
        batches = [records[:-8]] + [[record] for record in records[-8:]]
    else:
        batches = partition_records(records, int(schedule))
    state_dir = tmp_path / "state"
    matcher = IncrementalMatcher.from_pipeline(pipeline_factory(runtime), name="golden")
    paths = []
    try:
        for batch in batches:
            ingest_checked(matcher, batch)
            matcher.save(state_dir)
            paths.append("journal" if matcher.state.journal.segments else "compaction")
            matcher.close()
            matcher = IncrementalMatcher.load(state_dir, runtime=runtime)
        assert_equals_batch(matcher, batch_result)
    finally:
        matcher.close()
    if schedule == "record-at-a-time":
        assert paths[0] == "compaction" and set(paths[1:]) == {"journal"}


@pytest.fixture
def journaled(golden_setup, pipeline_factory, tmp_path):
    """A state with a base (the first 100 records) and two segments."""
    records = golden_setup[0].records
    matcher = IncrementalMatcher.from_pipeline(pipeline_factory(), name="golden")
    state_dir = tmp_path / "state"
    matcher.ingest(records[:100])
    matcher.save(state_dir)
    for start in (100, 110):
        matcher.ingest(records[start:start + 10])
        matcher.save(state_dir)
    assert len(matcher.state.journal.segments) == 2
    return matcher, state_dir


class TestJournalLayout:
    def test_the_manifest_lists_the_base_and_the_committed_segments(self, journaled):
        _, state_dir = journaled
        manifest = read_manifest(state_dir)
        assert manifest["format_version"] == 5
        assert manifest["payload_dir"] == "rev1"
        files = [entry["file"] for entry in manifest["segments"]]
        assert files == ["segment-000001.pkl", "segment-000002.pkl"]
        for entry in manifest["segments"]:
            assert (state_dir / "rev1" / entry["file"]).stat().st_size == entry["bytes"]
        base = sum((state_dir / "rev1" / name).stat().st_size for name in manifest["files"])
        assert manifest["base_bytes"] == base
        assert sum(entry["bytes"] for entry in manifest["segments"]) <= base

    def test_the_base_holds_the_indexes_and_a_segment_their_notes(self, journaled):
        _, state_dir = journaled
        payload = pickle.loads((state_dir / "rev1" / "blocking_state.pkl").read_bytes())
        assert set(payload) == {"part_states", "owned_pairs"}
        assert len(payload["part_states"][1].ids) == 100
        segment = pickle.loads((state_dir / "rev1" / "segment-000002.pkl").read_bytes())
        id_notes, token_notes = segment["part_notes"]
        assert id_notes is None
        rows, memo = token_notes
        assert rows == slice(0, 120) and memo.tops.shape == (120, 3)
        # The gralmatch clean-up is component-local: its group lists and
        # removed edges are derived from the memo at load, never written.
        graph = pickle.loads((state_dir / "rev1" / "graph_state.pkl").read_bytes())
        for payload in (graph, segment):
            assert payload["groups"] is None and payload["pre_cleanup_groups"] is None
            assert payload["cleanup_report"].removed_edges == set()

    def test_a_base_saved_before_the_first_ingest_takes_a_journal(
        self, golden_setup, pipeline_factory, batch_result, tmp_path
    ):
        # Its base holds no index: the first ingest after loading prepares
        # one over the journal's records and folds the notes back in.
        records = golden_setup[0].records
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory(), name="golden")
        state_dir = matcher.save(tmp_path / "state")
        matcher.ingest(records[:3])
        matcher.save(state_dir)
        assert len(matcher.state.journal.segments) == 1
        loaded = IncrementalMatcher.load(state_dir)
        assert loaded.state.part_states == [None, None]
        first = ingest_checked(loaded, records[3:20])
        assert first.records_rescored == matcher.ingest(records[3:20]).records_rescored
        ingest_checked(loaded, records[20:])
        assert_equals_batch(loaded, batch_result)

    def test_loading_a_journal_defers_the_indexes_to_the_first_ingest(self, journaled):
        matcher, state_dir = journaled
        loaded = IncrementalMatcher.load(state_dir)
        assert loaded.state.indexed_records == 100
        assert len(loaded.state.part_states[1].ids) == 100
        assert loaded.ingest([]).records_rescored == 0
        assert_rebuilt_indexes(loaded, matcher)

    def test_the_catch_up_evaluates_no_dirty_rule(self, journaled, monkeypatch):
        # The journal's records were rescored before the save and the notes
        # replace the memo, so bringing the index forward only appends.
        matcher, state_dir = journaled
        loaded = IncrementalMatcher.load(state_dir)

        def refuse(*args, **kwargs):
            raise AssertionError("the catch-up evaluated a dirty rule")

        monkeypatch.setattr(TokenOverlapBlocking, "delta_update", refuse)
        monkeypatch.setattr(TokenOverlapBlocking, "_dirty_rows", refuse)
        loaded.state.catch_up_indexes(len(loaded.state.records))
        assert_rebuilt_indexes(loaded, matcher)

    def test_a_journal_outgrowing_the_base_compacts(self, golden_setup, journaled):
        records = golden_setup[0].records
        matcher, state_dir = journaled
        journal = matcher.state.journal
        start, paths = 120, []
        while start < len(records):
            before = len(journal.segments)
            matcher.ingest(records[start:start + 5])
            matcher.save(state_dir)
            start += 5
            paths.append("journal" if len(journal.segments) > before else "compaction")
            assert sum(journal.segments) <= journal.base_bytes
        assert "compaction" in paths
        assert [path.name for path in state_dir.glob("rev*")] == [
            f"rev{matcher.state.payload_rev}"
        ]
        assert_same_state(IncrementalMatcher.load(state_dir).state, matcher.state)

    def test_saving_to_another_directory_writes_a_base_there(self, journaled, tmp_path):
        matcher, _ = journaled
        other = tmp_path / "copy"
        matcher.save(other)
        manifest = read_manifest(other)
        assert manifest["segments"] == [] and manifest["payload_dir"] == "rev2"
        assert matcher.state.journal.state_dir == other.resolve()
        assert_same_state(IncrementalMatcher.load(other).state, matcher.state)

    def test_a_loaded_journal_saved_elsewhere_ingests_identically(
        self, golden_setup, journaled, batch_result, tmp_path
    ):
        # The new base holds indexes over every record: the journal's
        # records are folded in before it is written.
        records = golden_setup[0].records
        matcher, state_dir = journaled
        copy = IncrementalMatcher.load(state_dir).save(tmp_path / "copy")
        loaded = IncrementalMatcher.load(copy)
        assert loaded.state.indexed_records == 120
        assert loaded.ingest([]).records_rescored == 0
        assert_rebuilt_indexes(loaded, matcher)
        ingest_checked(loaded, records[120:])
        assert_equals_batch(loaded, batch_result)

    def test_a_loaded_journal_keeps_appending(self, golden_setup, journaled):
        records = golden_setup[0].records
        matcher, state_dir = journaled
        loaded = IncrementalMatcher.load(state_dir)
        assert loaded.state.journal.segments == matcher.state.journal.segments
        first = ingest_checked(loaded, records[120:130])
        # The rebuilt token index carries its memo: the first ingest after
        # opening rescores exactly what the saving process would have.
        assert first.records_rescored == matcher.ingest(records[120:130]).records_rescored
        loaded.save()
        assert len(read_manifest(state_dir)["segments"]) == 3
        assert_same_state(IncrementalMatcher.load(state_dir).state, matcher.state)


class TestDerivedResults:
    @pytest.mark.parametrize(
        "max_component_size, step, moves",
        [
            (6, 4, ("pre_cleanup_added", "removed_edges")),
            # A component at the size limit drops a removed edge when token
            # overlap's top n moves on.
            (3, 2, ("pre_cleanup_restored",)),
        ],
    )
    def test_every_graph_result_loads_back_under_firing_thresholds(
        self, golden_setup, tmp_path, max_component_size, step, moves
    ):
        # Under the firing thresholds small batches move the pre-cleanup
        # removals, the clean-up's removed edges and both component lists,
        # and most saves append a segment; loading derives the groups and
        # removed edges from the memo each time.
        records = golden_setup[0].records
        factory = make_factory(golden_setup, max_component_size=max_component_size)
        matcher = IncrementalMatcher.from_pipeline(factory(), name="firing")
        state_dir = tmp_path / "state"
        matcher.ingest(records[:120])
        matcher.save(state_dir)
        moved = dict.fromkeys(("pre_cleanup_added", "pre_cleanup_restored", "removed_edges"), 0)
        for start in range(120, len(records), step):
            state = matcher.state
            before = (set(state.pre_cleanup_removed), set(state.cleanup_report.removed_edges))
            ingest_checked(matcher, records[start:start + step])
            matcher.save(state_dir)
            if state.journal.segments:
                moved["pre_cleanup_added"] += bool(state.pre_cleanup_removed - before[0])
                moved["pre_cleanup_restored"] += bool(before[0] - state.pre_cleanup_removed)
                moved["removed_edges"] += state.cleanup_report.removed_edges != before[1]
            assert_same_state(IncrementalMatcher.load(state_dir).state, state)
        assert all(moved[name] for name in moves), moved


class TestChangedDirectory:
    """A save appends only to the manifest this state committed or loaded;
    a directory changed since gets a new base."""

    def test_a_removed_directory_gets_a_new_base(self, golden_setup, journaled):
        records = golden_setup[0].records
        matcher, state_dir = journaled
        shutil.rmtree(state_dir)
        matcher.ingest(records[120:130])
        matcher.save(state_dir)
        manifest = read_manifest(state_dir)
        assert manifest["payload_dir"] == "rev2" and manifest["segments"] == []
        assert_same_state(IncrementalMatcher.load(state_dir).state, matcher.state)
        matcher.ingest(records[130:140])
        matcher.save(state_dir)
        assert len(read_manifest(state_dir)["segments"]) == 1
        assert_same_state(IncrementalMatcher.load(state_dir).state, matcher.state)

    def test_another_writers_segment_forces_a_new_base(self, golden_setup, journaled):
        records = golden_setup[0].records
        matcher, state_dir = journaled
        other = IncrementalMatcher.load(state_dir)
        other.ingest(records[120:130])
        other.save()
        assert len(read_manifest(state_dir)["segments"]) == 3
        # The last writer wins, whole.
        matcher.ingest(records[120:125])
        matcher.save(state_dir)
        manifest = read_manifest(state_dir)
        assert manifest["payload_dir"] == "rev2" and manifest["segments"] == []
        assert_same_state(IncrementalMatcher.load(state_dir).state, matcher.state)

    def test_a_new_base_never_replaces_another_writers_before_the_commit(
        self, golden_setup, journaled, monkeypatch
    ):
        from pathlib import Path

        records = golden_setup[0].records
        matcher, state_dir = journaled
        other = IncrementalMatcher.load(state_dir)
        other.ingest(records[120:130])
        other.save(state_dir.parent / "elsewhere")
        shutil.rmtree(state_dir)
        shutil.copytree(state_dir.parent / "elsewhere", state_dir)
        assert read_manifest(state_dir)["payload_dir"] == "rev2"
        committed = IncrementalMatcher.load(state_dir).state

        def crash(self, target):
            raise OSError("simulated crash before manifest commit")

        matcher.ingest(records[120:125])
        monkeypatch.setattr(Path, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            matcher.save(state_dir)
        monkeypatch.undo()
        # The new base went to rev3, past the committed rev2.
        assert (state_dir / "rev3").is_dir()
        assert_same_state(IncrementalMatcher.load(state_dir).state, committed)
        # The retry numbers its base past the leftover rev3 as well, and its
        # commit sweeps that directory.
        matcher.save(state_dir)
        assert read_manifest(state_dir)["payload_dir"] == "rev4"
        assert [path.name for path in state_dir.glob("rev*")] == ["rev4"]
        assert_same_state(IncrementalMatcher.load(state_dir).state, matcher.state)


class TestSegmentBudget:
    """A segment is pickled into a buffer bounded by what the journal may
    still add, so an oversized one stops early and the save compacts."""

    def test_large_arrays_pickle_as_they_would_unbounded(self):
        from repro.incremental.state import _BoundedBuffer

        payload = {"tops": np.arange(200_000, dtype=np.int32), "ids": ["a", "b"]}
        expected = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        buffer = _BoundedBuffer(len(expected))
        pickle.dump(payload, buffer, protocol=pickle.HIGHEST_PROTOCOL)
        assert buffer.getvalue() == expected

    def test_an_oversized_segment_stops_early(self):
        from repro.incremental.state import _BoundedBuffer, _OverBudget

        payload = [np.arange(200_000, dtype=np.int32), list(range(100_000))]
        buffer = _BoundedBuffer(1_000)
        with pytest.raises(_OverBudget):
            pickle.dump(payload, buffer, protocol=pickle.HIGHEST_PROTOCOL)
        assert buffer.tell() <= 1_000


class TestJournalRobustness:
    @pytest.mark.parametrize("keep", [0.5, 0.0], ids=["truncated", "empty"])
    def test_a_damaged_segment_is_a_named_error(self, journaled, keep):
        _, state_dir = journaled
        path = state_dir / "rev1" / "segment-000002.pkl"
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * keep)])
        named = f"{re.escape(str(state_dir))}.*rev1/segment-000002.pkl"
        with pytest.raises(MatchStateError, match=named) as info:
            IncrementalMatcher.load(state_dir)
        assert info.value.__cause__ is not None

    def test_a_corrupt_segment_is_a_named_error(self, journaled):
        _, state_dir = journaled
        path = state_dir / "rev1" / "segment-000001.pkl"
        path.write_bytes(b"not a pickle" + path.read_bytes()[12:])
        with pytest.raises(MatchStateError, match="rev1/segment-000001.pkl"):
            IncrementalMatcher.load(state_dir)

    def test_a_missing_segment_is_a_named_error(self, journaled):
        _, state_dir = journaled
        (state_dir / "rev1" / "segment-000001.pkl").unlink()
        with pytest.raises(
            MatchStateError, match="incomplete: missing segment-000001.pkl in rev1"
        ):
            IncrementalMatcher.load(state_dir)

    def test_a_crash_before_the_commit_leaves_the_previous_state(
        self, golden_setup, journaled, monkeypatch
    ):
        from pathlib import Path

        records = golden_setup[0].records
        matcher, state_dir = journaled
        committed = IncrementalMatcher.load(state_dir).state
        manifest = (state_dir / "manifest.json").read_bytes()
        matcher.ingest(records[120:130])

        def crash(self, target):
            raise OSError("simulated crash before manifest commit")

        monkeypatch.setattr(Path, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            matcher.save(state_dir)
        monkeypatch.undo()

        # The segment was written but not committed: loading ignores it.
        assert (state_dir / "rev1" / "segment-000003.pkl").exists()
        assert (state_dir / "manifest.json").read_bytes() == manifest
        recovered = IncrementalMatcher.load(state_dir)
        assert_same_state(recovered.state, committed)
        # The recovered state journals onward, overwriting the leftover.
        recovered.ingest(records[130:140])
        recovered.save()
        assert len(read_manifest(state_dir)["segments"]) == 3
        reference = IncrementalMatcher.load(state_dir).state
        assert_same_state(reference, recovered.state)

    def test_a_failed_save_loses_no_change(self, golden_setup, journaled, monkeypatch):
        from pathlib import Path

        records = golden_setup[0].records
        matcher, state_dir = journaled
        matcher.ingest(records[120:130])

        def crash(self, data):
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", crash)
        with pytest.raises(OSError, match="disk full"):
            matcher.save(state_dir)
        monkeypatch.undo()

        matcher.ingest(records[130:140])
        matcher.save(state_dir)
        assert_same_state(IncrementalMatcher.load(state_dir).state, matcher.state)

    def test_a_copied_state_journals_in_its_new_directory(self, golden_setup, journaled, tmp_path):
        records = golden_setup[0].records
        matcher, state_dir = journaled
        copy = tmp_path / "copy"
        shutil.copytree(state_dir, copy)
        loaded = IncrementalMatcher.load(copy, runtime=RuntimeConfig())
        loaded.ingest(records[120:130])
        loaded.save()
        assert len(read_manifest(copy)["segments"]) == 3
        assert len(read_manifest(state_dir)["segments"]) == 2


class TestFixedComponents:
    """A save appends a segment, which never holds the components that
    decide results, unless it writes a base; so reassigning one is
    refused, and nothing a save or a load sees changes."""

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("matcher", None),
            ("blocking", IdOverlapBlocking()),
            ("cleanup_config", CleanupConfig(gamma=6, mu=4)),
            ("pre_cleanup_config", PreCleanupConfig(max_component_size=4)),
            ("cleanup_strategy", "adaptive"),
        ],
        ids=["matcher", "blocking", "cleanup_config", "pre_cleanup_config", "cleanup_strategy"],
    )
    def test_reassigning_a_component_is_refused(self, pipeline_factory, field, value):
        state = IncrementalMatcher.from_pipeline(pipeline_factory()).state
        before = getattr(state, field)
        with pytest.raises(MatchStateError, match=f"cannot reassign '{field}'"):
            setattr(state, field, value)
        assert getattr(state, field) is before

    def test_a_refused_strategy_change_leaves_the_saved_state_alone(
        self, golden_setup, pipeline_factory, tmp_path
    ):
        records = golden_setup[0].records
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory())
        state_dir = tmp_path / "state"
        matcher.ingest(records[:40])
        matcher.save(state_dir)
        matcher.ingest(records[40:60])
        with pytest.raises(MatchStateError, match="cleanup_strategy"):
            matcher.state.cleanup_strategy = "adaptive"
        matcher.save(state_dir)
        manifest = read_manifest(state_dir)
        assert len(manifest["segments"]) == 1
        assert manifest["cleanup_strategy"] == "gralmatch"
        loaded = IncrementalMatcher.load(state_dir).state
        assert loaded.cleanup_strategy == "gralmatch"
        assert_same_state(loaded, matcher.state)

    def test_the_engine_defaults_stay_assignable(self, pipeline_factory):
        state = IncrementalMatcher.from_pipeline(pipeline_factory()).state
        state.runtime_config = RuntimeConfig(batch_size=64)
        assert state.runtime_config == RuntimeConfig(batch_size=64)
