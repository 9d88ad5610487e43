"""On-disk state format: manifest versioning and payload round-trips.

Includes the :class:`ProfileStore` disk round-trip: profiles must come back
bitwise identical through the state serialisation, exactly like the
pickling (worker-shipping) path.
"""

import json
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from repro.incremental import (
    STATE_FORMAT_VERSION,
    IncrementalMatcher,
    MatchState,
    MatchStateError,
    is_state_dir,
    read_manifest,
)
from repro.incremental.state import MANIFEST_FILE
from repro.matching.profiles import ProfileStore
from repro.runtime import PipelineRuntime, RuntimeConfig


def set_format_version(state_dir, version) -> None:
    """Rewrite ``state_dir``'s manifest to claim format ``version``."""
    manifest_path = state_dir / MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = version
    manifest_path.write_text(json.dumps(manifest))


def file_bytes(state_dir) -> dict[str, bytes]:
    """Every file under ``state_dir``, keyed by its relative path."""
    return {
        str(path.relative_to(state_dir)): path.read_bytes()
        for path in sorted(state_dir.rglob("*"))
        if path.is_file()
    }


def corrupt_payload(path, keep: float) -> None:
    """Cut a payload file to the leading ``keep`` share of its bytes."""
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * keep)])


class _UnmarkedStore:
    """Pickles as a ProfileStore whose payload lacks the format marker."""

    def __init__(self, state: dict) -> None:
        self.state = state

    def __reduce__(self):
        return ProfileStore.__new__, (ProfileStore,), self.state


def _columnar_payload_bytes(store: ProfileStore) -> bytes:
    """The store's pickled columnar payload, bytes-for-bytes."""
    return pickle.dumps(store.__getstate__())


@pytest.fixture
def saved_state(golden_setup, pipeline_factory, tmp_path):
    companies, _ = golden_setup
    matcher = IncrementalMatcher.from_pipeline(pipeline_factory(), name="golden")
    matcher.ingest(companies.records[:100])
    return matcher, matcher.save(tmp_path / "state")


class TestManifest:
    def test_round_trip_preserves_counters(self, saved_state):
        matcher, state_dir = saved_state
        assert is_state_dir(state_dir)
        manifest = read_manifest(state_dir)
        assert manifest["format_version"] == STATE_FORMAT_VERSION
        assert manifest["num_records"] == 100
        assert manifest["num_ingests"] == 1
        assert manifest["blocking_parts"] == ["id_overlap", "token_overlap"]
        assert manifest["matcher_type"] == "LogisticRegressionMatcher"

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        empty = tmp_path / "not-a-state"
        empty.mkdir()
        assert not is_state_dir(empty)
        with pytest.raises(MatchStateError, match="missing manifest.json"):
            read_manifest(empty)
        with pytest.raises(MatchStateError, match="missing manifest.json"):
            IncrementalMatcher.load(empty)

    def test_future_format_version_is_rejected(self, saved_state):
        _, state_dir = saved_state
        set_format_version(state_dir, STATE_FORMAT_VERSION + 1)
        with pytest.raises(MatchStateError, match="format version"):
            IncrementalMatcher.load(state_dir)

    def test_foreign_manifest_is_rejected(self, saved_state):
        _, state_dir = saved_state
        (state_dir / MANIFEST_FILE).write_text('{"format": "something-else"}')
        with pytest.raises(MatchStateError, match="not a repro-match-state"):
            IncrementalMatcher.load(state_dir)

    def test_corrupt_manifest_is_rejected(self, saved_state):
        _, state_dir = saved_state
        (state_dir / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(MatchStateError, match="corrupt manifest"):
            IncrementalMatcher.load(state_dir)

    def test_missing_payload_is_a_clear_error(self, saved_state):
        _, state_dir = saved_state
        (state_dir / "rev1" / "matching_state.pkl").unlink()
        with pytest.raises(MatchStateError, match="missing matching_state.pkl"):
            IncrementalMatcher.load(state_dir)

    def test_missing_payload_dir_is_a_clear_error(self, saved_state):
        import shutil

        _, state_dir = saved_state
        shutil.rmtree(state_dir / "rev1")
        with pytest.raises(MatchStateError, match="missing payload directory"):
            IncrementalMatcher.load(state_dir)

    @pytest.mark.parametrize("file_name", ["matching_state.pkl", "graph_state.pkl"])
    @pytest.mark.parametrize("keep", [0.5, 0.0], ids=["truncated", "empty"])
    def test_corrupt_payload_is_a_named_error(self, saved_state, file_name, keep):
        _, state_dir = saved_state
        corrupt_payload(state_dir / "rev1" / file_name, keep)
        named = f"{re.escape(str(state_dir))}.*rev1/{file_name}"
        with pytest.raises(MatchStateError, match=named) as info:
            IncrementalMatcher.load(state_dir)
        assert info.value.__cause__ is not None

    def test_unmarked_profile_store_payload_is_a_named_error(self, saved_state):
        _, state_dir = saved_state
        path = state_dir / "rev1" / "matching_state.pkl"
        payload = pickle.loads(path.read_bytes())
        state = payload["profiles"].__getstate__()
        del state["format"]
        payload["profiles"] = _UnmarkedStore(state)
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(
            MatchStateError, match="matching_state.pkl.*profile-store-columnar-v1"
        ):
            IncrementalMatcher.load(state_dir)


class TestApiIngestPersistence:
    def test_ingest_without_state_dir_raises_instead_of_dropping_save(
        self, golden_setup, pipeline_factory
    ):
        from repro.api import ingest

        companies, _ = golden_setup
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory())
        with pytest.raises(ValueError, match="save=False"):
            ingest(matcher, companies.records[:5])
        # Deliberate in-memory use works, and nothing was half-ingested.
        report = ingest(matcher, companies.records[:5], save=False)
        assert report.num_new_records == 5

    def test_a_loaded_state_saves_again_without_an_ingest(self, saved_state, tmp_path):
        # Its memo gives the groups back, so no ingest is needed first.
        matcher, state_dir = saved_state
        copy = IncrementalMatcher.load(state_dir).save(tmp_path / "copy")
        reloaded = IncrementalMatcher.load(copy)
        assert reloaded.groups.groups == matcher.groups.groups
        assert (
            reloaded.state.pre_cleanup_groups.groups
            == matcher.state.pre_cleanup_groups.groups
        )

    def test_save_leaves_no_temp_files(self, saved_state):
        _, state_dir = saved_state
        assert not list(state_dir.glob("*.tmp"))

    def test_repeated_saves_keep_exactly_one_payload_dir(
        self, golden_setup, saved_state
    ):
        companies, _ = golden_setup
        matcher, state_dir = saved_state
        matcher.ingest(companies.records[100:110])
        matcher.save(state_dir)
        rev_dirs = [p for p in state_dir.glob("rev*") if p.is_dir()]
        assert len(rev_dirs) == 1


class TestCrashResilience:
    def test_interrupted_save_leaves_previous_state_loadable(
        self, golden_setup, saved_state, monkeypatch
    ):
        # Simulate a crash *after* the new payload directory is fully
        # written but *before* the manifest commit: the manifest rename is
        # the transaction's commit point, so loading must yield the
        # previous state, intact.
        from pathlib import Path

        companies, _ = golden_setup
        matcher, state_dir = saved_state
        committed_manifest = (state_dir / "manifest.json").read_bytes()

        matcher.ingest(companies.records[100:120])

        def crash(self, target):
            raise OSError("simulated crash before manifest commit")

        monkeypatch.setattr(Path, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            matcher.save(state_dir)
        monkeypatch.undo()

        assert (state_dir / "manifest.json").read_bytes() == committed_manifest
        recovered = IncrementalMatcher.load(state_dir)
        assert len(recovered.state.records) == 100
        assert recovered.state.num_ingests == 1
        # The recovered state ingests onward normally (and sweeps the
        # uncommitted payload directory on its next save).
        recovered.ingest(companies.records[100:])
        recovered.save(state_dir)
        rev_dirs = [p for p in state_dir.glob("rev*") if p.is_dir()]
        assert len(rev_dirs) == 1
        assert len(IncrementalMatcher.load(state_dir).state.records) == len(
            companies.records
        )

    @pytest.mark.parametrize("version", [1, 4])
    def test_a_failed_compaction_leaves_a_refused_state_untouched(
        self, golden_setup, pipeline_factory, saved_state, monkeypatch, version
    ):
        # A save into a directory whose state this build refuses cannot
        # append to it, so it writes a new base.  That base must go past
        # every rev<N> the directory holds: until the commit, the refused
        # manifest still names its own payload directory.
        companies, _ = golden_setup
        _, state_dir = saved_state
        set_format_version(state_dir, version)
        before = file_bytes(state_dir)
        other = IncrementalMatcher.from_pipeline(pipeline_factory(), name="other")
        other.ingest(companies.records[:30])

        def crash(self, *args):
            raise OSError("simulated crash at the commit")

        monkeypatch.setattr(MatchState, "_commit", crash)
        with pytest.raises(OSError, match="simulated crash"):
            other.save(state_dir)
        monkeypatch.undo()

        after = file_bytes(state_dir)
        assert {path: after.get(path) for path in before} == before
        assert "rev2/records.pkl" in after
        set_format_version(state_dir, STATE_FORMAT_VERSION)
        assert len(IncrementalMatcher.load(state_dir).state.records) == 100

    def test_failed_ingest_poisons_the_matcher(
        self, golden_setup, pipeline_factory, monkeypatch
    ):
        import repro.incremental.matcher as incremental_matcher

        companies, _ = golden_setup
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory())
        matcher.ingest(companies.records[:50])

        def boom(*args, **kwargs):
            raise RuntimeError("worker pool died")

        monkeypatch.setattr(
            incremental_matcher.PipelineRuntime, "run_blocking_delta", boom
        )
        with pytest.raises(RuntimeError, match="worker pool died"):
            matcher.ingest(companies.records[50:60])
        monkeypatch.undo()

        # The half-mutated state refuses further use with a clear pointer.
        with pytest.raises(RuntimeError, match="reload the last saved state"):
            matcher.ingest(companies.records[60:70])
        with pytest.raises(RuntimeError, match="reload the last saved state"):
            matcher.save("/tmp/should-not-be-written")

    def test_validation_failure_does_not_poison(
        self, golden_setup, pipeline_factory
    ):
        companies, _ = golden_setup
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory())
        matcher.ingest(companies.records[:50])
        with pytest.raises(ValueError, match="duplicate record ids"):
            matcher.ingest([companies.records[0]])
        report = matcher.ingest(companies.records[50:60])
        assert report.num_new_records == 10


class TestFormatMigration:
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 6])
    def test_v1_manifest_is_refused_by_version(self, saved_state, version):
        # This build reads version 5 only; the refusal names the version
        # found and how to carry an older state forward.
        _, state_dir = saved_state
        set_format_version(state_dir, version)
        with pytest.raises(MatchStateError) as info:
            IncrementalMatcher.load(state_dir)
        message = str(info.value)
        assert message.startswith(
            f"match state at {state_dir} has format version {version}; "
            "this build reads version 5 only.  To carry a version 2-4 state "
            "forward, open it with a build of any commit from 3ecba85 to 634e084, "
            "ingest an empty batch and save it"
        )

    def test_stale_runtime_fields_open_and_ingest_identically(
        self, golden_setup, pipeline_factory, batch_result, tmp_path
    ):
        # A state saved before the legacy route switches and the blocking
        # shard count were removed pickles a RuntimeConfig carrying them.
        # Unpickling a frozen dataclass restores its __dict__ wholesale, so
        # the stale entries ride along harmlessly: nothing reads them, and
        # equality, replace() and every later save look at the declared
        # fields only.
        from tests.incremental.test_batch_equivalence import assert_equals_batch

        companies, _ = golden_setup
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory(), name="golden")
        matcher.ingest(companies.records[:90])
        stale = {
            "profile_cache": False,
            "columnar_dispatch": False,
            "warm_pool": False,
            "blocking_shards": 4,
        }
        for key, value in stale.items():
            object.__setattr__(matcher.state.runtime_config, key, value)
        state_dir = matcher.save(tmp_path / "state")

        reloaded = IncrementalMatcher.load(state_dir)
        config = reloaded.state.runtime_config
        assert config == RuntimeConfig()
        assert {key: config.__dict__[key] for key in stale} == stale
        reloaded.ingest(companies.records[90:])
        assert_equals_batch(reloaded, batch_result)

    def test_stale_blocking_payload_key_opens_and_ingests_identically(
        self, golden_setup, pipeline_factory, batch_result, tmp_path
    ):
        # Earlier builds also stored whole-part candidate lists for blockings
        # without the two-phase protocol; a state still carrying that key
        # loads with the key ignored.
        from tests.incremental.test_batch_equivalence import assert_equals_batch

        companies, _ = golden_setup
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory(), name="golden")
        matcher.ingest(companies.records[:90])
        state_dir = matcher.save(tmp_path / "state")
        path = state_dir / read_manifest(state_dir)["payload_dir"] / "blocking_state.pkl"
        payload = pickle.loads(path.read_bytes())
        assert set(payload) == {"part_states", "owned_pairs"}
        payload["whole_part_pairs"] = {}
        path.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

        reloaded = IncrementalMatcher.load(state_dir)
        reloaded.ingest(companies.records[90:])
        assert_equals_batch(reloaded, batch_result)

    @pytest.mark.parametrize(
        "keep_states, keep_owned", [(1, 1), (1, 2), (2, 1), (3, 3)]
    )
    def test_wrong_part_count_is_a_named_error(
        self, saved_state, keep_states, keep_owned
    ):
        # The golden blocking partitions into two parts; a blocking payload
        # holding any other count would fail mid-ingest, so loading refuses it.
        _, state_dir = saved_state
        path = state_dir / read_manifest(state_dir)["payload_dir"] / "blocking_state.pkl"
        payload = pickle.loads(path.read_bytes())
        payload["part_states"] = (payload["part_states"] * 2)[:keep_states]
        payload["owned_pairs"] = (payload["owned_pairs"] * 2)[:keep_owned]
        path.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        expected = (
            f"holds {keep_states} part states and {keep_owned} owned-pair maps, "
            "but the blocking partitions into 2 parts ['id_overlap', 'token_overlap']"
        )
        with pytest.raises(MatchStateError, match=re.escape(expected)):
            IncrementalMatcher.load(state_dir)

    def test_a_state_saved_without_the_top_n_memo_ingests_identically(
        self, golden_setup, pipeline_factory, batch_result, tmp_path
    ):
        # A base can hold a token-overlap index without its memo: one an
        # earlier build unpickled from a state older than the memo and saved
        # without an ingest.  The first ingest after loading rescores every
        # tokenised record; the ingests after it are narrowed again.
        from tests.incremental.test_batch_equivalence import assert_equals_batch

        companies, _ = golden_setup
        records = companies.records
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory(), name="golden")
        matcher.ingest(records[:90])
        matcher.state.part_states[1] = replace(matcher.state.part_states[1], memo=None)
        state_dir = matcher.save(tmp_path / "state")
        assert read_manifest(state_dir)["format_version"] == STATE_FORMAT_VERSION

        reloaded = IncrementalMatcher.load(state_dir)
        assert reloaded.state.part_states[1].memo is None
        assert reloaded.state.part_states == matcher.state.part_states
        tokenised = int(np.count_nonzero(np.diff(reloaded.state.part_states[1].token_offsets)))
        first = reloaded.ingest(records[90:95])
        assert first.records_rescored >= tokenised + 5
        second = reloaded.ingest(records[95:100])
        assert second.records_rescored < tokenised
        reloaded.ingest(records[100:])
        assert_equals_batch(reloaded, batch_result)

    def test_cache_pickle_round_trip_rebuilds_the_index(self, saved_state):
        matcher, _ = saved_state
        cache = matcher.state.decisions
        repickled = pickle.loads(pickle.dumps(cache))
        assert repickled == cache
        assert len(repickled) == len(cache)
        keys = [c.key for c in matcher.candidates()]
        assert all(key in repickled for key in keys)
        assert repickled.vector(keys) == cache.vector(keys)


class TestTracePath:
    """A state never holds a trace path: it names one call's output file."""

    def test_a_state_created_traced_loads_untraced(
        self, golden_setup, pipeline_factory, tmp_path
    ):
        companies, _ = golden_setup
        trace = tmp_path / "first.jsonl"
        runtime = PipelineRuntime(RuntimeConfig(batch_size=64, trace=str(trace)))
        matcher = IncrementalMatcher.from_pipeline(pipeline_factory(runtime), name="golden")
        # The creating call traces; its state does not remember the path.
        assert matcher.runtime.recorder.enabled
        assert matcher.state.runtime_config == RuntimeConfig(batch_size=64)
        matcher.ingest(companies.records[:60])
        state_dir = matcher.save(tmp_path / "state")
        matcher.close()
        first = trace.read_bytes()

        reloaded = IncrementalMatcher.load(state_dir)
        assert reloaded.state.runtime_config.trace is None
        assert not reloaded.runtime.recorder.enabled
        reloaded.ingest(companies.records[60:])
        reloaded.close()
        assert trace.read_bytes() == first

    def test_a_stored_trace_path_is_dropped_on_load(self, saved_state, tmp_path):
        # Earlier builds pickled the creating call's trace path.  The
        # components are written with a base only, so save to a fresh
        # directory, which writes one.
        matcher, _ = saved_state
        stale = tmp_path / "stale.jsonl"
        matcher.state.runtime_config = RuntimeConfig(batch_size=64, trace=str(stale))
        state_dir = matcher.save(tmp_path / "fresh")
        reloaded = IncrementalMatcher.load(state_dir)
        assert reloaded.state.runtime_config == RuntimeConfig(batch_size=64)
        assert not reloaded.runtime.recorder.enabled
        assert not stale.exists()


class TestProfileStoreRoundTrip:
    def test_profiles_survive_bitwise(self, saved_state):
        matcher, state_dir = saved_state
        store = matcher.state.profiles
        assert isinstance(store, ProfileStore)
        from repro.matching.features import PairFeatureExtractor

        extractor = PairFeatureExtractor()
        candidates = matcher.candidates()[:20]
        id_pairs = [(c.left_id, c.right_id) for c in candidates]
        direct = extractor.extract_batch_profiles(store, id_pairs)

        matcher.save(state_dir)
        reloaded = IncrementalMatcher.load(state_dir).state.profiles

        # Bitwise-identical columnar payload (every column).
        assert _columnar_payload_bytes(reloaded) == _columnar_payload_bytes(store)
        rescored = extractor.extract_batch_profiles(reloaded, id_pairs)
        assert rescored.tobytes() == direct.tobytes()

    def test_state_serialisation_matches_plain_pickling(self, saved_state):
        # The state path must behave exactly like pickling the store (the
        # worker-shipping path).
        matcher, _ = saved_state
        store = matcher.state.profiles
        repickled = pickle.loads(pickle.dumps(store))
        assert _columnar_payload_bytes(repickled) == _columnar_payload_bytes(store)

    def test_store_grows_across_reload_and_further_ingest(
        self, golden_setup, saved_state
    ):
        companies, _ = golden_setup
        _, state_dir = saved_state
        reloaded = IncrementalMatcher.load(state_dir)
        before = len(reloaded.state.profiles)
        reloaded.ingest(companies.records[100:])
        assert len(reloaded.state.profiles) >= before
