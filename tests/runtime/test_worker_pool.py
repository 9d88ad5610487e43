"""The persistent worker pool and the shared-state epoch protocol.

Covers the three contracts of the pooled engine:

* **failure semantics** — a chunk task that raises mid-batch surfaces the
  *original* exception (first by submission order), cancels the remaining
  work, and leaves the pool disposed-but-usable — under thread and process
  executors,
* **sizing** — a pool is sized once from ``RuntimeConfig.workers`` and
  is never rebuilt because a call carries fewer (or more) chunks than there
  are slots,
* **staleness** — consecutive ``run_matching`` calls with *different*
  profile stores on the same pool must score from the new store
  (epoch bump), while an unchanged store is reused without re-shipping.
"""

import pytest

from repro.datagen import GenerationConfig, generate_benchmark
from repro.matching import LogisticRegressionMatcher, ThresholdNameMatcher
from repro.matching.base import PairwiseMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs
from repro.runtime import (
    ChunkScheduler,
    PipelineRuntime,
    RuntimeConfig,
    WorkerPool,
    chunked,
)


class ChunkExploded(RuntimeError):
    """Raised by the exploding worker task (distinctive, picklable)."""


def explode_on_negative(chunk):
    """Module-level worker fn: fails loudly on any negative value."""
    if any(value < 0 for value in chunk):
        raise ChunkExploded(f"poisoned chunk: {chunk}")
    return [value * 2 for value in chunk]


class NameLengthMatcher(PairwiseMatcher):
    """Module-level (picklable) matcher on the base-class record adapter:
    scores from record content, so stale records would show."""

    def predict_proba(self, pairs):
        return [
            1.0 / (1.0 + abs(len(left.name) - len(right.name))) for left, right in pairs
        ]


def shared_explode_on_negative(shared, chunk):
    """Shared-payload variant, exercising the epoch path."""
    assert shared == "payload"
    return explode_on_negative(chunk)


@pytest.mark.parametrize("executor", ["thread", "process"])
class TestFailureSemantics:
    def config(self, executor):
        return RuntimeConfig(workers=2, executor=executor)

    def test_reraises_the_original_worker_exception(self, executor):
        scheduler = ChunkScheduler(self.config(executor))
        chunks = [[1, 2], [3, -4], [5, 6], [7, 8]]
        with pytest.raises(ChunkExploded, match=r"poisoned chunk: \[3, -4\]"):
            scheduler.map_chunks(explode_on_negative, chunks)
        scheduler.close()

    def test_reraises_with_a_shared_payload(self, executor):
        scheduler = ChunkScheduler(self.config(executor))
        chunks = [[1, 2], [-3], [5, 6]]
        with pytest.raises(ChunkExploded, match=r"poisoned chunk: \[-3\]"):
            scheduler.map_chunks(shared_explode_on_negative, chunks, shared="payload")
        scheduler.close()

    def test_first_failure_by_submission_order_wins(self, executor):
        # Two poisoned chunks: whichever *finishes* first must not decide —
        # the earliest submitted failure is the one re-raised.
        scheduler = ChunkScheduler(self.config(executor))
        chunks = [[1], [-2], [3], [-4]]
        with pytest.raises(ChunkExploded, match=r"poisoned chunk: \[-2\]"):
            scheduler.map_chunks(explode_on_negative, chunks)
        scheduler.close()

    def test_pool_is_usable_after_a_failure(self, executor):
        scheduler = ChunkScheduler(self.config(executor))
        with pytest.raises(ChunkExploded):
            scheduler.map_chunks(explode_on_negative, [[1], [-1], [2]])
        # The next call must succeed on a fresh (respawned) pool.
        chunks = chunked(list(range(20)), 5)
        results = scheduler.map_chunks(explode_on_negative, chunks)
        assert [v for chunk in results for v in chunk] == [v * 2 for v in range(20)]
        scheduler.close()

    def test_failure_disposes_the_executor(self, executor):
        scheduler = ChunkScheduler(self.config(executor))
        with pytest.raises(ChunkExploded):
            scheduler.map_chunks(explode_on_negative, [[1], [-1]])
        pool = scheduler.pool
        assert pool is not None
        assert pool._executor is None  # disposed, not merely drained
        scheduler.map_chunks(explode_on_negative, [[1], [2]])
        assert pool.stats.spawns == 2  # respawned exactly once
        scheduler.close()


class TestWarmPoolSizing:
    def test_sized_from_config_not_task_count(self):
        scheduler = ChunkScheduler(RuntimeConfig(workers=4, executor="thread"))
        scheduler.map_chunks(explode_on_negative, [[1], [2]])
        pool = scheduler.pool
        assert pool is not None
        assert pool.workers == 4
        assert pool.executor._max_workers == 4
        scheduler.close()

    def test_chunk_count_changes_do_not_rebuild_the_pool(self):
        scheduler = ChunkScheduler(RuntimeConfig(workers=3, executor="thread"))
        executors = []
        for num_chunks in (2, 8, 3, 16):
            chunks = [[index] for index in range(num_chunks)]
            scheduler.map_chunks(explode_on_negative, chunks)
            executors.append(scheduler.pool.executor)
        assert all(executor is executors[0] for executor in executors)
        assert scheduler.pool.stats.spawns == 1
        scheduler.close()

    def test_single_chunk_runs_inline_without_spawning(self):
        scheduler = ChunkScheduler(RuntimeConfig(workers=4, executor="process"))
        assert scheduler.map_chunks(explode_on_negative, [[1, 2]]) == [[2, 4]]
        assert scheduler.pool is None
        scheduler.close()

    def test_process_pool_survives_chunk_count_changes(self):
        scheduler = ChunkScheduler(RuntimeConfig(workers=2, executor="process"))
        try:
            executors = []
            for num_chunks in (2, 5, 3):
                chunks = [[index] for index in range(num_chunks)]
                results = scheduler.map_chunks(explode_on_negative, chunks)
                assert results == [[2 * index] for index in range(num_chunks)]
                executors.append(scheduler.pool.executor)
            assert all(executor is executors[0] for executor in executors)
            assert scheduler.pool.stats.spawns == 1
        finally:
            scheduler.close()

    def test_process_pool_close_is_not_terminal(self):
        scheduler = ChunkScheduler(RuntimeConfig(workers=2, executor="process"))
        try:
            scheduler.map_chunks(explode_on_negative, [[1], [2]])
            scheduler.close()
            assert scheduler.pool is None
            assert scheduler.map_chunks(explode_on_negative, [[3], [4]]) == [[6], [8]]
        finally:
            scheduler.close()

    def test_close_is_idempotent_and_not_terminal(self):
        scheduler = ChunkScheduler(RuntimeConfig(workers=2, executor="thread"))
        scheduler.map_chunks(explode_on_negative, [[1], [2]])
        scheduler.close()
        scheduler.close()
        assert scheduler.pool is None
        results = scheduler.map_chunks(explode_on_negative, [[3], [4]])
        assert results == [[6], [8]]
        scheduler.close()


class TestEpochProtocol:
    def test_identical_anchors_and_version_reuse_the_epoch(self):
        with WorkerPool("process", 2) as pool:
            payload, anchor = {"k": "v"}, object()
            first = pool.publish("slot", payload, anchors=(anchor,), version=0)
            second = pool.publish("slot", payload, anchors=(anchor,), version=0)
            assert second.epoch == first.epoch
            assert pool.stats.publishes == 1
            assert pool.stats.publish_reuses == 1

    def test_new_anchor_object_bumps_the_epoch(self):
        with WorkerPool("process", 2) as pool:
            first = pool.publish("slot", {"k": 1}, anchors=(object(),), version=0)
            second = pool.publish("slot", {"k": 2}, anchors=(object(),), version=0)
            assert second.epoch > first.epoch
            assert pool.stats.publishes == 2

    def test_version_change_bumps_the_epoch(self):
        with WorkerPool("process", 2) as pool:
            anchor = object()
            first = pool.publish("slot", {"k": 1}, anchors=(anchor,), version=0)
            second = pool.publish("slot", {"k": 2}, anchors=(anchor,), version=1)
            assert second.epoch > first.epoch

    def test_no_anchors_means_always_republish(self):
        with WorkerPool("process", 2) as pool:
            first = pool.publish("slot", {"k": 1})
            second = pool.publish("slot", {"k": 1})
            assert second.epoch > first.epoch
            assert pool.stats.publish_reuses == 0

    def test_slots_are_independent(self):
        with WorkerPool("process", 2) as pool:
            anchor = object()
            pool.publish("a", {"k": 1}, anchors=(anchor,), version=0)
            pool.publish("b", {"k": 2}, anchors=(anchor,), version=0)
            assert pool.stats.publishes == 2
            pool.publish("a", {"k": 1}, anchors=(anchor,), version=0)
            assert pool.stats.publish_reuses == 1

    def test_thread_pools_never_spool_payloads(self):
        with WorkerPool("thread", 2) as pool:
            published = pool.publish("slot", {"k": 1}, anchors=(object(),))
            assert published.path is None
            assert pool._payload_dir is None

    def test_validates_kind_and_workers(self):
        with pytest.raises(ValueError, match="executor must be one of"):
            WorkerPool("coroutine", 2)
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            WorkerPool("process", 0)


@pytest.fixture(scope="module")
def matching_setup():
    """Two same-shaped corpora (same record ids, different names) plus a
    matcher fitted on the first — the staleness scenario's raw material."""
    def corpus(seed):
        return generate_benchmark(
            GenerationConfig(num_entities=12, num_sources=3, seed=seed)
        ).companies

    dataset_a, dataset_b = corpus(1), corpus(2)
    pairs = build_labeled_pairs(dataset_a, negative_ratio=2, seed=0)
    record_pairs, labels = as_record_pairs(pairs)
    matcher = LogisticRegressionMatcher(num_iterations=40).fit(record_pairs, labels)
    records = dataset_a.records
    candidates_a = _all_pairs(dataset_a)
    candidates_b = _all_pairs(dataset_b)
    assert len(records) > 0
    return matcher, dataset_a, dataset_b, candidates_a, candidates_b


def _all_pairs(dataset):
    from repro.blocking.base import CandidatePair

    records = dataset.records
    return [
        CandidatePair(records[i].record_id, records[j].record_id, "all")
        for i in range(len(records))
        for j in range(i + 1, len(records))
    ]


class TestProfileStoreStaleness:
    def _serial_decisions(self, matcher, dataset, candidates):
        runtime = PipelineRuntime(RuntimeConfig(batch_size=16))
        return runtime.run_matching(matcher, dataset, candidates)

    def test_second_store_on_the_same_pool_is_used(self, matching_setup):
        matcher, dataset_a, dataset_b, candidates_a, candidates_b = matching_setup
        serial_a = self._serial_decisions(matcher, dataset_a, candidates_a)
        serial_b = self._serial_decisions(matcher, dataset_b, candidates_b)
        # Same record ids, different record content: scoring B with A's
        # profiles would silently reproduce A's decisions — the staleness
        # failure this test exists to catch.
        assert serial_a != serial_b

        runtime = PipelineRuntime(
            RuntimeConfig(workers=2, executor="process", batch_size=16)
        )
        store_a = matcher.prepare_profiles(dataset_a.records)
        store_b = matcher.prepare_profiles(dataset_b.records)
        try:
            warm_a = runtime.run_matching(
                matcher, dataset_a, candidates_a, profiles=store_a
            )
            warm_b = runtime.run_matching(
                matcher, dataset_b, candidates_b, profiles=store_b
            )
            assert warm_a == serial_a
            assert warm_b == serial_b
            stats = runtime.pool_stats()
            assert stats["publishes"] == 2  # one epoch per store
        finally:
            runtime.close()

    def test_unchanged_store_is_reused_not_reshipped(self, matching_setup):
        matcher, dataset_a, _, candidates_a, _ = matching_setup
        runtime = PipelineRuntime(
            RuntimeConfig(workers=2, executor="process", batch_size=16)
        )
        store = matcher.prepare_profiles(dataset_a.records)
        try:
            first = runtime.run_matching(
                matcher, dataset_a, candidates_a, profiles=store
            )
            second = runtime.run_matching(
                matcher, dataset_a, candidates_a, profiles=store
            )
            assert first == second
            stats = runtime.pool_stats()
            assert stats["spawns"] == 1
            assert stats["publishes"] == 1  # shipped once ...
            assert stats["publish_reuses"] == 1  # ... reused on call two
        finally:
            runtime.close()

    def test_threshold_matcher_scores_from_the_new_store(self, matching_setup):
        _, dataset_a, dataset_b, candidates_a, candidates_b = matching_setup
        matcher = ThresholdNameMatcher(similarity_threshold=0.9)
        serial_a = self._serial_decisions(matcher, dataset_a, candidates_a)
        serial_b = self._serial_decisions(matcher, dataset_b, candidates_b)
        assert serial_a != serial_b
        runtime = PipelineRuntime(
            RuntimeConfig(workers=2, executor="process", batch_size=16)
        )
        try:
            assert runtime.run_matching(matcher, dataset_a, candidates_a) == serial_a
            assert runtime.run_matching(matcher, dataset_b, candidates_b) == serial_b
            assert runtime.pool_stats()["publishes"] == 2
        finally:
            runtime.close()

    def test_default_adapter_records_are_republished_per_call(self, matching_setup):
        # The base adapter's id -> record mapping has no revision counter, so
        # every call publishes afresh: same ids with new content never score
        # against the previous call's records.
        _, dataset_a, dataset_b, candidates_a, candidates_b = matching_setup
        matcher = NameLengthMatcher()
        serial_a = self._serial_decisions(matcher, dataset_a, candidates_a)
        serial_b = self._serial_decisions(matcher, dataset_b, candidates_b)
        assert serial_a != serial_b
        runtime = PipelineRuntime(
            RuntimeConfig(workers=2, executor="process", batch_size=16)
        )
        try:
            assert runtime.run_matching(matcher, dataset_a, candidates_a) == serial_a
            assert runtime.run_matching(matcher, dataset_b, candidates_b) == serial_b
            assert runtime.run_matching(matcher, dataset_a, candidates_a) == serial_a
            stats = runtime.pool_stats()
            assert stats["spawns"] == 1
            assert stats["publishes"] == 3
            assert stats["publish_reuses"] == 0
        finally:
            runtime.close()

    def test_grown_store_bumps_revision_and_reships(self, matching_setup):
        matcher, dataset_a, _, candidates_a, _ = matching_setup
        runtime = PipelineRuntime(
            RuntimeConfig(workers=2, executor="process", batch_size=16)
        )
        store = matcher.prepare_profiles(dataset_a.records)
        revision = store.revision
        # A larger corpus under the same id scheme: entities beyond the
        # first 12 carry record ids the store has never seen.
        bigger = generate_benchmark(
            GenerationConfig(num_entities=20, num_sources=3, seed=1)
        ).companies
        try:
            runtime.run_matching(matcher, dataset_a, candidates_a, profiles=store)
            # Grow the store in place (the incremental-ingest append path):
            # the revision bump must invalidate the shipped epoch.
            assert store.add_records(bigger.records) > 0
            assert store.revision == revision + 1
            runtime.run_matching(matcher, dataset_a, candidates_a, profiles=store)
            assert runtime.pool_stats()["publishes"] == 2
        finally:
            runtime.close()
