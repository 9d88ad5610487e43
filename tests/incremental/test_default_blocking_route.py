"""The base-class defaults every blocking runs on.

A blocking that implements only ``prepare`` and ``candidates_for`` gets
``candidate_pairs``, ``owned_candidates`` and ``delta_update`` from
:class:`~repro.blocking.base.Blocking`; a combined blocking nested inside
another is flattened by ``partition``.  Both must give the same candidates
through ``candidate_pairs``, the execution engine and incremental ingest.
"""

import pytest

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.blocking.base import Blocking
from repro.core.cleanup import CleanupConfig
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.core.precleanup import PreCleanupConfig
from repro.datagen.records import Dataset
from repro.incremental import IncrementalMatcher
from repro.runtime import PipelineRuntime, RuntimeConfig
from tests.incremental.oracle import ingest_checked
from tests.incremental.test_batch_equivalence import (
    assert_equals_batch,
    partition_records,
)

RUNTIMES = [
    pytest.param(RuntimeConfig(), id="serial"),
    pytest.param(RuntimeConfig(workers=2, executor="thread"), id="thread"),
    pytest.param(RuntimeConfig(workers=2, executor="process"), id="process"),
]


class FirstWordBlocking(Blocking):
    """Cross-source records whose names start with the same word.

    Implements only the two phases.  A pair is owned by its later record,
    so each record's candidates are its earlier cross-source namesakes.
    Module-level so the process pool can unpickle it.
    """

    name = "first_word"

    def prepare(self, dataset):
        """First word -> ``(record id, source)`` in dataset order."""
        carriers: dict[str, list[tuple[str, str]]] = {}
        for record in dataset:
            carriers.setdefault(self._key(record), []).append(
                (record.record_id, record.source)
            )
        return carriers

    def candidates_for(self, shared, records):
        pairs = []
        for record in records:
            for other_id, other_source in shared[self._key(record)]:
                if other_id == record.record_id:
                    break
                if other_source != record.source:
                    pairs.append(self._make_pair(other_id, record.record_id))
        return pairs

    @staticmethod
    def _key(record) -> str:
        words = (record.name or "").lower().split()
        return words[0] if words else ""


class CappedFirstWordBlocking(FirstWordBlocking):
    """:class:`FirstWordBlocking` for first words with at most four carriers.

    A fifth carrier withdraws every pair of its word, so emissions shrink as
    records arrive: a pair token overlap also finds changes tag from
    ``capped_first_word`` to ``token_overlap`` mid-stream.
    """

    name = "capped_first_word"

    def candidates_for(self, shared, records):
        return [
            pair
            for record in records
            if len(shared[self._key(record)]) <= 4
            for pair in FirstWordBlocking.candidates_for(self, shared, [record])
        ]


def nested_blocking():
    return CombinedBlocking(
        [IdOverlapBlocking(), CombinedBlocking([TokenOverlapBlocking(top_n=3)])]
    )


def flat_blocking():
    return CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)])


@pytest.fixture(scope="module")
def first_word_factory(golden_setup):
    _, matcher = golden_setup

    def make(runtime=None):
        return EntityGroupMatchingPipeline(
            matcher=matcher,
            blocking=FirstWordBlocking(),
            cleanup_config=CleanupConfig.for_num_sources(4),
            pre_cleanup_config=PreCleanupConfig(max_component_size=30),
            runtime=runtime,
        )

    return make


@pytest.fixture(scope="module")
def nested_factory(golden_setup):
    _, matcher = golden_setup

    def make(runtime=None):
        return EntityGroupMatchingPipeline(
            matcher=matcher,
            blocking=nested_blocking(),
            cleanup_config=CleanupConfig.for_num_sources(4),
            pre_cleanup_config=PreCleanupConfig(max_component_size=30),
            runtime=runtime,
        )

    return make


def ingest(factory, batches):
    matcher = IncrementalMatcher.from_pipeline(factory(), name="defaults")
    for batch in batches:
        matcher.ingest(batch)
    return matcher


def schedules(records):
    """Partitions into 1, 2 and 7 batches, and a record-at-a-time tail."""
    return {
        "1": partition_records(records, 1),
        "2": partition_records(records, 2),
        "7": partition_records(records, 7),
        "record-at-a-time": [records[:-8]] + [[record] for record in records[-8:]],
    }


class TestTwoPhaseOnlyBlocking:
    def test_candidates_are_not_trivial(self, golden_setup):
        companies, _ = golden_setup
        pairs = FirstWordBlocking().candidate_pairs(companies)
        assert len(pairs) > 50
        assert all(pair.blocking == "first_word" for pair in pairs)

    @pytest.mark.parametrize("config", RUNTIMES)
    def test_run_blocking_equals_candidate_pairs(self, golden_setup, config):
        companies, _ = golden_setup
        blocking = FirstWordBlocking()
        with PipelineRuntime(config) as runtime:
            assert runtime.run_blocking(blocking, companies) == (
                blocking.candidate_pairs(companies)
            )

    def test_a_blocking_with_neither_phase_fails_by_name(self, golden_setup):
        companies, _ = golden_setup

        class Unfinished(Blocking):
            pass

        with pytest.raises(NotImplementedError, match="Unfinished must implement prepare"):
            Unfinished().candidate_pairs(companies)

    def test_default_delta_update_rebuilds_and_dirties_every_earlier_record(
        self, golden_setup
    ):
        companies, _ = golden_setup
        blocking = FirstWordBlocking()
        records = companies.records
        prefix = Dataset("prefix", records[:100])
        full = Dataset("full", records[:110])
        delta = blocking.delta_update(blocking.prepare(prefix), full, records[100:110])
        assert delta.shared == blocking.prepare(full)
        assert delta.dirty_record_ids == {record.record_id for record in records[:100]}

    @pytest.mark.parametrize("schedule", ["1", "2", "7", "record-at-a-time"])
    def test_ingest_equals_batch(self, golden_setup, first_word_factory, schedule):
        companies, _ = golden_setup
        batch = first_word_factory().run(companies)
        assert batch.positive_edges
        matcher = ingest(first_word_factory, schedules(companies.records)[schedule])
        assert_equals_batch(matcher, batch)


class TestNestedCombinedBlocking:
    def test_partition_flattens_nested_members(self):
        assert [part.name for part in nested_blocking().partition()] == [
            "id_overlap", "token_overlap",
        ]

    def test_candidate_pairs_equal_the_flat_combination(self, golden_setup):
        companies, _ = golden_setup
        assert nested_blocking().candidate_pairs(companies) == (
            flat_blocking().candidate_pairs(companies)
        )

    @pytest.mark.parametrize("config", RUNTIMES)
    def test_run_blocking_equals_the_flat_combination(self, golden_setup, config):
        companies, _ = golden_setup
        with PipelineRuntime(config) as runtime:
            assert runtime.run_blocking(nested_blocking(), companies) == (
                flat_blocking().candidate_pairs(companies)
            )

    @pytest.mark.parametrize("num_batches", [1, 2, 7])
    def test_ingest_equals_the_flat_batch_run(
        self, golden_setup, nested_factory, batch_result, num_batches
    ):
        # batch_result is the golden pipeline over the flat combination.
        companies, _ = golden_setup
        matcher = ingest(nested_factory, partition_records(companies.records, num_batches))
        assert_equals_batch(matcher, batch_result)


class TestTagChanges:
    @pytest.mark.parametrize("config", RUNTIMES[:2])
    @pytest.mark.parametrize("num_batches", [2, 7])
    def test_positive_keys_that_change_tag_reach_the_graph(
        self, golden_setup, config, num_batches
    ):
        # The capped part comes first, so a key it stops emitting falls back
        # to token overlap's tag, which the pre-cleanup rule targets.
        companies, matcher = golden_setup

        def make(runtime=None):
            return EntityGroupMatchingPipeline(
                matcher=matcher,
                blocking=CombinedBlocking(
                    [CappedFirstWordBlocking(), TokenOverlapBlocking(top_n=3)]
                ),
                cleanup_config=CleanupConfig(gamma=5, mu=4),
                pre_cleanup_config=PreCleanupConfig(max_component_size=6),
                runtime=runtime,
            )

        batch = make().run(companies)
        assert batch.pre_cleanup_removed
        incremental = IncrementalMatcher.from_pipeline(make(config), name="retag")
        retagged = 0
        try:
            for records in partition_records(companies.records, num_batches):
                before = dict(incremental._graph.tags) if incremental._graph else {}
                ingest_checked(incremental, records)
                after = incremental._graph.tags
                retagged += sum(
                    after.get(key) not in (None, tag) for key, tag in before.items()
                )
            assert retagged > 0
            assert_equals_batch(incremental, batch)
        finally:
            incremental.close()
