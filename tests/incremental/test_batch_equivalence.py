"""The headline golden suite: ingestion order and partitioning are invisible.

Ingesting the golden dataset in any partition — one batch, two halves,
seven slices, or a record-at-a-time tail — must produce candidates,
decisions and final groups **byte-identical** to the one-shot batch
pipeline run, under the serial engine and both pool flavours.  A state
saved to disk mid-stream and reloaded must continue exactly where it left
off.  After every batch, the state also equals the whole-state
recomputation in ``tests/incremental/oracle.py``.
"""

from functools import partial

import pytest

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.core.cleanup import CleanupConfig
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.core.precleanup import PreCleanupConfig
from repro.incremental import IncrementalMatcher
from repro.matching import IdOverlapMatcher, ThresholdNameMatcher
from repro.matching.decisions import DecisionCache, DecisionVector
from repro.runtime import RuntimeConfig
from tests.incremental.oracle import ingest_checked

RUNTIMES = [
    pytest.param(None, id="serial"),
    pytest.param(
        RuntimeConfig(workers=2, batch_size=64, executor="thread"),
        id="thread-sharded",
    ),
    pytest.param(
        RuntimeConfig(workers=2, batch_size=64, executor="process"),
        id="process-sharded",
    ),
]


def partition_records(records, num_batches):
    """Split records into ``num_batches`` consecutive batches."""
    size = (len(records) + num_batches - 1) // num_batches
    return [records[start:start + size] for start in range(0, len(records), size)]


def ingest_in_batches(pipeline_factory, batches, runtime=None):
    matcher = IncrementalMatcher.from_pipeline(
        pipeline_factory(runtime), name="golden"
    )
    for batch in batches:
        ingest_checked(matcher, batch)
    return matcher


def assert_equals_batch(matcher, batch_result):
    """Full artefact equality, not just group-partition equality."""
    assert matcher.candidates() == batch_result.candidates
    assert matcher.decisions() == batch_result.decisions
    assert matcher.groups.groups == batch_result.groups.groups
    assert (
        matcher.state.pre_cleanup_groups.groups
        == batch_result.pre_cleanup_groups.groups
    )
    assert matcher.state.pre_cleanup_removed == batch_result.pre_cleanup_removed
    assert matcher.state.cleanup_report == batch_result.cleanup_report
    assert matcher.state.num_candidates == len(batch_result.candidates)


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("num_batches", [1, 2, 7])
class TestPartitionInvariance:
    def test_any_partition_matches_the_batch_run(
        self, golden_setup, pipeline_factory, batch_result, runtime, num_batches
    ):
        companies, _ = golden_setup
        batches = partition_records(companies.records, num_batches)
        matcher = ingest_in_batches(pipeline_factory, batches, runtime)
        assert matcher.state.num_ingests == len(batches)
        assert_equals_batch(matcher, batch_result)


class TestPoolAcrossBatches:
    def test_one_pool_and_one_store_ship_per_revision(
        self, golden_setup, pipeline_factory, batch_result
    ):
        """The worker pool's cost structure across a multi-batch ingest.

        The pool spawns once for the whole ingest sequence, and the
        persistent profile store is re-shipped only when a batch actually
        grows it (one revision per growing ingest) — never once per
        map_chunks call.
        """
        companies, _ = golden_setup
        runtime = RuntimeConfig(workers=2, batch_size=64, executor="process")
        batches = partition_records(companies.records, 3)
        matcher = IncrementalMatcher.from_pipeline(
            pipeline_factory(runtime), name="golden"
        )
        try:
            spawns_seen = []
            for batch in batches:
                matcher.ingest(batch)
                spawns_seen.append(matcher.runtime.pool_stats()["spawns"])
            assert spawns_seen == [1, 1, 1]  # one pool for all batches
            # The profiled matching payload ships once per store revision:
            # batch 1 creates the store (revision 0), batches 2 and 3 each
            # grow it once.
            store = matcher.state.profiles
            assert store is not None and store.revision == 2
            assert_equals_batch(matcher, batch_result)
        finally:
            matcher.close()


class TestDecisionCache:
    def test_decisions_are_served_as_a_vector(
        self, golden_setup, pipeline_factory, batch_result
    ):
        # The incremental API boundary stays lazy: decisions() gathers a
        # DecisionVector off the array-backed cache.
        companies, _ = golden_setup
        matcher = ingest_in_batches(pipeline_factory, partition_records(companies.records, 2))
        assert isinstance(matcher.state.decisions, DecisionCache)
        decisions = matcher.decisions()
        assert isinstance(decisions, DecisionVector)
        assert decisions == batch_result.decisions


@pytest.fixture(scope="module")
def id_overlap_factory():
    """A pipeline whose matcher has no profile store of its own: it scores
    through the base-class id -> record adapter."""

    def make(runtime=None):
        return EntityGroupMatchingPipeline(
            matcher=IdOverlapMatcher(),
            blocking=CombinedBlocking(
                [IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]
            ),
            cleanup_config=CleanupConfig.for_num_sources(4),
            pre_cleanup_config=PreCleanupConfig(max_component_size=30),
            runtime=runtime,
        )

    return make


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("num_batches", [1, 2, 7])
def test_default_adapter_matcher_matches_the_batch_run(
    golden_setup, id_overlap_factory, runtime, num_batches
):
    companies, _ = golden_setup
    batch = id_overlap_factory().run(companies)
    assert batch.positive_edges  # the heuristic actually matches something
    matcher = ingest_in_batches(
        id_overlap_factory, partition_records(companies.records, num_batches), runtime
    )
    try:
        # The adapter's mapping has no add_records, so nothing is persisted.
        assert matcher.state.profiles is None
        assert_equals_batch(matcher, batch)
    finally:
        matcher.close()


@pytest.fixture(scope="module")
def threshold_factory():
    """A pipeline whose matcher keeps its own profile store, grown in place
    by each ingest."""

    def make(runtime=None):
        return EntityGroupMatchingPipeline(
            matcher=ThresholdNameMatcher(similarity_threshold=0.9),
            blocking=CombinedBlocking(
                [IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]
            ),
            cleanup_config=CleanupConfig.for_num_sources(4),
            pre_cleanup_config=PreCleanupConfig(max_component_size=30),
            runtime=runtime,
        )

    return make


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("num_batches", [1, 2, 7])
def test_threshold_matcher_matches_the_batch_run(
    golden_setup, threshold_factory, runtime, num_batches
):
    companies, _ = golden_setup
    batch = threshold_factory().run(companies)
    assert batch.positive_edges
    batches = partition_records(companies.records, num_batches)
    matcher = ingest_in_batches(threshold_factory, batches, runtime)
    try:
        store = matcher.state.profiles
        assert store is not None and store.revision == len(batches) - 1
        assert_equals_batch(matcher, batch)
    finally:
        matcher.close()


@pytest.fixture(scope="module")
def strategy_factory(golden_setup):
    """The golden pipeline under another component-local clean-up strategy,
    with gamma low enough that ``bridge_removal``'s Algorithm 1 fallback
    cuts (``adaptive`` ignores gamma and mu)."""
    _, matcher = golden_setup

    def make(strategy, runtime=None):
        return EntityGroupMatchingPipeline(
            matcher=matcher,
            blocking=CombinedBlocking(
                [IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]
            ),
            cleanup_config=CleanupConfig(gamma=6, mu=4),
            pre_cleanup_config=PreCleanupConfig(max_component_size=30),
            runtime=runtime,
            cleanup_strategy=strategy,
        )

    return make


@pytest.mark.parametrize("strategy", ["bridge_removal", "adaptive"])
@pytest.mark.parametrize("num_batches", [1, 2, 7])
def test_another_strategy_matches_the_batch_run(
    golden_setup, strategy_factory, num_batches, strategy
):
    companies, _ = golden_setup
    factory = partial(strategy_factory, strategy)
    batch = factory().run(companies)
    report = batch.cleanup_report
    if strategy == "bridge_removal":
        assert report.mincut_removals > 0 and report.betweenness_removals > 0
        # Bridges are the removals neither phase of the fallback counts.
        assert report.num_removed > report.mincut_removals + report.betweenness_removals
    else:
        assert report.num_removed == report.betweenness_removals > 0
    matcher = ingest_in_batches(factory, partition_records(companies.records, num_batches))
    assert_equals_batch(matcher, batch)
    assert matcher.state.cleanup_report == report
    if num_batches > 1:
        assert matcher.last_report.components_reused > 0


@pytest.fixture(scope="module")
def firing_factory(golden_setup):
    """The golden pipeline with thresholds low enough that the pre-cleanup
    rule removes token-overlap edges and both clean-up phases cut."""
    _, matcher = golden_setup

    def make(runtime=None):
        return EntityGroupMatchingPipeline(
            matcher=matcher,
            blocking=CombinedBlocking(
                [IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]
            ),
            cleanup_config=CleanupConfig(gamma=5, mu=4),
            pre_cleanup_config=PreCleanupConfig(max_component_size=6),
            runtime=runtime,
        )

    return make


@pytest.fixture(scope="module")
def firing_batch_result(golden_setup, firing_factory):
    result = firing_factory().run(golden_setup[0])
    assert result.pre_cleanup_removed
    assert result.cleanup_report.mincut_removals > 0
    assert result.cleanup_report.betweenness_removals > 0
    return result


@pytest.mark.parametrize("runtime", RUNTIMES[:2])
@pytest.mark.parametrize("schedule", ["1", "2", "7", "record-at-a-time"])
def test_pre_cleanup_and_min_cut_firing_match_the_batch_run(
    golden_setup, firing_factory, firing_batch_result, tmp_path, runtime, schedule
):
    # Each schedule saves and reloads once, mid-stream, so the first ingest
    # after the load rebuilds the counts and the graph from the stored
    # owned lists and the loaded memo.  A single batch is followed by an
    # empty ingest, which does that rebuild.
    records = golden_setup[0].records
    if schedule == "record-at-a-time":
        batches = [records[:-8]] + [[record] for record in records[-8:]]
    else:
        batches = partition_records(records, int(schedule))
    reload_after = max(len(batches) // 2 - 1, 0)
    matcher = IncrementalMatcher.from_pipeline(firing_factory(runtime), name="firing")
    try:
        for index, batch in enumerate(batches):
            ingest_checked(matcher, batch)
            if index == reload_after:
                state_dir = matcher.save(tmp_path / "state")
                matcher.close()
                matcher = IncrementalMatcher.load(state_dir, runtime=runtime)
        if reload_after == len(batches) - 1:
            ingest_checked(matcher, [])
        assert_equals_batch(matcher, firing_batch_result)
    finally:
        matcher.close()


class TestRecordAtATime:
    def test_single_record_tail_matches_the_batch_run(
        self, golden_setup, pipeline_factory, batch_result
    ):
        # A record-at-a-time sample: bulk-load most of the corpus, then
        # ingest the last records individually — the smallest possible
        # deltas, scored in 1-pair batch shapes.
        companies, _ = golden_setup
        records = companies.records
        matcher = ingest_in_batches(pipeline_factory, [records[:-8]])
        for record in records[-8:]:
            report = ingest_checked(matcher, [record])
            assert report.num_new_records == 1
        assert_equals_batch(matcher, batch_result)

    def test_uneven_partition_matches_the_batch_run(
        self, golden_setup, pipeline_factory, batch_result
    ):
        companies, _ = golden_setup
        records = companies.records
        batches = [records[:5], records[5:100], records[100:101], records[101:]]
        matcher = ingest_in_batches(pipeline_factory, batches)
        assert_equals_batch(matcher, batch_result)


class TestSaveReload:
    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_reload_then_ingest_equals_uninterrupted(
        self, golden_setup, pipeline_factory, batch_result, tmp_path, runtime
    ):
        companies, _ = golden_setup
        records = companies.records
        matcher = ingest_in_batches(pipeline_factory, [records[:90]], runtime)
        state_dir = matcher.save(tmp_path / "state")

        reloaded = IncrementalMatcher.load(state_dir, runtime=runtime)
        ingest_checked(reloaded, records[90:])
        assert_equals_batch(reloaded, batch_result)

    def test_save_is_idempotent_and_reloadable_after_finish(
        self, golden_setup, pipeline_factory, batch_result, tmp_path
    ):
        companies, _ = golden_setup
        matcher = ingest_in_batches(
            pipeline_factory, partition_records(companies.records, 2)
        )
        state_dir = matcher.save(tmp_path / "state")
        matcher.save(state_dir)
        reloaded = IncrementalMatcher.load(state_dir)
        assert_equals_batch(reloaded, batch_result)
        # And the reloaded state still absorbs an (empty) delta cleanly.
        report = ingest_checked(reloaded, [])
        assert report.num_new_records == 0
        assert_equals_batch(reloaded, batch_result)


class TestIngestValidation:
    def test_duplicate_record_ids_are_rejected_atomically(
        self, golden_setup, pipeline_factory
    ):
        companies, _ = golden_setup
        records = companies.records
        matcher = ingest_in_batches(pipeline_factory, [records[:10]])
        with pytest.raises(ValueError, match="duplicate record ids"):
            matcher.ingest([records[3]])
        with pytest.raises(ValueError, match="duplicate record ids"):
            matcher.ingest([records[20], records[20]])
        # The failed ingests left no partial records behind.
        assert len(matcher.dataset) == 10

    def test_delta_savings_are_real(
        self, golden_setup, pipeline_factory, batch_result
    ):
        # Not just equivalence: the second half must reuse cached decisions
        # and skip untouched components.
        companies, _ = golden_setup
        halves = partition_records(companies.records, 2)
        matcher = ingest_in_batches(pipeline_factory, halves[:1])
        report = matcher.ingest(halves[1])
        assert report.pairs_reused > 0
        assert report.pairs_scored < len(batch_result.candidates)
        assert report.components_reused > 0
