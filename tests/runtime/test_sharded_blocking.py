"""Golden regression for record-span candidate generation.

The determinism contract under test: at any worker count, on either
executor, ``PipelineRuntime.run_blocking`` must produce candidate pairs
*byte-identical* to ``Blocking.candidate_pairs`` — same pairs, same order,
same blocking tags, including the first-blocking-wins de-duplication of
:class:`~repro.blocking.combine.CombinedBlocking`.  Splitting the records
into spans must never change document frequencies or per-record top-n
selections, because the shared index is built globally and only the
scoring is split.
"""

import pytest

from repro.blocking import (
    CombinedBlocking,
    IdOverlapBlocking,
    IssuerMatchBlocking,
    TokenOverlapBlocking,
)
from repro.blocking.base import dedupe_pairs
from repro.datagen import GenerationConfig, figure2_dataset, generate_benchmark
from repro.matching import IdOverlapMatcher
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.runtime import PipelineRuntime, RuntimeConfig, even_spans

WORKER_COUNTS = [1, 2, 7]
EXECUTORS = ["thread", "process"]


def split_evenly(items, parts):
    """Split ``items`` into at most ``parts`` consecutive, near-equal chunks.

    Sizes differ by at most one (the larger chunks come first), the
    concatenation of the chunks is exactly ``items``, and no chunk is empty
    — fewer than ``parts`` chunks are returned when there are fewer items.
    The list-materialising oracle of :func:`~repro.runtime.even_spans`,
    whose boundaries the engine ships instead of record copies.
    """
    return [list(items[start:stop]) for start, stop in even_spans(len(items), parts)]


@pytest.fixture(scope="module")
def golden_data():
    return generate_benchmark(
        GenerationConfig(num_entities=50, num_sources=4, seed=42,
                         acquisition_rate=0.05, merger_rate=0.05)
    )


@pytest.fixture(scope="module")
def combined_blocking():
    return CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)])


@pytest.fixture(scope="module")
def serial_pairs(golden_data, combined_blocking):
    return combined_blocking.candidate_pairs(golden_data.companies)


class TestShardedByteIdentity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_combined_blocking_matches_serial(
        self, golden_data, combined_blocking, serial_pairs, workers, executor
    ):
        with PipelineRuntime(RuntimeConfig(workers=workers, executor=executor)) as runtime:
            sharded = runtime.run_blocking(combined_blocking, golden_data.companies)
        # Full CandidatePair equality: ids, order AND blocking tags — the
        # tags prove first-blocking-wins survived the span merge.
        assert sharded == serial_pairs

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_first_blocking_wins_tags(self, golden_data, combined_blocking, workers):
        companies = golden_data.companies
        runtime = PipelineRuntime(RuntimeConfig(workers=workers, executor="thread"))
        sharded = runtime.run_blocking(combined_blocking, companies)
        id_keys = {p.key for p in IdOverlapBlocking().candidate_pairs(companies)}
        assert any(pair.key in id_keys for pair in sharded)
        for pair in sharded:
            if pair.key in id_keys:
                assert pair.blocking == "id_overlap"

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_issuer_match_matches_serial(self, golden_data, workers, executor):
        blocking = IssuerMatchBlocking.from_ground_truth(golden_data.companies)
        serial = blocking.candidate_pairs(golden_data.securities)
        with PipelineRuntime(RuntimeConfig(workers=workers, executor=executor)) as runtime:
            assert runtime.run_blocking(blocking, golden_data.securities) == serial

    def test_more_workers_than_records(self, combined_blocking):
        companies, _ = figure2_dataset()
        runtime = PipelineRuntime(RuntimeConfig(
            workers=len(companies) + 3, executor="thread"
        ))
        # Every part gets one single-record span per record, none empty.
        assert runtime.run_blocking(combined_blocking, companies) == (
            combined_blocking.candidate_pairs(companies)
        )


class TestTwoPhaseProtocol:
    @pytest.mark.parametrize("spans", [2, 3, 7])
    def test_chunk_concatenation_reproduces_serial(self, golden_data, spans):
        # The per-blocking contract the engine builds on, exercised without
        # the engine: concat over consecutive spans + one dedupe == serial.
        companies, securities = golden_data.companies, golden_data.securities
        cases = [
            (IdOverlapBlocking(), companies),
            (TokenOverlapBlocking(top_n=3), companies),
            (IdOverlapBlocking(), securities),
            (IssuerMatchBlocking.from_ground_truth(companies), securities),
        ]
        for blocking, dataset in cases:
            shared = blocking.prepare(dataset)
            merged = []
            for chunk in split_evenly(dataset.records, spans):
                merged.extend(blocking.candidates_for(shared, chunk))
            assert dedupe_pairs(merged) == blocking.candidate_pairs(dataset)


class TestShardedPipelineEndToEnd:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_pipeline_artefacts_identical_to_serial(
        self, golden_data, combined_blocking, workers
    ):
        def run(runtime):
            return EntityGroupMatchingPipeline(
                matcher=IdOverlapMatcher(),
                blocking=combined_blocking,
                runtime=runtime,
            ).run(golden_data.companies)

        serial = run(None)
        sharded = run(RuntimeConfig(workers=workers, executor="thread"))
        assert sharded.candidates == serial.candidates
        assert sharded.decisions == serial.decisions
        assert sharded.groups.groups == serial.groups.groups

    def test_blocking_chunk_timings_are_recorded(self, golden_data, combined_blocking):
        result = EntityGroupMatchingPipeline(
            matcher=IdOverlapMatcher(),
            blocking=combined_blocking,
            runtime=RuntimeConfig(workers=3, executor="thread"),
        ).run(golden_data.companies)
        chunk_keys = [key for key in result.timings if key.startswith("blocking/chunk")]
        # Two parts × 3 record spans = 6 blocking tasks.
        assert len(chunk_keys) == 6


class TestSplitEvenly:
    def test_concatenation_is_identity(self):
        items = list(range(23))
        chunks = split_evenly(items, 5)
        assert [len(c) for c in chunks] == [5, 5, 5, 4, 4]
        assert [v for chunk in chunks for v in chunk] == items

    def test_more_parts_than_items_skips_empties(self):
        assert split_evenly([1, 2, 3], 10) == [[1], [2], [3]]

    def test_empty_items(self):
        assert split_evenly([], 4) == []

    def test_single_part(self):
        assert split_evenly([1, 2, 3], 1) == [[1, 2, 3]]

    def test_rejects_non_positive_parts(self):
        with pytest.raises(ValueError, match="parts must be a positive integer"):
            split_evenly([1], 0)

    @pytest.mark.parametrize("count,parts", [(0, 3), (5, 1), (23, 5), (3, 10), (7, 7)])
    def test_spans_tile_the_record_range(self, count, parts):
        # even_spans is the index arithmetic split_evenly is built on; the
        # engine ships these spans instead of record copies, so they must
        # tile [0, count) exactly in order.
        spans = even_spans(count, parts)
        assert spans == [
            (chunk[0], chunk[-1] + 1)
            for chunk in split_evenly(list(range(count)), parts)
        ]
