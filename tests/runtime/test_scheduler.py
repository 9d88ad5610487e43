"""Unit tests for the execution engine: config, chunking, scheduling,
chunk spans and blocking partitioning."""

import dataclasses

import pytest

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.datagen import figure2_dataset
from repro.obs import TraceRecorder
from repro.runtime import ChunkScheduler, PipelineRuntime, RuntimeConfig, chunked


def double_all(chunk):
    """Module-level so the process pool can pickle it."""
    return [value * 2 for value in chunk]


class TestRuntimeConfig:
    def test_defaults_are_serial(self):
        config = RuntimeConfig()
        assert config.workers == 1
        assert not config.is_parallel

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_non_positive_workers(self, workers):
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            RuntimeConfig(workers=workers)

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_rejects_non_positive_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be a positive integer"):
            RuntimeConfig(batch_size=batch_size)

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="executor must be one of"):
            RuntimeConfig(executor="coroutine")

    def test_has_exactly_five_settings(self):
        assert [field.name for field in dataclasses.fields(RuntimeConfig)] == [
            "workers", "batch_size", "executor", "blocking_shards", "trace",
        ]

    @pytest.mark.parametrize("knob", ["profile_cache", "columnar_dispatch", "warm_pool"])
    def test_removed_route_knobs_are_not_settings(self, knob):
        with pytest.raises(TypeError, match=knob):
            RuntimeConfig(**{knob: False})

    def test_rejects_non_string_trace(self):
        with pytest.raises(ValueError, match="trace must be a path string or None"):
            RuntimeConfig(trace=3)

    def test_serial_spelling_equals_the_default_engine(self):
        assert RuntimeConfig.serial() == RuntimeConfig()
        assert RuntimeConfig.serial(batch_size=64) == RuntimeConfig(batch_size=64)

    def test_is_frozen(self):
        config = RuntimeConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.workers = 4  # type: ignore[misc]


class TestChunked:
    def test_concatenation_is_identity(self):
        items = list(range(13))
        chunks = chunked(items, 4)
        assert [len(c) for c in chunks] == [4, 4, 4, 1]
        assert [value for chunk in chunks for value in chunk] == items

    def test_empty_sequence_yields_no_chunks(self):
        assert chunked([], 8) == []

    def test_oversized_chunk_size_yields_one_chunk(self):
        assert chunked([1, 2], 100) == [[1, 2]]

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            chunked([1], 0)


class TestChunkScheduler:
    @pytest.mark.parametrize(
        "config",
        [
            RuntimeConfig(),
            RuntimeConfig(workers=3, executor="thread"),
            RuntimeConfig(workers=2, executor="process"),
        ],
        ids=["serial", "thread", "process"],
    )
    def test_results_preserve_chunk_order(self, config):
        chunks = chunked(list(range(57)), 10)
        results = ChunkScheduler(config).map_chunks(double_all, chunks)
        assert [v for chunk in results for v in chunk] == [v * 2 for v in range(57)]

    def test_empty_chunk_list(self):
        assert ChunkScheduler(RuntimeConfig(workers=4)).map_chunks(double_all, []) == []

    @pytest.mark.parametrize(
        "config",
        [RuntimeConfig(), RuntimeConfig(workers=2, executor="thread")],
        ids=["serial", "thread"],
    )
    def test_records_one_chunk_span_per_chunk(self, config):
        recorder = TraceRecorder()
        scheduler = ChunkScheduler(config)
        chunks = chunked(list(range(40)), 10)
        scheduler.map_chunks(double_all, chunks, stage="work", recorder=recorder, items=len)
        spans = recorder.spans
        assert [(span.name, span.kind) for span in spans] == [("work", "chunk")] * 4
        assert [span.attributes for span in spans] == [
            {"index": index, "items": 10} for index in range(4)
        ]
        assert all(span.end >= span.start for span in spans)

    def test_chunk_index_is_the_position_within_each_call(self):
        recorder = TraceRecorder()
        scheduler = ChunkScheduler(RuntimeConfig())
        scheduler.map_chunks(double_all, [[1], [2, 3]], stage="work", recorder=recorder)
        scheduler.map_chunks(double_all, [[4, 5, 6]], stage="work", recorder=recorder)
        assert [span.attributes for span in recorder.spans] == [
            {"index": 0}, {"index": 1}, {"index": 0},
        ]

    def test_chunks_without_a_stage_are_not_recorded(self):
        recorder = TraceRecorder()
        ChunkScheduler(RuntimeConfig()).map_chunks(double_all, [[1]], recorder=recorder)
        assert recorder.spans == []


class TestBlockingPartition:
    def test_plain_blocking_is_its_own_partition(self):
        blocking = IdOverlapBlocking()
        assert blocking.partition() == [blocking]

    def test_combined_blocking_partitions_into_members(self):
        members = [IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]
        assert CombinedBlocking(members).partition() == members

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_blocking_matches_serial(self, executor):
        companies, _ = figure2_dataset()
        blocking = CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)])
        serial = blocking.candidate_pairs(companies)
        runtime = PipelineRuntime(RuntimeConfig(workers=2, executor=executor))
        assert runtime.run_blocking(blocking, companies) == serial
