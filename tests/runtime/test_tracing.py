"""Tracing through the execution engine: spans from real runs, ordering,
pool events, and the only contract that really matters — recording never
changes what the engine computes.
"""

import pytest

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.core.cleanup import CleanupConfig
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.core.precleanup import PreCleanupConfig
from repro.datagen import GenerationConfig, figure2_dataset, generate_benchmark
from repro.matching import IdOverlapMatcher, LogisticRegressionMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs
from repro.obs import MemorySink, TraceRecorder, read_trace_jsonl
from repro.runtime import PipelineRuntime, RuntimeConfig, StageProfiler


@pytest.fixture(scope="module")
def workload():
    """A dataset + fitted matcher big enough to produce several chunks."""
    benchmark = generate_benchmark(
        GenerationConfig(num_entities=40, num_sources=4, seed=7,
                         acquisition_rate=0.05, merger_rate=0.05)
    )
    dataset = benchmark.companies
    pairs = build_labeled_pairs(dataset, negative_ratio=3, seed=0)
    record_pairs, labels = as_record_pairs(pairs)
    matcher = LogisticRegressionMatcher(num_iterations=60).fit(record_pairs, labels)
    blocking = CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)])
    candidates = blocking.candidate_pairs(dataset)
    return dataset, matcher, candidates


ENGINE_CONFIGS = [
    pytest.param(RuntimeConfig(batch_size=64), id="serial"),
    pytest.param(RuntimeConfig(workers=2, executor="thread", batch_size=64),
                 id="thread"),
    pytest.param(RuntimeConfig(workers=2, executor="process", batch_size=64),
                 id="process"),
]


class TestChunkSpans:
    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_chunk_spans_arrive_in_submission_order(self, workload, config):
        """Every engine mode records one chunk span per batch, in submission
        order, nested under the stage span — out-of-order worker completion
        must never leak into the trace."""
        dataset, matcher, candidates = workload
        recorder = TraceRecorder()
        with PipelineRuntime(config, recorder=recorder) as runtime:
            profiler = runtime.profiler()
            with profiler.stage("pairwise_matching"):
                decisions = runtime.run_matching(
                    matcher, dataset, candidates, profiler=profiler
                )
        assert len(decisions) == len(candidates)
        (stage,) = recorder.trace().find("pairwise_matching", kind="stage")
        chunks = [c for c in stage.children if c.kind == "chunk"]
        expected = (len(candidates) + config.batch_size - 1) // config.batch_size
        assert len(chunks) == expected
        assert [c.attributes["index"] for c in chunks] == list(range(expected))
        # Chunk item counts tile the candidate list exactly.
        assert sum(c.attributes["items"] for c in chunks) == len(candidates)
        # Worker-measured endpoints are real intervals on the shared clock.
        assert all(c.end >= c.start for c in chunks)

    def test_process_chunks_carry_fetch_attribute(self, workload):
        dataset, matcher, candidates = workload
        recorder = TraceRecorder()
        config = RuntimeConfig(workers=2, executor="process", batch_size=64)
        # One shared store across both calls: the epoch identity
        # (matcher, store, revision) stays current, so the second call's
        # chunks are all served from the workers' payload caches.
        profiles = matcher.prepare_profiles(dataset)
        with PipelineRuntime(config, recorder=recorder) as runtime:
            profiler = runtime.profiler()
            with profiler.stage("pairwise_matching"):
                runtime.run_matching(matcher, dataset, candidates,
                                     profiler=profiler, profiles=profiles)
            with profiler.stage("pairwise_matching"):
                runtime.run_matching(matcher, dataset, candidates,
                                     profiler=profiler, profiles=profiles)
        first, second = recorder.trace().find("pairwise_matching", kind="stage")
        first_chunks = [c for c in first.children if c.kind == "chunk"]
        second_chunks = [c for c in second.children if c.kind == "chunk"]
        assert all(isinstance(c.attributes["fetched"], bool) for c in first_chunks)
        # Each worker fetches at most once per epoch; with two workers the
        # first call shows <= 2 fetches, the second call none at all.
        assert sum(c.attributes["fetched"] for c in first_chunks) <= 2
        assert sum(c.attributes["fetched"] for c in second_chunks) == 0
        counters = recorder.metrics.counters()
        total = len(first_chunks) + len(second_chunks)
        assert counters["pool.payload.hits"] + counters["pool.payload.misses"] == total


class TestPoolEvents:
    def test_pool_spawn_and_publish_events(self, workload):
        dataset, matcher, candidates = workload
        recorder = TraceRecorder()
        config = RuntimeConfig(workers=2, executor="process", batch_size=64)
        profiles = matcher.prepare_profiles(dataset)
        with PipelineRuntime(config, recorder=recorder) as runtime:
            profiler = runtime.profiler()
            with profiler.stage("pairwise_matching"):
                runtime.run_matching(matcher, dataset, candidates,
                                     profiler=profiler, profiles=profiles)
            with profiler.stage("pairwise_matching"):
                runtime.run_matching(matcher, dataset, candidates,
                                     profiler=profiler, profiles=profiles)
        trace = recorder.trace()
        (spawn,) = trace.find("pool.spawn")
        assert spawn.attributes == {"executor": "process", "workers": 2}
        (publish,) = trace.find("pool.publish")
        assert publish.attributes["slot"] == "pairwise_matching"
        assert publish.attributes["payload_bytes"] > 0
        # The second call reuses the published payload instead of re-pickling.
        (reuse,) = trace.find("pool.publish_reuse")
        assert reuse.attributes["slot"] == "pairwise_matching"
        counters = trace.counters
        assert counters["pool.spawns"] == 1
        assert counters["pool.publishes"] == 1
        assert counters["pool.publish_reuses"] == 1
        assert counters["pool.publish_bytes"] == publish.attributes["payload_bytes"]


class TestTracedEqualsUntraced:
    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_decisions_are_byte_identical(self, workload, config):
        """The core observability contract: recording only observes."""
        dataset, matcher, candidates = workload
        with PipelineRuntime(config) as runtime:
            untraced = runtime.run_matching(matcher, dataset, candidates)
        with PipelineRuntime(config, recorder=TraceRecorder()) as runtime:
            traced = runtime.run_matching(matcher, dataset, candidates)
        assert [d.probability for d in traced] == [d.probability for d in untraced]
        assert [d.is_match for d in traced] == [d.is_match for d in untraced]

    def test_pipeline_groups_are_identical_with_a_trace_file(self, tmp_path):
        dataset, _ = figure2_dataset()
        matcher = IdOverlapMatcher()

        def run(config):
            pipeline = EntityGroupMatchingPipeline(
                matcher=matcher,
                blocking=IdOverlapBlocking(),
                runtime=PipelineRuntime(config),
            )
            try:
                return pipeline.run(dataset)
            finally:
                pipeline.close()

        plain = run(RuntimeConfig())
        trace_path = tmp_path / "run.jsonl"
        traced = run(RuntimeConfig(trace=str(trace_path)))
        assert traced.groups.groups == plain.groups.groups
        assert [d.probability for d in traced.decisions] == [
            d.probability for d in plain.decisions
        ]
        assert traced.timings.keys() == plain.timings.keys()
        # And the trace file round-trips with the run span at the root.
        trace = read_trace_jsonl(trace_path)
        (run_span,) = trace.find("pipeline.run", kind="run")
        stage_names = [s.name for s in run_span.children if s.kind == "stage"]
        assert "pairwise_matching" in stage_names


@pytest.fixture(scope="module")
def golden_run():
    """Runs the golden pipeline (seed 42, 50 entities, 4 sources) with or
    without a trace recorder."""
    benchmark = generate_benchmark(
        GenerationConfig(num_entities=50, num_sources=4, seed=42,
                         acquisition_rate=0.05, merger_rate=0.05)
    )
    companies = benchmark.companies
    pairs = build_labeled_pairs(companies, negative_ratio=3, seed=0)
    record_pairs, labels = as_record_pairs(pairs)
    matcher = LogisticRegressionMatcher(num_iterations=120).fit(record_pairs, labels)

    def run(cleanup_config, recorder=None):
        pipeline = EntityGroupMatchingPipeline(
            matcher=matcher,
            blocking=CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]),
            cleanup_config=cleanup_config,
            pre_cleanup_config=PreCleanupConfig(max_component_size=30),
            runtime=PipelineRuntime(RuntimeConfig(), recorder=recorder),
        )
        return pipeline.run(companies)

    return run


class TestCleanupCounters:
    @pytest.mark.parametrize(
        ("gamma", "counters", "gauges"),
        [
            pytest.param(
                20,
                {"mincut_removals": 0, "betweenness_removals": 9, "edges_removed": 9},
                {"initial_largest_component": 7.0, "final_largest_component": 4.0},
                id="golden",
            ),
            pytest.param(
                6,
                {"mincut_removals": 3, "betweenness_removals": 8, "edges_removed": 11},
                {"initial_largest_component": 7.0, "final_largest_component": 4.0},
                id="gamma6",
            ),
        ],
    )
    def test_cleanup_stage_records_its_removals(self, golden_run, gamma, counters, gauges):
        config = CleanupConfig(gamma=gamma, mu=4)
        recorder = TraceRecorder()
        traced = golden_run(config, recorder)
        metrics = recorder.metrics
        assert {
            name.removeprefix("cleanup."): value
            for name, value in metrics.counters().items()
            if name.startswith("cleanup.")
        } == counters
        assert {
            name.removeprefix("cleanup."): value
            for name, value in metrics.gauges().items()
            if name.startswith("cleanup.")
        } == gauges
        report = traced.cleanup_report
        assert counters == {
            "mincut_removals": report.mincut_removals,
            "betweenness_removals": report.betweenness_removals,
            "edges_removed": report.num_removed,
        }
        # Recording only observes: the untraced run is byte-identical.
        plain = golden_run(config)
        assert traced.groups.groups == plain.groups.groups
        assert traced.cleanup_report == plain.cleanup_report


class TestRuntimeRecorderWiring:
    def test_config_trace_builds_a_jsonl_recorder(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        runtime = PipelineRuntime(RuntimeConfig(trace=str(path)))
        assert runtime.recorder.enabled
        with runtime.recorder.span("probe"):
            pass
        runtime.close()
        assert [s.name for s in read_trace_jsonl(path).spans] == ["probe"]

    def test_default_runtime_uses_the_shared_null_recorder(self):
        runtime = PipelineRuntime()
        assert not runtime.recorder.enabled
        assert runtime.profiler().recorder is runtime.recorder

    def test_close_finalises_the_trace_with_metrics(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        runtime = PipelineRuntime(RuntimeConfig(trace=str(path)))
        runtime.recorder.metrics.add("probe.count", 3)
        with runtime.recorder.span("probe"):
            pass
        runtime.close()
        assert read_trace_jsonl(path).counters == {"probe.count": 3}

    def test_sink_records_sorted_stream(self, workload):
        # The MemorySink stream carries span records with resolvable links.
        dataset, matcher, candidates = workload
        sink = MemorySink()
        recorder = TraceRecorder(sink=sink)
        with PipelineRuntime(RuntimeConfig(batch_size=64),
                             recorder=recorder) as runtime:
            profiler = runtime.profiler()
            with profiler.stage("pairwise_matching"):
                runtime.run_matching(matcher, dataset, candidates,
                                     profiler=profiler)
        ids = {r["id"] for r in sink.records if r["type"] == "span"}
        parents = {r["parent"] for r in sink.records
                   if r["type"] == "span" and r["parent"] is not None}
        assert parents <= ids


class TestProfilerAccumulation:
    def test_stage_seconds_accumulate_across_repeats(self):
        """Multi-batch pin: repeated stages add up instead of clobbering.

        An ingest sequence reuses one runtime and times ``delta_blocking``
        once per batch — earlier profiler versions kept only the last batch.
        """
        profiler = StageProfiler()
        profiler.record_stage("delta_blocking", 1.0)
        profiler.record_stage("delta_blocking", 2.0)
        assert profiler.stage_seconds("delta_blocking") == pytest.approx(3.0)

    def test_stage_context_accumulates_across_invocations(self):
        profiler = StageProfiler()
        with profiler.stage("repeated"):
            pass
        first = profiler.stage_seconds("repeated")
        with profiler.stage("repeated"):
            pass
        assert profiler.stage_seconds("repeated") > first

    def test_stage_spans_nest_in_the_attached_recorder(self):
        recorder = TraceRecorder()
        profiler = StageProfiler(recorder=recorder)
        with recorder.span("run", kind="run"):
            with profiler.stage("blocking"):
                profiler.record_chunk("blocking", 0.5, items=10,
                                      start=1.0, end=1.5)
        (run,) = recorder.spans
        (stage,) = run.children
        assert (stage.name, stage.kind) == ("blocking", "stage")
        (chunk,) = stage.children
        assert chunk.attributes == {"index": 0, "items": 10}
        # The flat timing view is fed by the same call.
        assert profiler.chunk_seconds("blocking") == [0.5]

    def test_chunks_without_timeline_skip_the_trace(self):
        recorder = TraceRecorder()
        profiler = StageProfiler(recorder=recorder)
        profiler.record_chunk("blocking", 0.25, items=5)
        assert recorder.spans == []
        assert profiler.chunk_seconds("blocking") == [0.25]
