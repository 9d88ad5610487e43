"""Ingest observability: run spans per batch and pinned delta metrics.

The counter values are pinned exactly for the golden fixture (seed 42, 50
entities, two half batches) — the same determinism contract the golden
regression suite relies on makes cache-hit counts stable, so a drift here
means the decision cache or cleanup memo changed behaviour, not noise.
"""

import pytest

from repro.incremental import IncrementalMatcher
from repro.obs import TraceRecorder, stage_timings
from repro.runtime import PipelineRuntime, RuntimeConfig


@pytest.fixture()
def traced_two_batch_ingest(golden_setup, pipeline_factory):
    companies, _ = golden_setup
    recorder = TraceRecorder()
    runtime = PipelineRuntime(RuntimeConfig(), recorder=recorder)
    matcher = IncrementalMatcher.from_pipeline(
        pipeline_factory(runtime), name="golden-traced"
    )
    records = companies.records
    half = len(records) // 2
    reports = [matcher.ingest(records[:half]), matcher.ingest(records[half:])]
    matcher.close()
    return recorder, reports


class TestIngestSpans:
    def test_one_run_span_per_batch_with_delta_attributes(
        self, traced_two_batch_ingest
    ):
        recorder, reports = traced_two_batch_ingest
        spans = recorder.trace().find("ingest", kind="run")
        assert len(spans) == 2
        for span, report in zip(spans, reports):
            assert span.attributes == {
                "new_records": report.num_new_records,
                "records_rescored": report.records_rescored,
                "pairs_scored": report.pairs_scored,
                "pairs_reused": report.pairs_reused,
                "components_recleaned": report.components_recleaned,
                "components_reused": report.components_reused,
            }

    def test_stage_spans_nest_under_each_ingest(self, traced_two_batch_ingest):
        recorder, _ = traced_two_batch_ingest
        for span in recorder.trace().find("ingest", kind="run"):
            stages = [c.name for c in span.children if c.kind == "stage"]
            assert "pairwise_matching" in stages
            assert "graph_cleanup" in stages


    def test_chunk_index_restarts_with_each_fan_out(self, traced_two_batch_ingest):
        # Both blocking parts rescore in their own fan-out call, so each
        # call's chunks number from 0; the timings still number them in
        # trace order.
        recorder, reports = traced_two_batch_ingest
        for span, report in zip(recorder.trace().find("ingest", kind="run"), reports):
            (blocking,) = [c for c in span.children if c.name == "blocking"]
            chunks = [c for c in blocking.children if c.kind == "chunk"]
            assert [c.attributes["index"] for c in chunks] == [0, 0]
            assert report.timings == stage_timings(span)
            assert {"blocking_delta/chunk000", "blocking_delta/chunk001"} <= set(report.timings)


class TestIngestTimings:
    def test_untraced_timings_have_the_traced_keys(
        self, golden_setup, pipeline_factory, traced_two_batch_ingest
    ):
        companies, _ = golden_setup
        _, traced = traced_two_batch_ingest
        matcher = IncrementalMatcher.from_pipeline(
            pipeline_factory(None), name="golden-untraced"
        )
        records = companies.records
        half = len(records) // 2
        untraced = [matcher.ingest(records[:half]), matcher.ingest(records[half:])]
        matcher.close()
        assert [list(r.timings) for r in untraced] == [list(r.timings) for r in traced]
        assert list(untraced[0].timings)[:5] == [
            "blocking", "pairwise_matching", "pre_cleanup", "graph_cleanup", "grouping",
        ]


class TestIngestMetrics:
    def test_counters_accumulate_the_per_batch_reports(
        self, traced_two_batch_ingest
    ):
        recorder, reports = traced_two_batch_ingest
        counters = recorder.metrics.counters()
        assert counters["decision_cache.hits"] == sum(
            r.pairs_reused for r in reports
        )
        assert counters["decision_cache.misses"] == sum(
            r.pairs_scored for r in reports
        )
        assert counters["cleanup_memo.hits"] == sum(
            r.components_reused for r in reports
        )
        assert counters["cleanup_memo.misses"] == sum(
            r.components_recleaned for r in reports
        )
        assert counters["ingest.new_records"] == sum(
            r.num_new_records for r in reports
        )

    def test_pinned_golden_two_batch_values(self, traced_two_batch_ingest):
        """Exact cache-hit counts of the golden two-batch ingest.

        Batch 1 scores every candidate cold (135 misses, 0 hits); batch 2
        reuses 122 cached pair decisions and re-scores 150, and the cleanup
        memo skips 22 of 45 components.  Blocking rescores both parts' 86
        records in batch 1 and 86 new records per part in batch 2, plus the
        dirty ones: 2 for identifier overlap and 18 of 86 for token overlap,
        whose top-n memo rules out the rest.
        """
        recorder, _ = traced_two_batch_ingest
        counters = recorder.metrics.counters()
        assert counters["decision_cache.hits"] == 122
        assert counters["decision_cache.misses"] == 135 + 150
        assert counters["cleanup_memo.hits"] == 22
        assert counters["cleanup_memo.misses"] == 23 + 23
        assert counters["ingest.new_records"] == 172
        assert counters["ingest.records_rescored"] == 364

    def test_gauges_hold_the_final_corpus_shape(self, traced_two_batch_ingest):
        recorder, reports = traced_two_batch_ingest
        gauges = recorder.metrics.gauges()
        assert gauges["ingest.num_records"] == reports[-1].num_records == 172
        assert gauges["ingest.num_candidates"] == reports[-1].num_candidates == 272

    def test_untraced_ingest_records_nothing(self, golden_setup, pipeline_factory):
        companies, _ = golden_setup
        matcher = IncrementalMatcher.from_pipeline(
            pipeline_factory(None), name="golden-untraced"
        )
        report = matcher.ingest(companies.records)
        recorder = matcher.runtime.recorder
        assert not recorder.enabled
        assert recorder.trace().counters == {}
        matcher.close()
        assert report.num_records == len(companies.records)
