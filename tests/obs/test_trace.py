"""Recorder semantics: span nesting, events, attached spans, the no-op twin."""

import pytest

from repro.obs import (
    NULL_RECORDER,
    MemorySink,
    Metrics,
    NullRecorder,
    Span,
    Trace,
    TraceRecorder,
    stage_timings,
)


class TestSpan:
    def test_duration_is_zero_while_open(self):
        span = Span("open", start=5.0)
        assert span.end is None
        assert span.duration == 0.0

    def test_duration_is_end_minus_start(self):
        assert Span("s", start=1.0, end=3.5).duration == 2.5

    def test_walk_is_depth_first_in_child_order(self):
        root = Span("root", children=[
            Span("a", children=[Span("a1")]),
            Span("b"),
        ])
        assert [s.name for s in root.walk()] == ["root", "a", "a1", "b"]

    def test_equality_is_structural(self):
        make = lambda: Span("s", start=1.0, end=2.0, attributes={"k": 1},  # noqa: E731
                            children=[Span("c", start=1.1, end=1.9)])
        assert make() == make()
        other = make()
        other.children[0].attributes["extra"] = True
        assert make() != other


def run_span(*stages):
    return Span("run", kind="run", children=list(stages))


def stage(name, start, end, *children):
    return Span(name, kind="stage", start=start, end=end, children=list(children))


def chunk(name, seconds):
    return Span(name, kind="chunk", start=0.0, end=seconds)


class TestStageTimings:
    """``stage_timings``: the flat timings view over one run span."""

    def test_stage_keys_then_chunk_keys(self):
        run = run_span(
            stage("blocking", 0.0, 0.25),
            stage("pairwise_matching", 1.0, 2.5,
                  chunk("pairwise_matching", 0.5), chunk("pairwise_matching", 1.0)),
        )
        timings = stage_timings(run)
        assert list(timings) == [
            "blocking",
            "pairwise_matching",
            "pairwise_matching/chunk000",
            "pairwise_matching/chunk001",
        ]
        assert timings["blocking"] == 0.25
        assert timings["pairwise_matching"] == 1.5
        assert timings["pairwise_matching/chunk000"] == 0.5
        assert timings["pairwise_matching/chunk001"] == 1.0

    def test_repeated_stage_names_add_up(self):
        # Chunks of one name are numbered across stages in trace order.
        run = run_span(
            stage("blocking", 0.0, 1.0, chunk("blocking_delta", 0.25)),
            stage("grouping", 1.0, 1.5),
            stage("blocking", 2.0, 4.0, chunk("blocking_delta", 0.5)),
        )
        timings = stage_timings(run)
        assert list(timings) == [
            "blocking", "grouping", "blocking_delta/chunk000", "blocking_delta/chunk001",
        ]
        assert timings["blocking"] == 3.0
        assert timings["blocking_delta/chunk000"] == 0.25
        assert timings["blocking_delta/chunk001"] == 0.5

    def test_recorded_stage_spans_are_timed(self):
        recorder = TraceRecorder()
        with recorder.span("run", kind="run") as run:
            with recorder.span("blocking", kind="stage"):
                pass
        timings = stage_timings(run)
        assert list(timings) == ["blocking"]
        assert timings["blocking"] >= 0

    def test_only_stages_and_their_chunks_count(self):
        run = run_span(
            Span("pool.spawn", kind="event", start=0.0, end=0.0),
            stage("grouping", 0.0, 1.0, Span("pool.publish", kind="event", start=0.5, end=0.5)),
            Span("stray", kind="chunk", start=0.0, end=1.0),
        )
        assert stage_timings(run) == {"grouping": 1.0}

    @pytest.mark.parametrize("num_chunks", [1, 999, 1000, 12345])
    def test_chunk_keys_sort_lexicographically_at_any_count(self, num_chunks):
        # The pad width grows with the chunk count (min 3 digits), so
        # lexicographic key order equals chunk order past 999 chunks —
        # record-sharded blocking makes thousand-chunk stages routine.
        run = run_span(stage(
            "blocking", 0.0, 1.0, *(chunk("blocking", float(i)) for i in range(num_chunks))
        ))
        timings = stage_timings(run)
        keys = [key for key in timings if key.startswith("blocking/chunk")]
        assert len(keys) == num_chunks
        assert sorted(keys) == keys
        assert [timings[key] for key in keys] == [float(i) for i in range(num_chunks)]

    def test_pad_width_is_per_chunk_name_and_backward_compatible(self):
        run = run_span(
            stage("big", 0.0, 1.0, *(chunk("big", float(i)) for i in range(1001))),
            stage("small", 1.0, 2.0, chunk("small", 1.0)),
        )
        timings = stage_timings(run)
        # ≤1000 chunks keep the historical three-digit keys.
        assert "small/chunk000" in timings
        # Index 1000 needs four digits — throughout the name, so the keys
        # still sort.
        assert "big/chunk0000" in timings and "big/chunk1000" in timings
        assert "big/chunk000" not in timings


class TestTraceRecorder:
    def test_spans_nest_under_the_open_span(self):
        recorder = TraceRecorder()
        with recorder.span("run", kind="run"):
            with recorder.span("blocking", kind="stage"):
                pass
            with recorder.span("matching", kind="stage"):
                pass
        (run,) = recorder.spans
        assert run.name == "run" and run.kind == "run"
        assert [s.name for s in run.children] == ["blocking", "matching"]
        assert all(s.kind == "stage" for s in run.children)

    def test_span_records_monotonic_interval(self):
        recorder = TraceRecorder()
        with recorder.span("timed"):
            pass
        (span,) = recorder.spans
        assert span.end is not None
        assert span.end >= span.start

    def test_attributes_from_kwargs_and_while_open(self):
        recorder = TraceRecorder()
        with recorder.span("run", records=10) as span:
            span.attributes["groups"] = 3
        (run,) = recorder.spans
        assert run.attributes == {"records": 10, "groups": 3}

    def test_event_is_a_zero_length_child(self):
        recorder = TraceRecorder()
        with recorder.span("stage"):
            recorder.event("pool.spawn", workers=2)
        (stage,) = recorder.spans
        (event,) = stage.children
        assert event.kind == "event"
        assert event.start == event.end
        assert event.attributes == {"workers": 2}

    def test_add_span_attaches_foreign_interval(self):
        recorder = TraceRecorder()
        with recorder.span("stage"):
            recorder.add_span("stage", start=1.0, end=2.0,
                              attributes={"index": 0, "items": 7})
        (stage,) = recorder.spans
        (chunk,) = stage.children
        assert chunk.kind == "chunk"
        assert (chunk.start, chunk.end) == (1.0, 2.0)
        assert chunk.attributes == {"index": 0, "items": 7}

    def test_top_level_spans_become_roots(self):
        recorder = TraceRecorder()
        with recorder.span("first"):
            pass
        with recorder.span("second"):
            pass
        assert [s.name for s in recorder.spans] == ["first", "second"]

    def test_span_closes_on_exception(self):
        recorder = TraceRecorder()
        with pytest.raises(RuntimeError):
            with recorder.span("boom"):
                raise RuntimeError("inside")
        (span,) = recorder.spans
        assert span.end is not None
        # The stack unwound: the next span is a sibling, not a child.
        with recorder.span("after"):
            pass
        assert [s.name for s in recorder.spans] == ["boom", "after"]

    def test_trace_includes_metric_snapshot(self):
        recorder = TraceRecorder()
        recorder.metrics.add("cache.hits", 3)
        recorder.metrics.gauge("pool.width", 4)
        trace = recorder.trace()
        assert isinstance(trace, Trace)
        assert trace.counters == {"cache.hits": 3}
        assert trace.gauges == {"pool.width": 4.0}

    def test_accepts_an_external_metrics_registry(self):
        metrics = Metrics()
        recorder = TraceRecorder(metrics=metrics)
        assert recorder.metrics is metrics

    def test_finish_emits_metrics_record_and_closes_sink_once(self):
        sink = MemorySink()
        recorder = TraceRecorder(sink=sink)
        recorder.metrics.add("n", 2)
        recorder.finish()
        recorder.finish()  # idempotent
        assert sink.closed
        metrics_records = [r for r in sink.records if r["type"] == "metrics"]
        assert metrics_records == [{"type": "metrics", "counters": {"n": 2},
                                    "gauges": {}}]

    def test_sink_receives_children_before_parents(self):
        sink = MemorySink()
        recorder = TraceRecorder(sink=sink)
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        names = [r["name"] for r in sink.records if r["type"] == "span"]
        assert names == ["inner", "outer"]
        inner, outer = (r for r in sink.records if r["type"] == "span")
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None


class TestTraceQueries:
    def test_find_filters_by_name_and_kind(self):
        recorder = TraceRecorder()
        with recorder.span("run", kind="run"):
            with recorder.span("blocking", kind="stage"):
                recorder.add_span("blocking", start=0.0, end=1.0)
        trace = recorder.trace()
        assert len(trace.find("blocking")) == 2
        assert len(trace.find("blocking", kind="chunk")) == 1
        assert trace.find("missing") == []


class TestNullRecorder:
    def test_is_disabled_and_records_nothing(self):
        recorder = NullRecorder()
        assert not recorder.enabled
        with recorder.span("ignored", key="value") as span:
            assert span is None
        assert recorder.event("ignored") is None
        assert recorder.add_span("ignored", start=0.0, end=1.0) is None
        assert recorder.spans == []
        assert recorder.trace() == Trace()
        recorder.finish()  # no-op

    def test_shared_instance_has_disabled_metrics(self):
        NULL_RECORDER.metrics.add("anything", 10)
        assert NULL_RECORDER.metrics.counter("anything") == 0

    def test_span_context_is_allocation_free(self):
        # One shared context object: the disabled hot path must not build
        # a new context manager per span.
        first = NULL_RECORDER.span("a")
        second = NULL_RECORDER.span("b")
        assert first is second
