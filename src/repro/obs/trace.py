"""Hierarchical run tracing: spans, the recorder, and its no-op twin.

A **span** is one timed region with structured attributes; spans nest into
the run hierarchy the engine produces::

    run                       one pipeline run / one ingest batch
    └── stage                 blocking, pairwise_matching, graph_cleanup, ...
        ├── chunk             one scheduler task (duration measured in-worker)
        └── event             an instant: pool spawn, epoch publish, ...

The :class:`TraceRecorder` is the single producer-facing object: code opens
spans with ``with recorder.span(...)``, drops instants with
:meth:`~TraceRecorder.event`, attaches already-timed regions (worker-measured
chunks) with :meth:`~TraceRecorder.add_span`, and counts through
``recorder.metrics``.  All recording happens parent-side on one thread — the
recorder is deliberately not thread-safe; worker-side measurements ride back
to the parent on the existing chunk-result channel and are attached here.

Completed spans stream to an optional **sink** (:mod:`repro.obs.sinks`) as
flat records carrying ``id``/``parent`` links; the in-memory tree is always
kept too, so :meth:`TraceRecorder.trace` and a parsed JSONL file reconstruct
the *same* :class:`Trace` (the round-trip suite pins this).  The span tree
is also the engine's only timing record: :func:`stage_timings` reads a run's
flat stage and chunk timings off its spans.

:data:`NULL_RECORDER` is the default everywhere a recorder is accepted: a
shared, stateless no-op with ``enabled = False``.  Hot paths guard their
instrumentation with ``if recorder.enabled:`` so the disabled engine stays
allocation-free — tracing on/off is byte-identical in outputs and ≤ a few
percent in time, and only ever *observes* a run, never steers it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import Any

from repro.obs import clock
from repro.obs.metrics import Metrics, NULL_METRICS

__all__ = ["Span", "Trace", "TraceRecorder", "NullRecorder", "NULL_RECORDER", "stage_timings"]


@dataclass
class Span:
    """One timed region of the run hierarchy.

    ``start``/``end`` are seconds on the shared monotonic timeline
    (:func:`repro.obs.clock.now`); events are zero-length spans.  Equality
    is structural (name, kind, times, attributes, children) — what the
    JSONL round-trip suite compares.
    """

    name: str
    kind: str = "span"
    start: float = 0.0
    end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first in child order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, kind={self.kind!r}, "
            f"duration={self.duration:.6f}, children={len(self.children)})"
        )


def stage_timings(run: Span) -> dict[str, float]:
    """The flat timings of one run span: ``PipelineResult.timings`` and
    ``IngestReport.timings`` are this view.

    Each ``stage`` child's duration goes under its name, and repeated names
    add up.  Each ``chunk`` under a stage goes under
    ``"<chunk name>/chunk<index>"``, numbered in trace order per chunk name.
    The index is zero-padded to the name's chunk count (at least three
    digits), so lexicographic key order equals chunk order at any count.
    """
    timings: dict[str, float] = {}
    chunks: dict[str, list[float]] = {}
    for stage in run.children:
        if stage.kind != "stage":
            continue
        timings[stage.name] = timings.get(stage.name, 0.0) + stage.duration
        for chunk in stage.children:
            if chunk.kind == "chunk":
                chunks.setdefault(chunk.name, []).append(chunk.duration)
    for name, durations in chunks.items():
        width = max(3, len(str(len(durations) - 1)))
        for index, seconds in enumerate(durations):
            timings[f"{name}/chunk{index:0{width}d}"] = seconds
    return timings


@dataclass
class Trace:
    """A finished recording: root spans plus the final metric values.

    Produced by :meth:`TraceRecorder.trace` (in-memory) and by
    :func:`repro.obs.sinks.read_trace_jsonl` (from a streamed file); the two
    are equal for the same run.
    """

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)

    def walk(self) -> Iterator[Span]:
        """Every span in the trace, depth-first, roots in order."""
        for span in self.spans:
            yield from span.walk()

    def find(self, name: str, kind: str | None = None) -> list[Span]:
        """All spans named ``name`` (optionally restricted to ``kind``)."""
        return [
            span
            for span in self.walk()
            if span.name == name and (kind is None or span.kind == kind)
        ]


class TraceRecorder:
    """Records the span tree of a run and streams completed spans to a sink.

    ``sink`` (optional) receives one flat dict per completed span — see
    :mod:`repro.obs.sinks` for the record schema — plus a final metrics
    record from :meth:`finish`.  Sink failures never propagate into the run
    (the sink degrades itself and warns through the ``repro`` logger);
    recording is an observer, not a participant.
    """

    enabled = True

    def __init__(self, sink: Any = None, metrics: Metrics | None = None) -> None:
        self.metrics = Metrics() if metrics is None else metrics
        self._sink = sink
        self._roots: list[Span] = []
        #: Open spans, innermost last; new spans/events attach to the top.
        self._stack: list[tuple[Span, int]] = []
        self._next_id = 1
        self._finished = False

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, kind: str = "span", **attributes: Any) -> Iterator[Span]:
        """Open a span around a code region; closes (and emits) on exit.

        Attributes may also be added to the yielded span while it is open —
        they are emitted with the completed span.
        """
        span = Span(name=name, kind=kind, start=clock.now(), attributes=attributes)
        span_id = self._attach(span)
        self._stack.append((span, span_id))
        try:
            yield span
        finally:
            span.end = clock.now()
            self._stack.pop()
            self._emit(span, span_id)

    def event(self, name: str, **attributes: Any) -> Span:
        """Record an instantaneous event under the current open span."""
        moment = clock.now()
        span = Span(
            name=name, kind="event", start=moment, end=moment, attributes=attributes
        )
        self._emit(span, self._attach(span))
        return span

    def add_span(
        self,
        name: str,
        kind: str = "chunk",
        *,
        start: float,
        end: float,
        attributes: dict[str, Any] | None = None,
    ) -> Span:
        """Attach an already-timed region under the current open span.

        The attachment point for measurements taken elsewhere — chunk
        durations clocked inside pool workers ride back on the chunk-result
        channel and land here, in submission order, with their in-worker
        ``start``/``end`` (the clock is system-wide; see
        :mod:`repro.obs.clock`).
        """
        span = Span(
            name=name,
            kind=kind,
            start=start,
            end=end,
            attributes={} if attributes is None else dict(attributes),
        )
        self._emit(span, self._attach(span))
        return span

    def finish(self) -> None:
        """Emit the final metrics record and release the sink (idempotent).

        Called by the owning runtime's ``close()``; later recording still
        lands in the in-memory tree but is no longer streamed.
        """
        if self._finished:
            return
        self._finished = True
        if self._sink is not None:
            snapshot = self.metrics.snapshot()
            self._sink.write(
                {
                    "type": "metrics",
                    "counters": snapshot["counters"],
                    "gauges": snapshot["gauges"],
                }
            )
            self._sink.close()
            self._sink = None

    # -- reading -------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """The root spans recorded so far (the live tree, not a copy)."""
        return self._roots

    def trace(self) -> Trace:
        """The finished recording as a :class:`Trace`."""
        snapshot = self.metrics.snapshot()
        return Trace(
            spans=self._roots,
            counters=snapshot["counters"],
            gauges=snapshot["gauges"],
        )

    # -- internals -----------------------------------------------------------

    def _attach(self, span: Span) -> int:
        if self._stack:
            self._stack[-1][0].children.append(span)
        else:
            self._roots.append(span)
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _emit(self, span: Span, span_id: int) -> None:
        if self._sink is None or self._finished:
            return
        record: dict[str, Any] = {
            "type": "span",
            "id": span_id,
            "parent": self._stack[-1][1] if self._stack else None,
            "name": span.name,
            "kind": span.kind,
            "start": span.start,
            "end": span.end,
        }
        if span.attributes:
            record["attrs"] = span.attributes
        self._sink.write(record)


class _NullContext:
    """A reusable no-op context manager (one shared instance, no per-call
    allocation)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullRecorder:
    """The disabled recorder: every method returns immediately.

    Shared as :data:`NULL_RECORDER`.  Call sites on per-chunk (or hotter)
    paths should gate on :attr:`enabled` before building attribute payloads,
    so the disabled engine does no observability work at all.
    """

    enabled = False
    metrics = NULL_METRICS

    def span(self, name: str, kind: str = "span", **attributes: Any) -> _NullContext:
        return _NULL_CONTEXT

    def event(self, name: str, **attributes: Any) -> None:
        return None

    def add_span(
        self,
        name: str,
        kind: str = "chunk",
        *,
        start: float,
        end: float,
        attributes: dict[str, Any] | None = None,
    ) -> None:
        return None

    def finish(self) -> None:
        return None

    @property
    def spans(self) -> list[Span]:
        return []

    def trace(self) -> Trace:
        return Trace()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullRecorder()"


#: The shared disabled recorder — the default wherever a recorder is
#: accepted.  Stateless, so sharing one instance across every runtime is
#: safe.
NULL_RECORDER = NullRecorder()
