"""``repro.obs`` — structured observability for the whole engine.

One subsystem, four concerns:

* **Tracing** (:mod:`~repro.obs.trace`): hierarchical spans
  (run → stage → chunk → event) on one monotonic clock
  (:mod:`~repro.obs.clock`), recorded by :class:`TraceRecorder` or the
  allocation-free :data:`NULL_RECORDER` default; :func:`stage_timings`
  reads a run's stage and chunk timings off its spans.
* **Metrics** (:mod:`~repro.obs.metrics`): named counters and gauges with a
  ``<family>.hits``/``.misses`` convention the report renderer understands.
* **Sinks & exports** (:mod:`~repro.obs.sinks`, :mod:`~repro.obs.chrome`,
  :mod:`~repro.obs.report`): stream a run to JSONL, read it back, render a
  terminal report, or export Chrome ``trace_event`` JSON.
* **Process probes** (:mod:`~repro.obs.resources`,
  :mod:`~repro.obs.logs`): CPU/RSS accounting and the library's logging
  seam.

The hard contract, shared with every other engine knob: observability only
*observes*. Tracing on or off, engine outputs are byte-identical, and the
disabled path does no per-item Python work (call sites gate on
``recorder.enabled``). The ``obs-clock-discipline`` lint rule keeps direct
``time.perf_counter()``/``time.monotonic()`` calls out of the rest of the
tree so no timing bypasses the trace.
"""

from repro.obs.chrome import chrome_trace, write_chrome_trace
from repro.obs.logs import configure_cli_logging, get_logger
from repro.obs.metrics import Metrics, NullMetrics, NULL_METRICS
from repro.obs.report import render_trace_report
from repro.obs.resources import effective_cpu_count, peak_rss_bytes
from repro.obs.sinks import (
    TRACE_FORMAT_VERSION,
    JsonlSink,
    MemorySink,
    TraceFormatError,
    read_trace_jsonl,
)
from repro.obs.trace import NULL_RECORDER, NullRecorder, Span, Trace, TraceRecorder, stage_timings

__all__ = [
    "NULL_METRICS",
    "NULL_RECORDER",
    "TRACE_FORMAT_VERSION",
    "JsonlSink",
    "MemorySink",
    "Metrics",
    "NullMetrics",
    "NullRecorder",
    "Span",
    "Trace",
    "TraceFormatError",
    "TraceRecorder",
    "chrome_trace",
    "configure_cli_logging",
    "effective_cpu_count",
    "get_logger",
    "peak_rss_bytes",
    "read_trace_jsonl",
    "render_trace_report",
    "stage_timings",
    "write_chrome_trace",
]
