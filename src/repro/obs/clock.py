"""The monotonic clock behind every trace timestamp.

One seam, one clock: every duration the engine reports — stage spans, chunk
spans, and the run timings read off them — comes from :func:`now`, which
reads ``time.perf_counter()`` (CLOCK_MONOTONIC on the platforms we run on).
The ``obs-clock-discipline`` lint rule
(:mod:`repro.analysis.rules.observability`) rejects direct
``time.perf_counter()`` / ``time.monotonic()`` calls outside this package,
so timing that matters cannot bypass the trace: code that wants a
timestamp either opens a recorder span or reads this clock.

On every major platform ``perf_counter`` is a system-wide clock (Linux
``CLOCK_MONOTONIC``, Windows QPC, macOS ``mach_absolute_time``), so readings
taken inside process-pool workers are comparable with the parent's — which
is what lets worker-measured chunk spans land on the same timeline as the
parent's stage spans in a Chrome trace.
"""

from __future__ import annotations

import time


def now() -> float:
    """Seconds on the shared monotonic timeline (see module docstring)."""
    return time.perf_counter()
