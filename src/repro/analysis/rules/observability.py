"""Clock-discipline rule for the observability layer.

All engine timing flows through :mod:`repro.obs.clock` (a single seam over
``time.perf_counter``) so every measured interval lands on the same
monotonic timeline as the trace recorder's spans — including chunk timings
measured inside worker processes.  A stray ``time.perf_counter()`` /
``time.monotonic()`` call produces numbers that silently bypass the trace:
the run "works" but its spans are incomplete, which is exactly the kind of
drift a docstring cannot prevent.

``repro.obs`` itself — the clock seam — is the one blessed call site; run
timings are read off the trace's spans.  Everything else — library code,
tests, benchmark scripts — must either go through
:func:`repro.obs.clock.now` or carry a justified suppression (benchmark
scripts that measure wall clock *as their artefact* are the expected
suppression case).
"""

from __future__ import annotations

import ast

from repro.analysis.engine import LintRule
from repro.analysis.registry import register_rule
from repro.analysis.rules import dotted_name

#: Raw clock calls that bypass the ``repro.obs.clock`` seam.
_RAW_CLOCK_CALLS = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
    }
)


@register_rule("obs-clock-discipline")
class ObsClockDisciplineRule(LintRule):
    """Timing goes through repro.obs.clock so traces stay complete."""

    name = "obs-clock-discipline"
    description = (
        "direct time.perf_counter()/time.monotonic() calls bypass the "
        "repro.obs.clock seam — intervals measured there never reach the "
        "trace; use clock.now() (or suppress with a justification where "
        "wall clock itself is the artefact)"
    )
    packages = None  # every module: the trace is only as complete as its inputs
    exclude_packages = ("repro.obs",)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted in _RAW_CLOCK_CALLS:
            self.report(
                node,
                f"{dotted}() bypasses repro.obs.clock — timing measured "
                "here never reaches the trace; use clock.now() instead",
            )
