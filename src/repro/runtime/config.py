"""Configuration of the batched pipeline execution engine.

The runtime splits the data-parallel pipeline stages (candidate generation
and pairwise inference) into chunks and fans them out over a
:mod:`concurrent.futures` worker pool.  The settings:

* ``workers`` bounds the parallelism; candidate generation splits each
  blocking into this many record spans (shared index built once, per-span
  scoring fanned out), so a single blocking scales beyond one core,
* ``batch_size`` bounds the per-task granularity of pairwise inference —
  large enough to amortize scheduling (and, for process pools, pickling)
  overhead, small enough to keep all workers busy and the per-chunk timings
  informative,
* ``trace`` streams a structured run trace (spans + metrics) to a file.

There is one execution route per stage and no route-selecting knob: every
setting here changes where or how fast work runs, never its result.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Executor kinds accepted by :class:`RuntimeConfig`.
EXECUTOR_KINDS = ("thread", "process")


@dataclass(frozen=True)
class RuntimeConfig:
    """How the pipeline's data-parallel stages are executed.

    The default configuration (one worker) is the fully serial engine; it
    batches pairwise inference but never spawns a pool, so library users pay
    nothing for the parallel machinery unless they opt in.
    """

    #: Number of worker slots; 1 means serial execution (no pool).  Also
    #: the number of record spans each blocking is scored in: the shared
    #: index is global and the spans merge in record order, so the
    #: candidates are byte-identical at any worker count.
    workers: int = 1
    #: Candidate pairs per inference chunk.
    batch_size: int = 2048
    #: Pool flavour used when ``workers > 1``: "process" achieves real
    #: CPU parallelism for pure-Python matchers (the GIL serialises
    #: "thread"), while "thread" avoids pickling and suits matchers that
    #: release the GIL (numpy-heavy forward passes) or do I/O.
    executor: str = "process"
    #: Stream a structured run trace (spans + metrics, JSON Lines) to this
    #: path; ``None`` (the default) installs the no-op recorder and the
    #: engine does no observability work at all.  Like every other knob,
    #: tracing only *observes*: outputs are byte-identical with tracing on
    #: or off.  Read the file back with ``repro report``.
    trace: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be a positive integer, got {self.workers}")
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be a positive integer, got {self.batch_size}"
            )
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_KINDS}, got {self.executor!r}"
            )
        if self.trace is not None and not isinstance(self.trace, str):
            raise ValueError(
                f"trace must be a path string or None, got {self.trace!r}"
            )

    @property
    def is_parallel(self) -> bool:
        return self.workers > 1

    @classmethod
    def serial(cls, batch_size: int = 2048) -> "RuntimeConfig":
        """The serial engine (explicit spelling of the default)."""
        return cls(workers=1, batch_size=batch_size)
