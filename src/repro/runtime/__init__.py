"""Batched, optionally parallel execution engine for the matching pipeline.

The runtime separates *what* the pipeline computes from *how* it is
executed.  :class:`RuntimeConfig` selects the worker count, chunk size and
pool flavour; :class:`PipelineRuntime` executes the data-parallel stages
(candidate generation, pairwise inference); :class:`ChunkScheduler` is the
underlying order-preserving fan-out primitive.

Observability lives in :mod:`repro.obs`; the runtime is its producer:
``RuntimeConfig.trace`` (or an explicit recorder handed to
:class:`PipelineRuntime`) threads a trace recorder through the scheduler
and pool.  Every run records its stage and chunk spans — on that recorder
when tracing, on a throwaway one otherwise — and its timings are read off
those spans (:func:`repro.obs.stage_timings`).

Serial and parallel execution are guaranteed to produce identical results —
the regression suite pins this on a golden dataset — and tracing never
changes outputs either.
"""

from repro.runtime.config import EXECUTOR_KINDS, RuntimeConfig
from repro.runtime.engine import PipelineRuntime
from repro.runtime.pool import PoolStats, WorkerPool
from repro.runtime.scheduler import ChunkScheduler, chunked, even_spans

__all__ = [
    "EXECUTOR_KINDS",
    "RuntimeConfig",
    "PipelineRuntime",
    "PoolStats",
    "ChunkScheduler",
    "WorkerPool",
    "chunked",
    "even_spans",
]
