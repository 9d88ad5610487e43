"""The pipeline execution engine.

:class:`PipelineRuntime` is the seam between the entity-group-matching
*logic* (blocking recipes, matchers, graph clean-up) and its *execution*
(batching, worker pools, run tracing).  The pipeline delegates its two
data-parallel stages here:

* **candidate generation** — a composite blocking is partitioned into its
  leaf blockings, and each leaf is split into ``workers`` record spans:
  the leaf's :meth:`~repro.blocking.base.Blocking.prepare` builds the
  shared state (inverted index, document frequencies) once in the parent,
  the per-span :meth:`~repro.blocking.base.Blocking.candidates_for` calls
  fan out over the pool, and the results merge parts-major / spans-minor —
  declaration order first, record order second — before one global
  de-duplication, so first blocking wins on duplicates exactly like
  :meth:`~repro.blocking.base.Blocking.candidate_pairs`,
* **pairwise inference** — one route for every matcher: the matcher's
  :meth:`~repro.matching.base.PairwiseMatcher.prepare_profiles` runs once
  here in the parent over the records the candidates reference, matcher +
  profiles ship to each worker out of band (the worker pool's epoch
  protocol, once per state revision), the candidates are chunked into
  ``batch_size`` bare id pairs, and every chunk goes through the matcher's
  :meth:`~repro.matching.base.PairwiseMatcher.score_profiled` — in-process
  under the serial engine, one pool task per chunk under the parallel
  engine.  Chunk tasks return float64 probability arrays; the engine
  concatenates them and hands back a lazy
  :class:`~repro.matching.decisions.DecisionVector`, so no per-pair
  decision object is built (or shipped) unless a consumer at the
  pipeline/API/CLI boundary actually indexes one.  Matchers without a
  vectorised phase 2 inherit the base-class defaults (an id → record
  mapping and ``predict_proba`` over the chunk's record pairs), so they
  ride the same route.

The runtime owns one persistent :class:`~repro.runtime.pool.WorkerPool`
(via its scheduler): spawned lazily on the first parallel stage, reused
across stage calls, pipeline runs and incremental batches, released by
:meth:`PipelineRuntime.close` (or the context-manager protocol) — after
which the next parallel call simply respawns it.

Determinism guarantee: chunk results are merged in submission order, every
matcher decision depends only on its own record pair, and the chunking — the
numeric batch shape a vectorised matcher sees — depends only on
``batch_size``, never on ``workers`` or the executor.  Runs that share a
``batch_size`` therefore produce identical decisions, edges and groups at
any worker count.  (Shape stability matters: BLAS reductions are not
bitwise-reproducible across matrix shapes, so re-batching can flip
borderline probabilities at the last ULP.)
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.blocking.base import Blocking, CandidatePair, dedupe_pairs
from repro.datagen.records import Dataset, Record
from repro.matching.base import IdPair, PairwiseMatcher
from repro.matching.decisions import DecisionVector
from repro.obs.sinks import JsonlSink
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.runtime.config import RuntimeConfig
from repro.runtime.scheduler import ChunkScheduler, chunked, even_spans


@dataclass(frozen=True)
class _MatchingPlan:
    """Per-run shared state of pairwise inference.

    The matcher and its prepared profiles ride to each process-pool worker
    once per revision via the epoch protocol, so chunk tasks only carry id
    pairs.
    """

    matcher: PairwiseMatcher
    profiles: Any


def _score_profiled_chunk(
    plan: _MatchingPlan, id_pairs: list[tuple[str, str]]
) -> np.ndarray:
    """Worker task: one chunk's probability vector, as a float64 array — no
    per-pair decision objects are built (or pickled back) anywhere in the
    fan-out."""
    return plan.matcher.score_profiled(plan.profiles, id_pairs)


@dataclass(frozen=True)
class _BlockingPlan:
    """Per-run shared state shipped to every blocking worker once.

    ``parts`` are the partitioned leaf blockings, ``states`` their prepared
    shared state and ``records`` the dataset's records.  Everything bulky
    rides here — shipped to process workers out of band (pickled once per
    epoch) — so the per-task payload is just a part index and a span.
    """

    parts: tuple[Blocking, ...]
    states: tuple[Any, ...]
    records: tuple[Record, ...]


@dataclass(frozen=True)
class _BlockingTask:
    """One pool task: a record-index span of one part."""

    part: int
    span: tuple[int, int]


def _blocking_task(plan: _BlockingPlan, task: _BlockingTask) -> list[CandidatePair]:
    """Worker task: candidates of one part over one record span."""
    start, stop = task.span
    return plan.parts[task.part].candidates_for(
        plan.states[task.part], plan.records[start:stop]
    )


@dataclass(frozen=True)
class _DeltaBlockingPlan:
    """Shared state of the per-record rescoring fan-out (delta ingestion).

    One part, its prepared shared index, and the records to rescore; tasks
    are index spans into ``records``.
    """

    part: Blocking
    state: Any
    records: tuple[Record, ...]


def _delta_blocking_task(
    plan: _DeltaBlockingPlan, span: tuple[int, int]
) -> tuple[list[tuple[CandidatePair, ...]], Any]:
    """Worker task: per-record owned candidate lists for one record span,
    with the blocking's notes on them.

    One :meth:`~repro.blocking.base.Blocking.rescore` call per span: each
    owned entry is exactly that record's slice of the serial emission
    stream — which is what lets the incremental matcher splice rescored
    records into a stored per-record candidate map — and a blocking that
    scores set-at-a-time (token overlap) pays its per-call set-up once per
    span rather than once per record.  The notes come out of the same
    scoring pass.
    """
    start, stop = span
    return plan.part.rescore(plan.state, plan.records[start:stop])


def _owned_candidate_count(result: tuple[list[tuple[CandidatePair, ...]], Any]) -> int:
    """Candidates across one delta-blocking span's per-record owned lists."""
    return sum(len(pairs) for pairs in result[0])


class PipelineRuntime:
    """Executes the data-parallel pipeline stages under a runtime config.

    The runtime also owns the run's observability: ``recorder`` (or, when
    omitted, ``config.trace`` → a JSONL-streaming
    :class:`~repro.obs.trace.TraceRecorder`; no trace configured → the
    shared no-op) is threaded through the scheduler and pool, and
    :meth:`run_recorder` hands each run the recorder its stage and chunk
    spans — and so its timings — land on.  Recording never steers
    execution — traced and untraced runs produce byte-identical outputs.
    """

    def __init__(
        self, config: RuntimeConfig | None = None, recorder: Any = None
    ) -> None:
        self.config = config or RuntimeConfig()
        if recorder is not None:
            self.recorder = recorder
        elif self.config.trace is not None:
            self.recorder = TraceRecorder(sink=JsonlSink(self.config.trace))
        else:
            self.recorder = NULL_RECORDER
        self.scheduler = ChunkScheduler(self.config, recorder=self.recorder)

    # -- lifecycle ----------------------------------------------------------

    def run_recorder(self) -> Any:
        """The recorder one pipeline run or ingest batch records on.

        This runtime's own recorder when it traces, so the run's spans land
        in the trace; otherwise a fresh in-memory
        :class:`~repro.obs.trace.TraceRecorder` dropped with the run.
        Either way the run's timings are read off its spans
        (:func:`~repro.obs.trace.stage_timings`).
        """
        return self.recorder if self.recorder.enabled else TraceRecorder()

    def close(self) -> None:
        """Release the persistent worker pool and its published payloads,
        and finalise the trace (the recorder streams its metrics record and
        releases the sink).

        Idempotent and non-terminal: the next parallel stage call lazily
        respawns a fresh pool.  Serial runtimes never spawn a pool, so this
        is a no-op for them.
        """
        self.scheduler.close()
        self.recorder.finish()

    def __enter__(self) -> "PipelineRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def pool_stats(self) -> dict[str, int] | None:
        """Snapshot of the worker pool's cost counters (``None`` if no pool).

        Exposes spawn/publish/fetch counts so benchmarks and tests can
        prove that pools spawn once and payloads ship once per revision.
        """
        pool = self.scheduler.pool
        return None if pool is None else pool.stats.snapshot()

    # -- candidate generation ----------------------------------------------

    def run_blocking(
        self,
        blocking: Blocking,
        dataset: Dataset,
        recorder: Any = NULL_RECORDER,
    ) -> list[CandidatePair]:
        """Generate candidate pairs, fanning out parts and record spans.

        The task list is built parts-major, spans-minor: the blocking is
        partitioned into its leaf parts (declaration order), each part's
        :meth:`~repro.blocking.base.Blocking.prepare` runs once here in the
        parent, and each part is split into ``workers`` consecutive record
        spans that only score.  All tasks go through one scheduler call (one
        pool), results merge in submission order, and a single global
        de-duplication keeps the first occurrence — which reproduces
        :meth:`~repro.blocking.base.Blocking.candidate_pairs` bit for bit,
        including first-blocking-wins tags, at any worker count.
        """
        parts = blocking.partition()
        plan = _BlockingPlan(
            parts=tuple(parts),
            states=tuple(part.prepare(dataset) for part in parts),
            records=tuple(dataset.records),
        )
        spans = even_spans(len(dataset), self.config.workers)
        per_task = self.scheduler.map_chunks(
            _blocking_task,
            [_BlockingTask(index, span) for index in range(len(parts)) for span in spans],
            stage="blocking",
            recorder=recorder,
            shared=plan,
            items=len,  # candidates emitted per task -> candidates/s chunks
        )
        merged: list[CandidatePair] = []
        for pairs in per_task:
            merged.extend(pairs)
        return dedupe_pairs(merged)

    def run_blocking_delta(
        self,
        part: Blocking,
        shared: Any,
        records: Sequence[Record],
        recorder: Any = NULL_RECORDER,
    ) -> tuple[list[tuple[CandidatePair, ...]], list[Any]]:
        """Rescore individual records against a prepared shared index.

        The incremental-ingestion counterpart of :meth:`run_blocking`: given
        one part and its up-to-date shared state, return each record's owned
        candidate pairs — one tuple per record, aligned with ``records`` —
        and the part's notes, one per span, for
        :meth:`~repro.blocking.base.Blocking.note_rescored`.
        The records split into ``workers`` spans that fan out over the pool
        exactly like candidate generation (shared state shipped out of
        band); each task makes one
        :meth:`~repro.blocking.base.Blocking.rescore` call, so
        per-record outputs come back already split and the parent can
        splice them into a persistent record → candidates map.
        """
        if not records:
            return [], []
        plan = _DeltaBlockingPlan(
            part=part, state=shared, records=tuple(records)
        )
        spans = even_spans(len(records), self.config.workers)
        per_span = self.scheduler.map_chunks(
            _delta_blocking_task,
            spans,
            stage="blocking_delta",
            recorder=recorder,
            shared=plan,
            items=_owned_candidate_count,
        )
        merged: list[tuple[CandidatePair, ...]] = []
        notes: list[Any] = []
        for owned, note in per_span:
            merged.extend(owned)
            notes.append(note)
        return merged, notes

    # -- pairwise inference -------------------------------------------------

    def run_matching(
        self,
        matcher: PairwiseMatcher,
        dataset: Dataset,
        candidates: Sequence[CandidatePair],
        recorder: Any = NULL_RECORDER,
        profiles: Any = None,
        id_pairs: Sequence[IdPair] | None = None,
    ) -> DecisionVector:
        """Predict Match / NoMatch for every candidate, in candidate order.

        The matcher prepares its per-record profiles once, matcher +
        profiles ship to each worker out of band, and the scheduler runs one
        :meth:`~repro.matching.base.PairwiseMatcher.score_profiled` call per
        ``batch_size`` chunk of id pairs (in-process when serial, pooled
        when parallel).  The matcher entry point, the call granularity and
        the numeric batch shapes are therefore identical at any worker
        count — which is what keeps serial and parallel decisions
        bit-identical — and ``recorder`` gets one chunk span per batch,
        with its pair count.  The per-chunk float64 arrays are concatenated and returned
        as a lazy :class:`~repro.matching.decisions.DecisionVector`, equal
        element for element to ``matcher.decide`` on the record pairs.

        ``profiles`` (optional) short-circuits the preparation step with an
        already-built store — the experiment's corpus store from
        fine-tuning rides through here, and so does the incremental
        matcher's persistent :class:`~repro.matching.profiles.ProfileStore`,
        so each delta reuses every prior profile.  It must cover every record
        the candidates reference; output is byte-identical to in-run
        preparation because profiles are pure per-record derivations.

        ``id_pairs`` (optional) short-circuits the id-pair extraction with a
        precomputed ``(left_id, right_id)`` list aligned with
        ``candidates`` — callers that already hold bare id pairs
        (incremental ingest) skip the per-candidate Python loop here.
        """
        if id_pairs is None:
            id_pairs = [
                (candidate.left_id, candidate.right_id) for candidate in candidates
            ]
        elif len(id_pairs) != len(candidates):
            raise ValueError(
                f"id_pairs must align with candidates: got {len(id_pairs)} "
                f"pairs for {len(candidates)} candidates"
            )
        if not candidates:
            return DecisionVector(
                pairs=[], probabilities=np.zeros(0), threshold=matcher.threshold
            )
        if profiles is None:
            # Profile only the records the candidates reference: on a sparse
            # candidate set (narrow blocking over a huge dataset) profiling
            # the whole dataset would cost more than it saves.
            referenced: dict[str, None] = {}
            for left_id, right_id in id_pairs:
                referenced.setdefault(left_id)
                referenced.setdefault(right_id)
            profiles = matcher.prepare_profiles(
                dataset.record(record_id) for record_id in referenced
            )
        scored = self.scheduler.map_chunks(
            _score_profiled_chunk,
            chunked(id_pairs, self.config.batch_size),
            stage="pairwise_matching",
            recorder=recorder,
            shared=_MatchingPlan(matcher=matcher, profiles=profiles),
            # Epoch identity: the same matcher + the same store at the same
            # revision means the already-published plan is current, so
            # consecutive calls (incremental batches reusing the persistent
            # store) skip re-pickling it.  Profiles without a revision
            # counter get a fresh sentinel per call — always republished,
            # never stale.
            shared_anchors=(matcher, profiles),
            shared_version=getattr(profiles, "revision", object()),
            items=len,
        )
        # Concatenating the per-chunk vectors copies values bitwise.
        return DecisionVector(
            pairs=id_pairs,
            probabilities=scored[0] if len(scored) == 1 else np.concatenate(scored),
            threshold=matcher.threshold,
        )
