"""Delta ingestion with a batch-equivalence guarantee.

:class:`IncrementalMatcher` absorbs new records into a persistent
:class:`~repro.incremental.state.MatchState` at a cost proportional to the
delta (for the expensive stages), while producing **exactly** the groups a
one-shot batch pipeline run over the full corpus would produce.  The
guarantee is structural, not statistical — every saving is a cache keyed on
the exact inputs of a deterministic function:

* **blocking** — each part folds the new records into its shared index
  (contract: the result equals ``prepare(full)``) and names the
  pre-existing *dirty* records whose per-record candidate emission may
  have changed; only those and the new records are rescored.  Each part
  counts how many stored owned lists emit each canonical key, so swapping
  a rescored record's old list for its new one yields exactly the keys
  that joined, left or changed tag.  A key's tag is that of the first part
  in ``partition()`` order that emits it — the batch engine's first-wins
  dedupe.
  Each rescoring returns the part's notes with the owned lists, and
  ``note_rescored`` folds them into the part state for the next delta.
  (Token overlap's global IDF moves every weight whenever a tokenised
  record arrives, so its notes are a top-n memo: each record's top
  candidates and a ceiling on the rest.  It dirties only the records whose
  top n can change, and every tokenised record when the memo is missing.
  Identifier- and issuer-based parts dirty only true neighbours, and a part
  without its own ``delta_update`` rebuilds and dirties every record.)
* **matching** — decisions are pair-local, so the decision cache is reused
  for every pair already scored; only keys new to the candidate set go
  through the engine's (profiled, batched, pooled) inference path, in the
  order the batch run's candidate stream first emits them.
* **graphs** — a :class:`~repro.incremental.graph.PositiveGraph` keeps the
  positive keys, their components and, per component, the pre-cleanup
  removals and the memoised clean-up of each kept component.  Only the
  components holding an endpoint of a positive key that joined, left or
  changed tag are recomputed; the rest splice through without a
  graph-algorithm call.  Component locality of the clean-up strategies
  makes this exactly equal to a global clean-up (see ``component_local``
  in :mod:`repro.core.cleanup`); a strategy without the marker re-runs the
  whole-graph stages every ingest over the assembled candidate stream.

The counts and the graph are derived, so a saved state does not hold
them: the first ingest of an opened matcher builds them by feeding every
stored owned list through the same update a batch uses.

One caveat is inherited from the engine's determinism notes: incremental
ingestion scores a pair in a different numeric batch shape than the batch
run does.  For the built-in matchers the per-pair arithmetic is row-local
(element-wise scaling + a per-row dot product), so probabilities are
bitwise identical anyway — the golden incremental suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Sequence

from repro.blocking.base import Blocking, CandidatePair, dedupe_pairs
from repro.core.cleanup import CleanupConfig, CleanupReport
from repro.core.groups import EntityGroups
from repro.core.precleanup import PreCleanupConfig
from repro.core.stages import apply_pre_cleanup, groups_from_components
from repro.datagen.records import Dataset, Record
from repro.graphs.graph import Edge, canonical_edge
from repro.graphs.union_find import union_find_components
from repro.incremental.graph import PositiveGraph
from repro.incremental.state import MatchState, OwnedPair
from repro.matching.base import IdPair, PairwiseMatcher
from repro.obs import TraceRecorder, stage_timings
from repro.registry import CLEANUPS
from repro.runtime import PipelineRuntime, RuntimeConfig


@dataclass
class IngestReport:
    """What one :meth:`IncrementalMatcher.ingest` call did (and reused)."""

    #: Records added by this ingest / total corpus size afterwards.
    num_new_records: int = 0
    num_records: int = 0
    #: Current candidate set size (after re-assembly + global dedupe).
    num_candidates: int = 0
    #: Pairs actually scored this ingest vs. served from the decision cache.
    pairs_scored: int = 0
    pairs_reused: int = 0
    #: Per-record blocking rescores summed over parts (new + dirty records).
    records_rescored: int = 0
    #: Positive edges after matching / kept after pre-cleanup.
    num_positive: int = 0
    num_kept: int = 0
    #: Connected components of the kept graph, and how many were cleaned
    #: this ingest (memo misses) or served from the memo.
    components_total: int = 0
    components_recleaned: int = 0
    components_reused: int = 0
    #: Per-stage and per-chunk seconds, read off the ingest's run span.
    timings: dict[str, float] = field(default_factory=dict)


def _component_cleanup(
    cleanup_fn, edges: list[Edge], config: CleanupConfig
) -> tuple[list[set[str]], CleanupReport]:
    """Run one component's clean-up.

    Module-level on purpose: the golden suite monkeypatches this to count
    clean-up invocations and prove that untouched components are skipped.
    """
    return cleanup_fn(edges, config)


class CandidateCounts:
    """How often each part's stored owned lists emit each canonical key, and
    the candidate set they add up to, with each key's tag.

    A key is a candidate while any part emits it, tagged by the first part
    in ``partition()`` order that does: the batch engine's first-wins
    dedupe over its parts-major stream.
    """

    def __init__(self, num_parts: int) -> None:
        #: Per part: key -> (its emissions in the part's stored lists, their tag).
        self.emitted: list[dict[Edge, tuple[int, str]]] = [
            {} for _ in range(num_parts)
        ]
        #: Current candidate key -> its tag.
        self.tags: dict[Edge, str] = {}

    def replace(
        self,
        part: int,
        old: Sequence[OwnedPair],
        new: Sequence[OwnedPair],
        touched: dict[Edge, None],
        first: dict[Edge, OwnedPair],
    ) -> None:
        """Swap one record's owned list in ``part`` from ``old`` to ``new``.

        Every key either list holds is added to ``touched``; ``first``
        keeps each key's first emission among the new lists fed so far.
        """
        emitted = self.emitted[part]
        for left, right, _ in old:
            key = canonical_edge(left, right)
            count, tag = emitted[key]
            if count == 1:
                del emitted[key]
            else:
                emitted[key] = (count - 1, tag)
            touched[key] = None
        for entry in new:
            key = canonical_edge(entry[0], entry[1])
            held = emitted.get(key)
            emitted[key] = (1, entry[2]) if held is None else (held[0] + 1, held[1])
            touched[key] = None
            first.setdefault(key, entry)

    def settle(self, touched: Iterable[Edge]) -> list[tuple[Edge, str | None]]:
        """Bring the tags of ``touched`` keys up to date; return each key
        that joined or changed tag with its tag, and each that left with
        ``None``."""
        changes: list[tuple[Edge, str | None]] = []
        tags = self.tags
        for key in touched:
            tag = None
            for emitted in self.emitted:
                held = emitted.get(key)
                if held is not None:
                    tag = held[1]
                    break
            if tag != tags.get(key):
                if tag is None:
                    del tags[key]
                else:
                    tags[key] = tag
                changes.append((key, tag))
        return changes


class IncrementalMatcher:
    """Ingests record deltas into a persistent, queryable match state."""

    def __init__(
        self,
        state: MatchState,
        runtime: PipelineRuntime | RuntimeConfig | None = None,
    ) -> None:
        self.state = state
        if runtime is None:
            runtime = PipelineRuntime(state.runtime_config)
        elif isinstance(runtime, RuntimeConfig):
            runtime = PipelineRuntime(runtime)
        self.runtime = runtime
        #: Directory this state was loaded from / last saved to (if any).
        self.state_dir: Path | None = None
        #: Set when an ingest died after it started mutating the state: the
        #: in-memory state may mix pre- and post-delta pieces and must not
        #: be ingested into or saved — reload from the last saved state.
        self._poisoned: str | None = None
        self._parts = state.parts()
        if not state.part_states:
            state.part_states = [None] * len(self._parts)
            state.owned_pairs = [{} for _ in self._parts]
        self._dataset = state.dataset()
        self.last_report: IngestReport | None = None
        # Derived from the stored owned lists by the first ingest (see the
        # module docstring); never saved.
        self._position: dict[str, int] | None = None
        self._counts: CandidateCounts | None = None
        self._graph: PositiveGraph | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def create(
        cls,
        matcher: PairwiseMatcher,
        blocking: Blocking,
        *,
        cleanup_config: CleanupConfig | None = None,
        pre_cleanup_config: PreCleanupConfig | None = None,
        cleanup_strategy: str = "gralmatch",
        runtime: PipelineRuntime | RuntimeConfig | None = None,
        name: str = "incremental",
    ) -> "IncrementalMatcher":
        """A fresh, empty state around fitted/configured components."""
        runtime_config = RuntimeConfig()
        if isinstance(runtime, RuntimeConfig):
            runtime_config = runtime
        elif isinstance(runtime, PipelineRuntime):
            runtime_config = runtime.config
        state = MatchState(
            name=name,
            matcher=matcher,
            blocking=blocking,
            cleanup_config=cleanup_config or CleanupConfig(),
            pre_cleanup_config=pre_cleanup_config or PreCleanupConfig(),
            cleanup_strategy=cleanup_strategy,
            runtime_config=runtime_config,
        )
        return cls(state, runtime=runtime)

    @classmethod
    def from_pipeline(cls, pipeline, name: str = "incremental") -> "IncrementalMatcher":
        """Adopt the components of an assembled
        :class:`~repro.core.pipeline.EntityGroupMatchingPipeline`.

        Only the pipeline's *components* carry over (matcher, blocking,
        clean-up configs, strategy, runtime); custom stage lists do not —
        ingestion always computes the Figure 1 stage semantics.
        """
        return cls.create(
            matcher=pipeline.matcher,
            blocking=pipeline.blocking,
            cleanup_config=pipeline.cleanup_config,
            pre_cleanup_config=pipeline.pre_cleanup_config,
            cleanup_strategy=pipeline.cleanup_strategy,
            runtime=pipeline.runtime,
            name=name,
        )

    @classmethod
    def load(
        cls,
        state_dir: str | Path,
        runtime: PipelineRuntime | RuntimeConfig | None = None,
    ) -> "IncrementalMatcher":
        """Open a saved state directory; ``runtime`` overrides the stored
        engine settings (results are engine-independent)."""
        matcher = cls(MatchState.load(state_dir), runtime=runtime)
        matcher.state_dir = Path(state_dir)
        return matcher

    def save(self, state_dir: str | Path | None = None) -> Path:
        """Persist the state (defaults to where it was loaded from)."""
        self._check_poisoned()
        target = state_dir if state_dir is not None else self.state_dir
        if target is None:
            raise ValueError(
                "no state directory: pass state_dir (the state was never "
                "saved or loaded)"
            )
        self.state_dir = self.state.save(target)
        return self.state_dir

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the runtime's persistent worker pool.

        The pool (and the shipped profile store) stays live *between*
        :meth:`ingest` batches on purpose — that is what makes multi-batch
        ingestion fast — so call this when done ingesting, or use the matcher as
        a context manager.  The matcher stays usable afterwards; the next
        parallel ingest respawns the pool.
        """
        self.runtime.close()

    def __enter__(self) -> "IncrementalMatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- results -------------------------------------------------------------

    @property
    def groups(self) -> EntityGroups:
        """The current entity groups (empty before the first ingest)."""
        if self.state.groups is None:
            return EntityGroups([])
        return self.state.groups

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    def candidates(self) -> list[CandidatePair]:
        """The current candidate set, in exact batch-engine order, assembled
        from the stored owned lists on each call."""
        return self._assemble_candidates()

    def decisions(self):
        """All current decisions, in candidate order (batch-identical).

        Returns a lazy :class:`~repro.matching.decisions.DecisionVector`
        gathered from the array-backed cache — element-wise equal to the
        batch pipeline's decision list.
        """
        return self.state.decisions.vector(
            [candidate.key for candidate in self._assemble_candidates()]
        )

    # -- ingestion -----------------------------------------------------------

    def ingest(self, new_records: Iterable[Record]) -> IngestReport:
        """Absorb ``new_records`` and bring the groups up to date.

        Equivalence contract (pinned by ``tests/incremental/``): after
        ingesting batches B1..Bn in order, the state's candidates,
        decisions, and final groups are byte-identical to one
        :class:`~repro.core.pipeline.EntityGroupMatchingPipeline` run over
        the concatenated dataset B1+..+Bn.

        Not exception-safe by design: the state mutates in stages, so an
        ingest that dies midway (worker pool failure, interrupt) leaves the
        in-memory state inconsistent — it is *poisoned* and every further
        :meth:`ingest`/:meth:`save` raises, directing the caller to reload
        from the last on-disk save (which the failed ingest never touched).
        Validation failures (duplicate ids) happen before any mutation and
        do not poison.
        """
        self._check_poisoned()
        recorder = self.runtime.run_recorder()
        report = IngestReport()
        batch = list(new_records)
        self._validate_new(batch)
        try:
            with recorder.span("ingest", kind="run", new_records=len(batch)) as run:
                self._ingest(batch, recorder, report)
                run.attributes.update(
                    records_rescored=report.records_rescored,
                    pairs_scored=report.pairs_scored,
                    pairs_reused=report.pairs_reused,
                    components_recleaned=report.components_recleaned,
                    components_reused=report.components_reused,
                )
        except Exception as error:
            self._poisoned = f"ingest failed mid-update: {error!r}"
            raise
        report.timings = stage_timings(run)
        self.last_report = report
        return report

    def _ingest(
        self, batch: list[Record], recorder: TraceRecorder, report: IngestReport
    ) -> None:
        state = self.state
        if self._position is None:
            self._position = {
                record.record_id: index for index, record in enumerate(state.records)
            }
        for record in batch:
            self._dataset.add_record(record)
            self._position[record.record_id] = len(state.records)
            state.records.append(record)
        report.num_new_records = len(batch)
        report.num_records = len(state.records)

        with recorder.span("blocking", kind="stage"):
            changes, fresh = self._update_candidates(batch, recorder, report)
        state.num_candidates = len(self._counts.tags)
        report.num_candidates = state.num_candidates

        with recorder.span("pairwise_matching", kind="stage"):
            self._score(fresh, recorder, report)

        cleanup_fn = CLEANUPS.get(state.cleanup_strategy)
        if getattr(cleanup_fn, "component_local", False):
            self._update_graph(changes, cleanup_fn, recorder, report)
        else:
            self._recompute_graph(cleanup_fn, recorder, report)

        state.num_ingests += 1
        # The ingest deltas, as whole-run counters: what this batch added,
        # what it rescored, and what the decision cache and clean-up memo
        # served without recomputation.
        metrics = recorder.metrics
        metrics.add("ingest.new_records", report.num_new_records)
        metrics.add("ingest.records_rescored", report.records_rescored)
        metrics.add("decision_cache.hits", report.pairs_reused)
        metrics.add("decision_cache.misses", report.pairs_scored)
        metrics.add("cleanup_memo.hits", report.components_reused)
        metrics.add("cleanup_memo.misses", report.components_recleaned)
        metrics.gauge("ingest.num_records", report.num_records)
        metrics.gauge("ingest.num_candidates", report.num_candidates)

    # -- internals -----------------------------------------------------------

    def _check_poisoned(self) -> None:
        if self._poisoned is not None:
            raise RuntimeError(
                "this matcher's in-memory state is inconsistent (an ingest "
                f"died after it started mutating: {self._poisoned}); reload "
                "the last saved state with IncrementalMatcher.load()"
            )

    def _validate_new(self, batch: Sequence[Record]) -> None:
        seen: set[str] = set()
        clashes: list[str] = []
        for record in batch:
            record_id = record.record_id
            if record_id in seen or record_id in self._dataset:
                clashes.append(record_id)
            seen.add(record_id)
        if clashes:
            raise ValueError(
                f"cannot ingest duplicate record ids: {sorted(set(clashes))}"
            )

    def _update_candidates(
        self,
        batch: Sequence[Record],
        recorder: TraceRecorder,
        report: IngestReport,
    ) -> tuple[list[tuple[Edge, str | None]], list[OwnedPair]]:
        """Delta-update every part's index, rescore dirty + new records, and
        swap their owned lists into the candidate counts.

        Returns the candidate keys that joined, left or changed tag, and
        the first emission of each key without a cached decision, in the
        batch engine's stream order (parts-major, then dataset order).  A
        key without a decision joined this batch, so only rescored records
        emit it, and their first emission is the stream's.  The first ingest
        of this matcher feeds every record's list into empty counts.
        """
        state = self.state
        dataset = self._dataset
        building = self._counts is None
        if building:
            self._counts = CandidateCounts(len(self._parts))
        counts = self._counts
        position = self._position
        new_ids = [record.record_id for record in batch]
        touched: dict[Edge, None] = {}
        first: dict[Edge, OwnedPair] = {}
        for index, part in enumerate(self._parts):
            shared = state.part_states[index]
            owned = state.owned_pairs[index]
            rescore_records: list[Record] = []
            previous: dict[str, tuple[OwnedPair, ...]] = {}
            if shared is None or batch:
                if shared is None:
                    # First ingest: prepare globally and rescore everything.
                    shared = part.prepare(dataset)
                    rescore_records = list(state.records)
                else:
                    delta = part.delta_update(shared, dataset, batch)
                    shared = delta.shared
                    rescore_ids = set(delta.dirty_record_ids)
                    rescore_ids.update(new_ids)
                    rescore_records = [
                        state.records[at]
                        for at in sorted(position[record_id] for record_id in rescore_ids)
                    ]
                owned_lists, notes = self.runtime.run_blocking_delta(
                    part, shared, rescore_records, recorder
                )
                state.part_states[index] = part.note_rescored(shared, notes)
                for record, pairs in zip(rescore_records, owned_lists):
                    record_id = record.record_id
                    previous[record_id] = owned.get(record_id, ())
                    owned[record_id] = tuple(
                        (pair.left_id, pair.right_id, pair.blocking) for pair in pairs
                    )
                report.records_rescored += len(rescore_records)
            for record in state.records if building else rescore_records:
                record_id = record.record_id
                counts.replace(
                    index,
                    () if building else previous[record_id],
                    owned.get(record_id, ()),
                    touched,
                    first,
                )
        cache = state.decisions
        return counts.settle(touched), [first[key] for key in first if key not in cache]

    def _assemble_candidates(self) -> list[CandidatePair]:
        """Concatenate the stored per-record owned lists into the candidate
        stream — parts-major, dataset order within each part, one global
        first-wins dedupe — exactly the batch engine's merge."""
        state = self.state
        merged: list[CandidatePair] = []
        for owned in state.owned_pairs:
            for record in state.records:
                merged.extend(
                    CandidatePair(*entry) for entry in owned.get(record.record_id, ())
                )
        return dedupe_pairs(merged)

    def _score(
        self,
        fresh: Sequence[OwnedPair],
        recorder: TraceRecorder,
        report: IngestReport,
    ) -> None:
        """Score the candidates without a cached decision into the cache."""
        state = self.state
        report.pairs_scored = len(fresh)
        report.pairs_reused = state.num_candidates - len(fresh)
        if not fresh:
            return
        id_pairs = [(left, right) for left, right, _ in fresh]
        scored = self.runtime.run_matching(
            state.matcher,
            self._dataset,
            [CandidatePair(*entry) for entry in fresh],
            recorder,
            profiles=self._extend_profiles(id_pairs),
            id_pairs=id_pairs,
        )
        # The scored DecisionVector's arrays are adopted directly — no
        # decision objects are built on either side.
        state.decisions.extend(
            [canonical_edge(left, right) for left, right in id_pairs], scored
        )

    def _extend_profiles(self, id_pairs: Sequence[IdPair]):
        """Grow the persistent profile store to cover the pairs to score.

        Returns the profiles to pass to the engine.  Profiles that cannot
        append (no ``add_records`` — e.g. the base matcher's id → record
        mapping) are not persisted; each call prepares them afresh for the
        records it references.
        """
        state = self.state
        referenced: dict[str, None] = {}
        for left_id, right_id in id_pairs:
            referenced.setdefault(left_id)
            referenced.setdefault(right_id)
        needed = [self._dataset.record(record_id) for record_id in referenced]
        if state.profiles is None:
            prepared = state.matcher.prepare_profiles(needed)
            if hasattr(prepared, "add_records"):
                state.profiles = prepared
            return prepared
        state.profiles.add_records(needed)
        return state.profiles

    def _update_graph(
        self,
        changes: Sequence[tuple[Edge, str | None]],
        cleanup_fn,
        recorder: TraceRecorder,
        report: IngestReport,
    ) -> None:
        """Recompute only the components a positive key change touches."""
        state = self.state
        cache = state.decisions
        with recorder.span("pre_cleanup", kind="stage"):
            # A key's verdict never changes, so a positive key changes
            # exactly when a candidate with a positive verdict does; the
            # pre-cleanup rule runs per recomputed component below.
            positive = [(key, tag) for key, tag in changes if cache.is_match(key)]
        graph = self._graph
        if graph is None:
            config = state.cleanup_config
            graph = self._graph = PositiveGraph(
                state.pre_cleanup_config,
                lambda edges: _component_cleanup(cleanup_fn, edges, config),
                inherited_memo=state.cleanup_memo,
            )
        with recorder.span("graph_cleanup", kind="stage"):
            report.components_recleaned = graph.update(positive)
            state.cleanup_memo = graph.memo
            state.cleanup_report = graph.cleanup_report()
            state.pre_cleanup_removed = set(graph.pre_cleanup_removed)
        report.num_positive = len(graph.tags)
        report.num_kept = report.num_positive - len(graph.pre_cleanup_removed)
        report.components_total = graph.num_kept_components
        report.components_reused = report.components_total - report.components_recleaned

        with recorder.span("grouping", kind="stage"):
            state.groups, state.pre_cleanup_groups = graph.groups(
                [record.record_id for record in state.records]
            )

    def _recompute_graph(
        self, cleanup_fn, recorder: TraceRecorder, report: IngestReport
    ) -> None:
        """The whole-graph stages over the assembled candidate stream, for a
        strategy without the ``component_local`` marker (no memo)."""
        state = self.state
        with recorder.span("pre_cleanup", kind="stage"):
            candidates = self._assemble_candidates()
            decisions = state.decisions.vector([candidate.key for candidate in candidates])
            positive_edges, _, kept, removed = apply_pre_cleanup(
                decisions, candidates, state.pre_cleanup_config
            )
            state.pre_cleanup_removed = removed
        report.num_positive = len(positive_edges)
        report.num_kept = len(kept)

        with recorder.span("graph_cleanup", kind="stage"):
            state.cleanup_memo = {}
            if kept:
                components, state.cleanup_report = cleanup_fn(
                    list(kept), state.cleanup_config
                )
                report.components_total = len(union_find_components(kept))
            else:
                components, state.cleanup_report = [], CleanupReport()
            report.components_recleaned = report.components_total

        with recorder.span("grouping", kind="stage"):
            state.groups, state.pre_cleanup_groups = groups_from_components(
                components, [record.record_id for record in state.records], positive_edges
            )
