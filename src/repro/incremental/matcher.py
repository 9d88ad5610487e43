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
  have changed; only those and the new records are rescored, and the full
  candidate stream is re-assembled from per-record owned lists in exactly
  the batch engine's parts-major / record-order / global-dedupe order.
  Each rescoring returns the part's notes with the owned lists, and
  ``note_rescored`` folds them into the part state for the next delta.
  (Token overlap's global IDF moves every weight whenever a tokenised
  record arrives, so its notes are a top-n memo: each record's top
  candidates and a ceiling on the rest.  It dirties only the records whose
  top n can change, and every tokenised record when the memo is missing.
  Identifier- and issuer-based parts dirty only true neighbours, and a part
  without its own ``delta_update`` rebuilds and dirties every record.)
* **matching** — decisions are pair-local, so the decision cache is reused
  for every pair already scored; only pairs new to the candidate set go
  through the engine's (profiled, batched, pooled) inference path.
* **graphs** — pre-cleanup and component detection re-run in full (linear,
  cheap), then each connected component's clean-up is memoised by its
  frozen edge set: untouched components splice through without a single
  graph-algorithm call, and only *dirty* components (any edge added,
  vanished, or re-tagged) are re-cleaned.  Component locality of the
  clean-up strategies makes this exactly equal to a global clean-up (see
  ``component_local`` in :mod:`repro.core.cleanup`).

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
from typing import Any

from repro.blocking.base import Blocking, CandidatePair, dedupe_pairs
from repro.core.cleanup import CleanupConfig, CleanupReport, merge_component_cleanups
from repro.core.groups import EntityGroups
from repro.core.precleanup import PreCleanupConfig
from repro.core.stages import apply_pre_cleanup, groups_from_components
from repro.datagen.records import Dataset, Record
from repro.graphs.graph import Edge, sorted_edges
from repro.graphs.union_find import DisjointSet
from repro.incremental.state import ComponentCleanup, MatchState
from repro.matching.base import PairwiseMatcher
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
    #: Connected components of the kept graph, and how their clean-up ran.
    components_total: int = 0
    components_recleaned: int = 0
    components_reused: int = 0
    #: Whether the kept-edge union-find had to be rebuilt (an edge vanished)
    #: instead of being extended in place.
    dsu_rebuilt: bool = False
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
        """The current candidate set, in exact batch-engine order."""
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
        for record in batch:
            self._dataset.add_record(record)
        state.records.extend(batch)
        report.num_new_records = len(batch)
        report.num_records = len(state.records)

        with recorder.span("blocking", kind="stage"):
            candidates = self._update_candidates(batch, recorder, report)
        state.num_candidates = len(candidates)
        report.num_candidates = len(candidates)

        with recorder.span("pairwise_matching", kind="stage"):
            decisions = self._update_decisions(candidates, recorder, report)

        with recorder.span("pre_cleanup", kind="stage"):
            # The exact batch-stage computation, shared with
            # PreCleanupStage so the two execution modes cannot drift.
            positive_edges, _, kept, removed = apply_pre_cleanup(
                decisions, candidates, state.pre_cleanup_config
            )
            state.pre_cleanup_removed = removed
        report.num_positive = len(positive_edges)
        report.num_kept = len(kept)

        with recorder.span("graph_cleanup", kind="stage"):
            final_components, cleanup_report = self._cleanup(kept, report)
            state.cleanup_report = cleanup_report

        with recorder.span("grouping", kind="stage"):
            all_record_ids = [record.record_id for record in state.records]
            state.groups, state.pre_cleanup_groups = groups_from_components(
                final_components, all_record_ids, positive_edges
            )

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
    ) -> list[CandidatePair]:
        """Delta-update every part's index, rescore dirty + new records, and
        re-assemble the candidate stream in batch order."""
        state = self.state
        dataset = self._dataset
        new_ids = [record.record_id for record in batch]
        for index, part in enumerate(self._parts):
            shared = state.part_states[index]
            if shared is None:
                # First ingest: prepare globally and rescore everything.
                shared = part.prepare(dataset)
                rescore_ids = {record.record_id for record in dataset}
            elif not batch:
                continue  # empty delta: this part's state cannot change
            else:
                delta = part.delta_update(shared, dataset, batch)
                shared = delta.shared
                rescore_ids = set(delta.dirty_record_ids)
                rescore_ids.update(new_ids)
            rescore_records = [
                record
                for record in state.records
                if record.record_id in rescore_ids
            ]
            owned_lists, notes = self.runtime.run_blocking_delta(
                part, shared, rescore_records, recorder
            )
            state.part_states[index] = part.note_rescored(shared, notes)
            owned = state.owned_pairs[index]
            for record, pairs in zip(rescore_records, owned_lists):
                owned[record.record_id] = pairs
            report.records_rescored += len(rescore_records)
        return self._assemble_candidates()

    def _assemble_candidates(self) -> list[CandidatePair]:
        """Concatenate the stored per-record owned lists into the candidate
        stream — parts-major, dataset order within each part, one global
        first-wins dedupe — exactly the batch engine's merge."""
        state = self.state
        merged: list[CandidatePair] = []
        for owned in state.owned_pairs:
            for record in state.records:
                merged.extend(owned.get(record.record_id, ()))
        return dedupe_pairs(merged)

    def _update_decisions(
        self,
        candidates: Sequence[CandidatePair],
        recorder: TraceRecorder,
        report: IngestReport,
    ):
        """Score only candidates without a cached decision; return the full
        decisions in candidate order (a gathered
        :class:`~repro.matching.decisions.DecisionVector`)."""
        state = self.state
        cache = state.decisions
        keys = [candidate.key for candidate in candidates]
        new_keys: list[tuple[str, str]] = []
        new_pairs: list[CandidatePair] = []
        for candidate, key in zip(candidates, keys):
            if key not in cache:
                new_keys.append(key)
                new_pairs.append(candidate)
        report.pairs_scored = len(new_pairs)
        report.pairs_reused = len(candidates) - len(new_pairs)
        if new_pairs:
            profiles = self._extend_profiles(new_pairs)
            scored = self.runtime.run_matching(
                state.matcher,
                self._dataset,
                new_pairs,
                recorder,
                profiles=profiles,
                # The engine's id-pair payloads are exactly the candidates'
                # (left, right) ids — hand them over so it skips rebuilding
                # them from the CandidatePair objects.
                id_pairs=[
                    (candidate.left_id, candidate.right_id)
                    for candidate in new_pairs
                ],
            )
            # The scored DecisionVector's arrays are adopted directly — no
            # decision objects are built on either side.
            cache.extend(new_keys, scored)
        return cache.vector(keys)

    def _extend_profiles(self, new_pairs: Sequence[CandidatePair]):
        """Grow the persistent profile store to cover the pairs to score.

        Returns the profiles to pass to the engine.  Profiles that cannot
        append (no ``add_records`` — e.g. the base matcher's id → record
        mapping) are not persisted; each call prepares them afresh for the
        records it references.
        """
        state = self.state
        referenced: dict[str, None] = {}
        for candidate in new_pairs:
            referenced.setdefault(candidate.left_id)
            referenced.setdefault(candidate.right_id)
        needed = [self._dataset.record(record_id) for record_id in referenced]
        if state.profiles is None:
            prepared = state.matcher.prepare_profiles(needed)
            if hasattr(prepared, "add_records"):
                state.profiles = prepared
            return prepared
        state.profiles.add_records(needed)
        return state.profiles

    def _kept_components(
        self, kept: Sequence[Edge], report: IngestReport
    ) -> tuple[DisjointSet, list[set[str]]]:
        """Connected components of the kept graph, via the growable DSU.

        Fast path: when this ingest only *added* kept edges (the common
        case), the persistent union-find is extended in place —
        O(delta α).  When any previously kept edge vanished (a candidate
        fell out of top-n, a decision left the kept set through the
        pre-cleanup size rule), components may split, which union-find
        cannot express — rebuild from scratch.  Either way the memoised
        per-component clean-up keys keep the result exact.
        """
        state = self.state
        new_kept = set(kept)
        vanished = state.kept_edges - new_kept
        if state.kept_dsu is None or vanished:
            dsu = DisjointSet()
            for u, v in kept:
                dsu.union(u, v)
            report.dsu_rebuilt = state.kept_dsu is not None
        else:
            dsu = state.kept_dsu
            for u, v in kept:
                if (u, v) not in state.kept_edges:
                    dsu.union(u, v)
        state.kept_dsu = dsu
        state.kept_edges = new_kept
        return dsu, dsu.components()

    def _cleanup(
        self, kept: Sequence[Edge], report: IngestReport
    ) -> tuple[list[set[str]], CleanupReport]:
        """Clean the kept graph, re-running only dirty components.

        Returns the final components in exactly the order a global
        clean-up + ``connected_components`` pass produces (decreasing size,
        then smallest member repr) so grouping is byte-identical.
        """
        state = self.state
        cleanup_fn = CLEANUPS.get(state.cleanup_strategy)
        if not kept:
            state.cleanup_memo = {}
            state.kept_edges = set()
            state.kept_dsu = DisjointSet()
            return [], CleanupReport()

        dsu, components = self._kept_components(kept, report)
        report.components_total = len(components)

        if not getattr(cleanup_fn, "component_local", False):
            # Unknown strategy: no locality guarantee, no memo — re-clean
            # the whole graph (correct, just not delta-proportional).
            state.cleanup_memo = {}
            report.components_recleaned = len(components)
            return cleanup_fn(list(kept), state.cleanup_config)

        edges_by_root: dict[Any, list[Edge]] = {}
        for edge in kept:
            edges_by_root.setdefault(dsu.find(edge[0]), []).append(edge)

        memo = state.cleanup_memo
        next_memo: dict[frozenset, ComponentCleanup] = {}
        cleaned: list[ComponentCleanup] = []
        for component in components:
            root = dsu.find(next(iter(component)))
            component_edges = edges_by_root.get(root, [])
            key = frozenset(component_edges)
            cached = memo.get(key)
            if cached is None:
                subcomponents, sub_report = _component_cleanup(
                    cleanup_fn, sorted_edges(component_edges), state.cleanup_config
                )
                cached = ComponentCleanup(
                    subcomponents=tuple(
                        frozenset(sub) for sub in subcomponents
                    ),
                    removed_edges=frozenset(sub_report.removed_edges),
                    mincut_removals=sub_report.mincut_removals,
                    betweenness_removals=sub_report.betweenness_removals,
                )
                report.components_recleaned += 1
            else:
                report.components_reused += 1
            next_memo[key] = cached
            cleaned.append(cached)
        state.cleanup_memo = next_memo

        # Global ordering and totals through the batch clean-up's own
        # helper, so the spliced output is indistinguishable from a
        # full-graph clean-up.
        return merge_component_cleanups(
            ((entry.subcomponents, entry) for entry in cleaned),
            initial_largest_component=len(components[0]),
        )
