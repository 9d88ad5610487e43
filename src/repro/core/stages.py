"""The pipeline as an ordered sequence of named stages over a shared context.

:class:`~repro.core.pipeline.EntityGroupMatchingPipeline` used to be one
monolithic ``run()`` method; it is now a list of :class:`PipelineStage`
objects that read and write a shared :class:`PipelineContext`.  Each stage
is small, independently testable, and — crucially for the ROADMAP's
sharding/caching/async plans — *replaceable and insertable* without
touching ``run()``: a caching stage can slot in before pairwise matching, a
custom blocking stage can replace :class:`BlockingStage`, an audit stage can
observe the context between any two steps.

The five default stages reproduce Figure 1 / Section 4 exactly:

========================  ===================================================
``blocking``              candidate pairs via the execution engine
``pairwise_matching``     Match / NoMatch decisions via the execution engine
``pre_cleanup``           drop token-overlap predictions in huge components
``gralmatch_cleanup``     Algorithm 1 (or a registered alternative strategy)
``grouping``              connected components → entity groups (+ singletons)
========================  ===================================================

Stages whose ``timing_group`` is ``"graph"`` are rolled up into the
``graph_cleanup`` aggregate timing, keeping ``PipelineResult.timings``
backward compatible with the pre-stage pipeline.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

from repro.blocking.base import Blocking, CandidatePair
from repro.core.cleanup import CleanupConfig, CleanupReport
from repro.core.groups import EntityGroups
from repro.core.precleanup import PreCleanupConfig, pre_cleanup
from repro.datagen.records import Dataset
from repro.graphs.graph import Edge
from repro.matching.base import MatchDecision, PairwiseMatcher
from repro.matching.decisions import DecisionVector
from repro.obs import TraceRecorder
from repro.registry import CLEANUPS
from repro.runtime import PipelineRuntime


@dataclass
class PipelineContext:
    """Everything the stages share during one pipeline run.

    Early fields are inputs (dataset, runtime, the run's recorder, and
    optionally the matcher's prepared profiles for the dataset); the rest
    are artefacts produced by successive stages.  Custom stages may stash
    additional state in :attr:`extras` without subclassing the context.
    """

    dataset: Dataset
    runtime: PipelineRuntime
    #: The run's recorder: stage and chunk spans (and so the run's timings)
    #: and the clean-up metrics land here.
    recorder: TraceRecorder
    #: ``prepare_profiles`` state covering the dataset, or ``None`` to let
    #: the matching stage prepare its own.
    profiles: Any = None

    candidates: list[CandidatePair] = field(default_factory=list)
    #: A lazy :class:`~repro.matching.decisions.DecisionVector` from the
    #: engine; stages inserted by callers may substitute any decision list.
    decisions: Sequence[MatchDecision] = field(default_factory=list)
    positive_edges: list[Edge] = field(default_factory=list)
    edge_blockings: dict[tuple[str, str], str] = field(default_factory=dict)
    kept_edges: list[Edge] = field(default_factory=list)
    pre_cleanup_removed: set[Edge] = field(default_factory=set)
    components: list[set[str]] = field(default_factory=list)
    cleanup_report: CleanupReport = field(default_factory=CleanupReport)
    groups: EntityGroups | None = None
    pre_cleanup_groups: EntityGroups | None = None

    #: Scratch space for inserted stages (caches, shard maps, audit trails).
    extras: dict[str, Any] = field(default_factory=dict)


class PipelineStage(ABC):
    """One named step of the pipeline.

    ``name`` doubles as the stage span's name (so its timings key) and the
    handle for the pipeline's ``insert_before`` / ``insert_after`` /
    ``replace_stage`` helpers; ``timing_group = "graph"`` opts the stage
    into the ``graph_cleanup`` aggregate timing.
    """

    name: str = "stage"
    timing_group: str | None = None

    @abstractmethod
    def run(self, context: PipelineContext) -> None:
        """Execute the stage, reading/writing ``context`` in place."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class BlockingStage(PipelineStage):
    """Candidate generation, fanned out by the execution engine."""

    name = "blocking"

    def __init__(self, blocking: Blocking) -> None:
        self.blocking = blocking

    def run(self, context: PipelineContext) -> None:
        context.candidates = context.runtime.run_blocking(
            self.blocking, context.dataset, context.recorder
        )


class MatchingStage(PipelineStage):
    """Pairwise Match / NoMatch inference, batched by the execution engine."""

    name = "pairwise_matching"

    def __init__(self, matcher: PairwiseMatcher) -> None:
        self.matcher = matcher

    def run(self, context: PipelineContext) -> None:
        context.decisions = context.runtime.run_matching(
            self.matcher,
            context.dataset,
            context.candidates,
            context.recorder,
            profiles=context.profiles,
        )


def apply_pre_cleanup(
    decisions: Sequence[MatchDecision],
    candidates: list[CandidatePair],
    config: PreCleanupConfig,
) -> tuple[list[Edge], dict[tuple[str, str], str], list[Edge], set[Edge]]:
    """Positive edges, blocking tags, and the pre-cleanup rule — one place.

    Returns ``(positive_edges, edge_blockings, kept_edges, removed)``.
    :class:`PreCleanupStage` runs it over the whole graph.  The incremental
    matcher applies the same rule per recomputed component
    (:class:`~repro.incremental.graph.PositiveGraph`) and calls this only
    for a clean-up strategy without ``component_local``; the oracle tests
    in ``tests/incremental/`` recompute with it after every ingested batch,
    which is what keeps the two execution modes from drifting.

    A columnar :class:`~repro.matching.decisions.DecisionVector` yields its
    positive edges straight off the kept-edge mask — the same
    ``(left_id, right_id)`` tuples, no decision objects materialised.
    """
    if isinstance(decisions, DecisionVector):
        positive_edges = decisions.positive_pairs()
    else:
        positive_edges = [
            decision.pair for decision in decisions if decision.is_match
        ]
    edge_blockings = {
        candidate.key: candidate.blocking for candidate in candidates
    }
    kept_edges, removed = pre_cleanup(positive_edges, edge_blockings, config)
    return positive_edges, edge_blockings, kept_edges, removed


def groups_from_components(
    components: list[set[str]],
    all_record_ids: list[str],
    positive_edges: list[Edge],
) -> tuple[EntityGroups, EntityGroups]:
    """Final + pre-cleanup groups from cleaned components — one place.

    Cleaned components first (in their given order), then singletons for
    uncovered records in dataset order.  :class:`GroupingStage` calls it;
    the incremental matcher splices components into sorted lists instead
    and calls it only for a strategy without ``component_local`` (same
    drift argument as :func:`apply_pre_cleanup`).
    """
    covered = {
        record_id for component in components for record_id in component
    }
    groups: list[set[str]] = [set(component) for component in components]
    groups.extend(
        {record_id} for record_id in all_record_ids if record_id not in covered
    )
    return (
        EntityGroups(groups),
        EntityGroups.from_edges(positive_edges, all_record_ids),
    )


class PreCleanupStage(PipelineStage):
    """Section 4.2.1: drop token-overlap predictions in huge components."""

    name = "pre_cleanup"
    timing_group = "graph"

    def __init__(self, config: PreCleanupConfig | None = None) -> None:
        self.config = config or PreCleanupConfig()

    def run(self, context: PipelineContext) -> None:
        (
            context.positive_edges,
            context.edge_blockings,
            context.kept_edges,
            context.pre_cleanup_removed,
        ) = apply_pre_cleanup(context.decisions, context.candidates, self.config)


class GraphCleanupStage(PipelineStage):
    """Algorithm 1 — or any clean-up strategy registered under a name."""

    name = "gralmatch_cleanup"
    timing_group = "graph"

    def __init__(
        self,
        config: CleanupConfig | None = None,
        strategy: str = "gralmatch",
    ) -> None:
        self.config = config or CleanupConfig()
        self.strategy = strategy

    def run(self, context: PipelineContext) -> None:
        cleanup = CLEANUPS.get(self.strategy)
        context.components, context.cleanup_report = cleanup(
            context.kept_edges, self.config
        )
        report = context.cleanup_report
        metrics = context.recorder.metrics
        metrics.add("cleanup.mincut_removals", report.mincut_removals)
        metrics.add("cleanup.betweenness_removals", report.betweenness_removals)
        metrics.add("cleanup.edges_removed", report.num_removed)
        metrics.gauge("cleanup.initial_largest_component", report.initial_largest_component)
        metrics.gauge("cleanup.final_largest_component", report.final_largest_component)


class GroupingStage(PipelineStage):
    """Components → entity groups, plus singletons for unmatched records."""

    name = "grouping"
    timing_group = "graph"

    def run(self, context: PipelineContext) -> None:
        all_record_ids = [record.record_id for record in context.dataset]
        context.groups, context.pre_cleanup_groups = groups_from_components(
            context.components, all_record_ids, context.positive_edges
        )
