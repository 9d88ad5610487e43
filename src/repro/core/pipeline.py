"""The end-to-end entity group matching pipeline (Figure 1).

Steps, exactly as in Section 4:

1. **Blocking** — produce candidate record pairs,
2. **Pairwise matching** — predict Match / NoMatch for every candidate with a
   fine-tuned (or heuristic) pairwise matcher,
3. **Pre Graph Cleanup** — drop token-overlap predictions inside oversized
   components,
4. **GraLMatch Graph Cleanup** — Algorithm 1 (minimum edge cuts, then
   betweenness-centrality removals),
5. **Entity groups** — the connected components of the cleaned-up graph,
   interpreted as complete graphs (all transitive matches included).

Each step is a named :class:`~repro.core.stages.PipelineStage` over a shared
:class:`~repro.core.stages.PipelineContext`; ``run()`` just walks the stage
list, so new stages (sharded blocking, decision caches, audits) can be
inserted or swapped without touching it — see ``insert_before`` /
``insert_after`` / ``replace_stage``.

The pipeline never looks at ground truth; scoring lives in
:mod:`repro.evaluation.experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

from repro.blocking.base import Blocking, CandidatePair
from repro.core.cleanup import CleanupConfig, CleanupReport
from repro.core.groups import EntityGroups
from repro.core.precleanup import PreCleanupConfig
from repro.core.stages import (
    BlockingStage,
    GraphCleanupStage,
    GroupingStage,
    MatchingStage,
    PipelineContext,
    PipelineStage,
    PreCleanupStage,
)
from repro.datagen.records import Dataset
from repro.graphs.graph import Edge
from repro.matching.base import MatchDecision, PairwiseMatcher
from repro.obs import stage_timings
from repro.runtime import PipelineRuntime, RuntimeConfig


@dataclass
class PipelineResult:
    """Everything one pipeline run produced."""

    #: Candidate pairs emitted by the blocking.
    candidates: list[CandidatePair]
    #: Full decisions (probability + verdict) for every candidate pair — a
    #: lazy array-backed :class:`~repro.matching.decisions.DecisionVector`
    #: (indexing materialises decisions).
    decisions: Sequence[MatchDecision]
    #: Positively predicted pairs (before any clean-up).
    positive_edges: list[Edge]
    #: Edges dropped by the pre-cleanup rule.
    pre_cleanup_removed: set[Edge]
    #: Algorithm 1 bookkeeping.
    cleanup_report: CleanupReport
    #: Final group assignment (connected components after clean-up, plus
    #: singletons for records that were never positively matched).
    groups: EntityGroups
    #: Group assignment implied by the raw predictions (pre-clean-up), used
    #: for the "Pre Graph Cleanup" stage scores.
    pre_cleanup_groups: EntityGroups
    #: Wall-clock seconds spent in the pairwise matching step (the paper's
    #: "Inference Time" column) and in the graph stages.
    inference_seconds: float = 0.0
    graph_seconds: float = 0.0
    #: Per-stage and per-chunk seconds, read off the run's spans
    #: (:func:`~repro.obs.trace.stage_timings`).
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def num_positive(self) -> int:
        return len(self.positive_edges)


class EntityGroupMatchingPipeline:
    """Composable end-to-end entity group matching.

    The constructor assembles the five default stages; ``stages`` replaces
    the whole sequence for callers that compose their own.  The stage list
    is a plain mutable attribute — the editing helpers below are sugar over
    it that locate stages by name.
    """

    def __init__(
        self,
        matcher: PairwiseMatcher,
        blocking: Blocking,
        cleanup_config: CleanupConfig | None = None,
        pre_cleanup_config: PreCleanupConfig | None = None,
        runtime: PipelineRuntime | RuntimeConfig | None = None,
        cleanup_strategy: str = "gralmatch",
        stages: list[PipelineStage] | None = None,
    ) -> None:
        self.matcher = matcher
        self.blocking = blocking
        self.cleanup_config = cleanup_config or CleanupConfig()
        self.pre_cleanup_config = pre_cleanup_config or PreCleanupConfig()
        self.cleanup_strategy = cleanup_strategy
        if runtime is None:
            runtime = PipelineRuntime()
        elif isinstance(runtime, RuntimeConfig):
            runtime = PipelineRuntime(runtime)
        self.runtime = runtime
        self.stages: list[PipelineStage] = (
            list(stages) if stages is not None else self.default_stages()
        )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the runtime's persistent worker pool (if any was spawned).

        Safe to call on serial pipelines (no-op) and more than once; the
        pipeline stays usable — a later :meth:`run` respawns the pool
        lazily.  Use the context-manager form for scoped lifetimes::

            with EntityGroupMatchingPipeline(matcher, blocking, runtime=cfg) as p:
                result = p.run(dataset)
        """
        self.runtime.close()

    def __enter__(self) -> "EntityGroupMatchingPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def default_stages(self) -> list[PipelineStage]:
        """The Figure 1 stage sequence for this pipeline's components."""
        return [
            BlockingStage(self.blocking),
            MatchingStage(self.matcher),
            PreCleanupStage(self.pre_cleanup_config),
            GraphCleanupStage(self.cleanup_config, self.cleanup_strategy),
            GroupingStage(),
        ]

    # -- stage editing ------------------------------------------------------

    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    def _stage_index(self, name: str) -> int:
        for index, stage in enumerate(self.stages):
            if stage.name == name:
                return index
        raise KeyError(
            f"no stage named {name!r}; stages: {self.stage_names()}"
        )

    def insert_before(self, name: str, stage: PipelineStage) -> None:
        """Insert ``stage`` immediately before the stage named ``name``."""
        self.stages.insert(self._stage_index(name), stage)

    def insert_after(self, name: str, stage: PipelineStage) -> None:
        """Insert ``stage`` immediately after the stage named ``name``."""
        self.stages.insert(self._stage_index(name) + 1, stage)

    def replace_stage(self, name: str, stage: PipelineStage) -> None:
        """Swap the stage named ``name`` for ``stage``."""
        self.stages[self._stage_index(name)] = stage

    # -- the run ------------------------------------------------------------

    def run(self, dataset: Dataset, profiles: Any = None) -> PipelineResult:
        """Run the stage sequence on ``dataset`` and return all artefacts.

        Candidate generation and pairwise inference are delegated to the
        execution engine (:class:`~repro.runtime.PipelineRuntime`), which
        batches and optionally parallelises them; the graph stages operate
        on the global match graph and stay single-pass.  Serial and parallel
        engines produce identical results.

        ``profiles`` (optional) is the matcher's ``prepare_profiles`` state
        for ``dataset`` when the caller already holds it — the experiment
        passes the store fine-tuning built — and the matching stage scores
        with it instead of profiling the candidates' records again.  It
        must hold every record of ``dataset`` (``ValueError`` names the
        first one it lacks); results equal a run without it, because
        profiles are pure per-record derivations.
        """
        if profiles is not None:
            for record in dataset:
                if record.record_id not in profiles:
                    raise ValueError(
                        f"profiles do not hold dataset record {record.record_id!r}"
                    )
        recorder = self.runtime.run_recorder()
        context = PipelineContext(
            dataset=dataset, runtime=self.runtime, recorder=recorder, profiles=profiles
        )
        with recorder.span("pipeline.run", kind="run", records=len(dataset)) as run:
            for stage in self.stages:
                with recorder.span(stage.name, kind="stage"):
                    stage.run(context)
        return self._to_result(context, stage_timings(run))

    def _to_result(
        self, context: PipelineContext, timings: dict[str, float]
    ) -> PipelineResult:
        graph_seconds = sum(
            timings.get(stage.name, 0.0)
            for stage in self.stages
            if stage.timing_group == "graph"
        )
        # Pre-stage pipelines timed the three graph steps as one
        # "graph_cleanup" stage; keep the aggregate key for consumers.
        timings.setdefault("graph_cleanup", graph_seconds)
        if context.groups is None or context.pre_cleanup_groups is None:
            raise RuntimeError(
                "pipeline finished without producing groups — a grouping "
                f"stage is missing from {self.stage_names()}"
            )
        return PipelineResult(
            candidates=context.candidates,
            decisions=context.decisions,
            positive_edges=list(context.positive_edges),
            pre_cleanup_removed=context.pre_cleanup_removed,
            cleanup_report=context.cleanup_report,
            groups=context.groups,
            pre_cleanup_groups=context.pre_cleanup_groups,
            inference_seconds=timings.get("pairwise_matching", 0.0),
            graph_seconds=graph_seconds,
            timings=timings,
        )
