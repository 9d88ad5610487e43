"""GraLMatch core: transitive matching, graph clean-up, metrics, pipeline.

This package is the paper's primary contribution:

* :mod:`repro.core.transitive` — transitively matched records (Section 1),
* :mod:`repro.core.groups` — entity groups (connected components expanded to
  complete graphs),
* :mod:`repro.core.cleanup` — the GraLMatch Graph Cleanup (Algorithm 1) and
  its sensitivity variants,
* :mod:`repro.core.precleanup` — the Pre Graph Cleanup of Section 4.2.1,
* :mod:`repro.core.metrics` — pairwise and group precision / recall / F1 and
  the Cluster Purity Score,
* :mod:`repro.core.stages` — the named pipeline stages and their shared
  :class:`~repro.core.stages.PipelineContext`,
* :mod:`repro.core.pipeline` — the end-to-end entity group matching workflow
  of Figure 1, as an ordered stage sequence.
"""

from repro.core.cleanup import CleanupConfig, CleanupReport, gralmatch_cleanup
from repro.core.groups import EntityGroups
from repro.core.metrics import (
    GroupMatchingScores,
    PairwiseScores,
    cluster_purity,
    group_matching_scores,
    pairwise_scores,
)
from repro.core.pipeline import EntityGroupMatchingPipeline, PipelineResult
from repro.core.precleanup import pre_cleanup
from repro.core.stages import (
    BlockingStage,
    GraphCleanupStage,
    GroupingStage,
    MatchingStage,
    PipelineContext,
    PipelineStage,
    PreCleanupStage,
)
from repro.core.transitive import transitive_closure_edges, transitive_matches

__all__ = [
    "BlockingStage",
    "GraphCleanupStage",
    "GroupingStage",
    "MatchingStage",
    "PipelineContext",
    "PipelineStage",
    "PreCleanupStage",
    "CleanupConfig",
    "CleanupReport",
    "gralmatch_cleanup",
    "EntityGroups",
    "PairwiseScores",
    "GroupMatchingScores",
    "pairwise_scores",
    "group_matching_scores",
    "cluster_purity",
    "EntityGroupMatchingPipeline",
    "PipelineResult",
    "pre_cleanup",
    "transitive_closure_edges",
    "transitive_matches",
]
