"""The end-to-end entity group matching experiment (Table 4).

For one dataset and one model setup:

1. fine-tune the pairwise matcher on the train/validation splits,
2. run the full pipeline (blocking → pairwise matching → pre-cleanup →
   GraLMatch) on the *whole* dataset,
3. score the three stages of Section 5.3.2: pairwise matching (blocking
   pairs), Pre Graph Cleanup (with transitive matches) and Post Graph Cleanup
   (the final groups), plus the Cluster Purity Score and inference time.

The blocking recipe per dataset follows Table 2: companies use
ID Overlap + Token Overlap, securities use ID Overlap + Issuer Match (with
the issuer groups coming from a company matching or from the ground truth
for oracle ablations), WDC Products uses Token Overlap only.  The recipes
are data (:data:`repro.specs.pipeline.BLOCKING_RECIPES`) resolved through
the component registry, so spec files and externally registered blockings
plug in without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blocking.base import Blocking
from repro.core.cleanup import CleanupConfig
from repro.core.metrics import (
    GroupMatchingScores,
    PairwiseScores,
    group_matching_scores,
    pairwise_scores,
)
from repro.core.pipeline import EntityGroupMatchingPipeline, PipelineResult
from repro.core.precleanup import PreCleanupConfig
from repro.datagen.records import Dataset
from repro.evaluation.splits import DatasetSplits, split_dataset
from repro.matching.base import PairwiseMatcher
from repro.matching.models import ModelSpec, resolve_model_spec
from repro.matching.training import FineTuner, FineTuneResult
from repro.runtime import RuntimeConfig
from repro.specs.pipeline import (
    BLOCKING_RECIPES,
    CleanupSpec,
    ComponentSpec,
    PipelineSpec,
)


@dataclass
class ExperimentConfig:
    """Configuration of one Table 4 run."""

    #: Named model spec (see :data:`repro.matching.models.MODEL_SPECS`).
    model: str = "distilbert-128-all"
    #: "companies", "securities" or "products" — selects the blocking recipe.
    dataset_kind: str = "companies"
    #: Graph clean-up thresholds (γ, μ); defaults follow Table 2 given the
    #: number of sources when left unset.
    cleanup: CleanupConfig | None = None
    #: Pre-cleanup rule; enabled for companies by default, disabled otherwise.
    pre_cleanup: PreCleanupConfig | None = None
    #: Token-overlap top-n.
    token_top_n: int = 5
    #: Negative sampling ratio for fine-tuning.
    negative_ratio: int = 5
    #: Epochs for trainable matchers.
    num_epochs: int = 3
    #: Split / sampling seed.
    seed: int = 0
    #: For securities: company record-id groups used by the Issuer Match
    #: blocking.  ``None`` falls back to the ground-truth issuer groups
    #: (oracle issuer matching), which is what the unit benches use.
    issuer_groups: list[list[str]] | None = field(default=None)
    #: Explicit blocking component list (registry names + params); ``None``
    #: uses the Table 2 recipe for ``dataset_kind``.
    blocking: tuple[ComponentSpec, ...] | None = None
    #: Partial clean-up thresholds from a declarative spec; unset fields are
    #: derived from the dataset's source count at run time.  Ignored when
    #: ``cleanup`` is set explicitly.
    cleanup_spec: CleanupSpec | None = None
    #: Named graph clean-up strategy (see :data:`repro.registry.CLEANUPS`).
    cleanup_strategy: str = "gralmatch"
    #: Execution-engine settings (workers, batch size, pool flavour);
    #: ``None`` runs the serial engine.
    runtime: RuntimeConfig | None = None


@dataclass
class ExperimentResult:
    """One Table 4 row with all three evaluation stages."""

    dataset: str
    model: str
    num_records: int
    num_candidates: int
    pairwise: PairwiseScores
    pre_cleanup: GroupMatchingScores
    post_cleanup: GroupMatchingScores
    inference_seconds: float
    graph_seconds: float
    gamma: int | None
    mu: int
    pipeline_result: PipelineResult

    def as_row(self) -> dict[str, object]:
        return {
            "Dataset": self.dataset,
            "Model": self.model,
            "# Candidates": self.num_candidates,
            "Pairwise P": round(100 * self.pairwise.precision, 2),
            "Pairwise R": round(100 * self.pairwise.recall, 2),
            "Pairwise F1": round(100 * self.pairwise.f1, 2),
            "Pre P": round(100 * self.pre_cleanup.precision, 2),
            "Pre R": round(100 * self.pre_cleanup.recall, 2),
            "Pre F1": round(100 * self.pre_cleanup.f1, 2),
            "Pre ClPur": round(self.pre_cleanup.cluster_purity, 2),
            "Post P": round(100 * self.post_cleanup.precision, 2),
            "Post R": round(100 * self.post_cleanup.recall, 2),
            "Post F1": round(100 * self.post_cleanup.f1, 2),
            "Post ClPur": round(self.post_cleanup.cluster_purity, 2),
            "Inference (s)": round(self.inference_seconds, 2),
        }


class EntityGroupMatchingExperiment:
    """Runs the fine-tune + end-to-end-match experiment for one dataset."""

    def __init__(self, dataset: Dataset, config: ExperimentConfig | None = None) -> None:
        self.dataset = dataset
        self.config = config or ExperimentConfig()
        self.splits: DatasetSplits = split_dataset(dataset, seed=self.config.seed)

    # -- components ------------------------------------------------------------------

    def blocking_specs(self) -> tuple[ComponentSpec, ...]:
        """The effective blocking components: explicit config, else Table 2."""
        if self.config.blocking is not None:
            return tuple(self.config.blocking)
        kind = self.config.dataset_kind
        try:
            return BLOCKING_RECIPES[kind]
        except KeyError:
            raise ValueError(f"unknown dataset kind: {kind!r}") from None

    def build_blocking(self) -> Blocking:
        """Resolve the blocking components through the spec builder.

        Experiment-level context the spec file cannot carry is injected as
        ``extra_params``: the ``token_overlap`` top-n default and the
        ``issuer_match`` company-group mapping (from the configured company
        matching, or the ground-truth issuer groups as the oracle
        fallback).  Explicit component params always win over injected
        ones, so a spec that pins its own groups — or merely tweaks an
        unrelated param like ``cross_source_only`` — composes correctly.
        """
        specs = self.blocking_specs()
        extra_params: dict[str, dict] = {
            "token_overlap": {"top_n": self.config.token_top_n},
        }
        if any(component.name == "issuer_match" for component in specs):
            if self.config.issuer_groups is not None:
                extra_params["issuer_match"] = {
                    "issuer_groups": self.config.issuer_groups
                }
            else:
                extra_params["issuer_match"] = {
                    "issuer_group_of": self._ground_truth_issuer_groups()
                }
        return PipelineSpec(blocking=specs).build_blocking(extra_params)

    def _ground_truth_issuer_groups(self) -> dict[str, int]:
        """Issuer groups derived from the records' issuer entity ids."""
        mapping: dict[str, int] = {}
        group_index: dict[str, int] = {}
        for record in self.dataset:
            issuer_record_id = getattr(record, "issuer_record_id", None)
            issuer_entity_id = getattr(record, "issuer_entity_id", None)
            if issuer_record_id is None or issuer_entity_id is None:
                continue
            index = group_index.setdefault(issuer_entity_id, len(group_index))
            mapping[issuer_record_id] = index
        return mapping

    def build_cleanup_config(self) -> CleanupConfig:
        if self.config.cleanup is not None:
            return self.config.cleanup
        num_sources = len(self.dataset.sources)
        if self.config.cleanup_spec is not None:
            # Partial spec: unset thresholds derive from the dataset here,
            # where the source count is known (mu = #sources, gamma = 5*mu).
            return PipelineSpec(
                cleanup=self.config.cleanup_spec
            ).build_cleanup_config(num_sources)
        return CleanupConfig.for_num_sources(num_sources)

    def build_pre_cleanup_config(self) -> PreCleanupConfig:
        if self.config.pre_cleanup is not None:
            return self.config.pre_cleanup
        return PreCleanupConfig(enabled=self.config.dataset_kind == "companies")

    # -- the run -----------------------------------------------------------------------

    def run(self, model: str | ModelSpec | None = None) -> ExperimentResult:
        """Fine-tune the model and run the end-to-end matching.

        The store fine-tuning profiled the dataset into rides into the
        pipeline run, so the matching stage scores against it instead of
        profiling the records again.
        """
        spec = resolve_model_spec(model or self.config.model)
        fine_tuned = self._fine_tune(spec)
        pipeline = self._pipeline_around(fine_tuned.matcher)
        try:
            result = pipeline.run(self.dataset, profiles=fine_tuned.profiles)
        finally:
            # The pipeline (and its warm worker pool) lives for this one
            # run; closing is lazy-respawn-safe even for shared runtimes.
            pipeline.close()
        return self._score(spec, pipeline.cleanup_config, result)

    def build_pipeline(
        self, model: str | ModelSpec | None = None
    ) -> EntityGroupMatchingPipeline:
        """Fine-tune the configured model and assemble the pipeline around
        it, *without* running it.

        The entry point the incremental-ingestion subsystem shares with
        :meth:`run`: both construct the exact same fitted matcher and
        components (the fine-tuning protocol is deterministic given the
        dataset and seed), which is what makes a persistent state
        initialised from a training corpus produce groups byte-identical to
        ``run()`` on that corpus.
        """
        spec = resolve_model_spec(model or self.config.model)
        return self._pipeline_around(self._fine_tune(spec).matcher)

    def _fine_tune(self, spec: ModelSpec) -> FineTuneResult:
        tuner = FineTuner(
            negative_ratio=self.config.negative_ratio,
            num_epochs=self.config.num_epochs,
            seed=self.config.seed,
        )
        return tuner.fine_tune(
            spec,
            self.dataset,
            train_entities=self.splits.train_entities,
            validation_entities=self.splits.validation_entities,
        )

    def _pipeline_around(self, matcher: PairwiseMatcher) -> EntityGroupMatchingPipeline:
        return EntityGroupMatchingPipeline(
            matcher=matcher,
            blocking=self.build_blocking(),
            cleanup_config=self.build_cleanup_config(),
            pre_cleanup_config=self.build_pre_cleanup_config(),
            runtime=self.config.runtime,
            cleanup_strategy=self.config.cleanup_strategy,
        )

    def _score(
        self,
        spec: ModelSpec,
        cleanup_config: CleanupConfig,
        result: PipelineResult,
    ) -> ExperimentResult:
        truth = self.dataset.true_matches()
        return ExperimentResult(
            dataset=self.dataset.name,
            model=spec.name,
            num_records=len(self.dataset),
            num_candidates=result.num_candidates,
            pairwise=pairwise_scores(result.positive_edges, truth),
            pre_cleanup=group_matching_scores(result.pre_cleanup_groups, truth),
            post_cleanup=group_matching_scores(result.groups, truth),
            inference_seconds=result.inference_seconds,
            graph_seconds=result.graph_seconds,
            gamma=cleanup_config.gamma,
            mu=cleanup_config.mu,
            pipeline_result=result,
        )
