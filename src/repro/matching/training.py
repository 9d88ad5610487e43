"""Fine-tuning harness.

Glues together pair construction (:mod:`repro.matching.pairs`), the model zoo
(:mod:`repro.matching.models`) and the evaluation splits to reproduce the
paper's fine-tuning protocol (Section 5.1.3 / 5.2):

* models are trained on all positive pairs of the train split plus randomly
  sampled negatives at 5:1,
* the "15K"-style reduced setups are trained on the identifier-matchable
  subset only, capped at a pair budget,
* training runs for a fixed number of epochs and the epoch with the lowest
  validation loss is kept (handled inside the trainable matchers),
* wall-clock training time is recorded (the paper's "Training Time" column).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

from repro.datagen.records import Dataset
from repro.matching.base import IdPair, PairwiseMatcher, TrainablePairwiseMatcher
from repro.matching.models import ModelSpec, build_matcher, resolve_model_spec
from repro.obs import clock
from repro.matching.pairs import (
    LabeledPair,
    PairSampler,
    filter_easy_pairs,
)


def _id_pairs_and_labels(pairs: Sequence[LabeledPair]) -> tuple[list[IdPair], list[int]]:
    return (
        [(pair.left.record_id, pair.right.record_id) for pair in pairs],
        [pair.label for pair in pairs],
    )


@dataclass
class FineTuneResult:
    """A fitted matcher plus bookkeeping about how it was trained."""

    matcher: PairwiseMatcher
    spec: ModelSpec
    num_training_pairs: int
    num_validation_pairs: int
    training_seconds: float
    #: The matcher's ``prepare_profiles`` state for the whole dataset, which
    #: fitting used; a pipeline run on that dataset can reuse it.  ``None``
    #: for a matcher that is not trainable.
    profiles: Any = None

    @property
    def name(self) -> str:
        return self.spec.name


class FineTuner:
    """Fine-tunes one model spec on one dataset split."""

    def __init__(
        self,
        negative_ratio: int = 5,
        reduced_pair_budget: int = 15_000,
        num_epochs: int = 5,
        seed: int = 0,
    ) -> None:
        if negative_ratio < 0:
            raise ValueError("negative_ratio must be non-negative")
        if reduced_pair_budget < 1:
            raise ValueError("reduced_pair_budget must be positive")
        self.negative_ratio = negative_ratio
        self.reduced_pair_budget = reduced_pair_budget
        self.num_epochs = num_epochs
        self.seed = seed

    # -- pair assembly ---------------------------------------------------------

    def build_pairs(
        self,
        dataset: Dataset,
        entity_ids: Sequence[str],
        spec: ModelSpec,
    ) -> list[LabeledPair]:
        """Labelled pairs for one split, honouring the spec's training regime."""
        sampler = PairSampler(negative_ratio=self.negative_ratio, seed=self.seed)
        pairs = sampler.build(dataset, entity_ids)
        if spec.reduced_training:
            pairs = filter_easy_pairs(pairs, max_pairs=self.reduced_pair_budget)
        if spec.max_training_pairs is not None:
            pairs = pairs[: spec.max_training_pairs]
        return pairs

    # -- training ---------------------------------------------------------------

    def fine_tune(
        self,
        spec: ModelSpec | str,
        dataset: Dataset,
        train_entities: Sequence[str],
        validation_entities: Sequence[str],
        attributes: Sequence[str] | None = None,
    ) -> FineTuneResult:
        """Fine-tune ``spec`` on the given train / validation entity splits.

        A trainable matcher profiles the whole dataset once
        (``prepare_profiles``) and fits on the sampled pairs' ids through
        ``fit_profiled``; the profiling counts towards ``training_seconds``.
        The result carries that state as ``profiles``, so the pipeline run
        that follows can score with it instead of profiling again.
        """
        spec = resolve_model_spec(spec)
        if attributes is None:
            attributes = self._infer_attributes(dataset)

        matcher = build_matcher(
            spec, attributes, seed=self.seed, num_epochs=self.num_epochs
        )

        train_pairs = self.build_pairs(dataset, train_entities, spec)
        validation_pairs = self.build_pairs(dataset, validation_entities, spec)

        start = clock.now()
        profiles = None
        if isinstance(matcher, TrainablePairwiseMatcher):
            profiles = matcher.prepare_profiles(dataset)
            id_pairs, labels = _id_pairs_and_labels(train_pairs)
            validation_id_pairs, validation_labels = _id_pairs_and_labels(validation_pairs)
            matcher.fit_profiled(
                profiles,
                id_pairs,
                labels,
                validation_id_pairs=validation_id_pairs,
                validation_labels=validation_labels,
            )
        elapsed = clock.now() - start

        return FineTuneResult(
            matcher=matcher,
            spec=spec,
            num_training_pairs=len(train_pairs),
            num_validation_pairs=len(validation_pairs),
            training_seconds=elapsed,
            profiles=profiles,
        )

    @staticmethod
    def _infer_attributes(dataset: Dataset) -> Sequence[str]:
        for record in dataset:
            return record.MATCHING_ATTRIBUTES
        raise ValueError("cannot infer attributes from an empty dataset")
