"""Fine-tuning harness.

Glues together pair construction (:mod:`repro.matching.pairs`), the model zoo
(:mod:`repro.matching.models`) and the evaluation splits to reproduce the
paper's fine-tuning protocol (Section 5.1.3 / 5.2):

* models are trained on all positive pairs of the train split plus randomly
  sampled negatives at 5:1,
* the "15K"-style reduced setups are trained on the identifier-matchable
  subset only, capped at a pair budget,
* training runs for a fixed number of epochs; the transformer matchers keep
  the epoch with the lowest validation loss, while the logistic matcher
  keeps its last iterate (validation pairs play no part in its fit),
* wall-clock training time is recorded (the paper's "Training Time" column).

Pairs stay record-row arrays (:class:`~repro.matching.pairs.SampledPairs`)
from sampling to fitting; :class:`~repro.matching.pairs.LabeledPair`
objects are built only for callers that ask for them
(:meth:`FineTuner.build_pairs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

from repro.datagen.records import Dataset
from repro.matching.base import PairwiseMatcher, TrainablePairwiseMatcher
from repro.matching.models import ModelSpec, build_matcher, resolve_model_spec
from repro.obs import NULL_RECORDER, clock
from repro.matching.pairs import LabeledPair, PairSampler, SampledPairs


class TrainingDataError(ValueError):
    """A dataset that cannot fine-tune the requested matcher."""


@dataclass
class FineTuneResult:
    """A fitted matcher plus bookkeeping about how it was trained."""

    matcher: PairwiseMatcher
    spec: ModelSpec
    num_training_pairs: int
    num_validation_pairs: int
    #: Seconds spent profiling the dataset and fitting the matcher — the
    #: paper's "Training Time".  Sampling the pairs is not counted; a traced
    #: run shows it as the ``sampling`` span beside ``profiling``,
    #: ``features`` and ``optimisation``.
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
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed!r}")
        self.negative_ratio = negative_ratio
        self.reduced_pair_budget = reduced_pair_budget
        self.num_epochs = num_epochs
        self.seed = seed

    # -- pair assembly ---------------------------------------------------------

    def sample_pairs(
        self,
        dataset: Dataset,
        entity_ids: Sequence[str],
        spec: ModelSpec,
    ) -> SampledPairs:
        """Labelled pairs for one split, honouring the spec's training regime."""
        sampler = PairSampler(negative_ratio=self.negative_ratio, seed=self.seed)
        pairs = sampler.sample(dataset, entity_ids)
        if spec.reduced_training:
            pairs = pairs.filter_easy(max_pairs=self.reduced_pair_budget)
        if spec.max_training_pairs is not None:
            pairs = pairs.take(slice(spec.max_training_pairs))
        return pairs

    def build_pairs(
        self,
        dataset: Dataset,
        entity_ids: Sequence[str],
        spec: ModelSpec,
    ) -> list[LabeledPair]:
        """:meth:`sample_pairs` as :class:`LabeledPair` objects."""
        return self.sample_pairs(dataset, entity_ids, spec).labeled_pairs()

    # -- training ---------------------------------------------------------------

    def fine_tune(
        self,
        spec: ModelSpec | str,
        dataset: Dataset,
        train_entities: Sequence[str],
        validation_entities: Sequence[str],
        attributes: Sequence[str] | None = None,
        *,
        recorder: Any = NULL_RECORDER,
    ) -> FineTuneResult:
        """Fine-tune ``spec`` on the given train / validation entity splits.

        A trainable matcher profiles the whole dataset once
        (``prepare_profiles``) and fits on the sampled pairs' ids through
        ``fit_profiled``; the profiling counts towards ``training_seconds``.
        The result carries that state as ``profiles``, so the pipeline run
        that follows can score with it instead of profiling again.

        Before any of that, a :class:`TrainingDataError` naming the dataset
        refuses an empty dataset, and a train split without a positive pair
        when the matcher needs training.  ``recorder`` gets a ``finetune``
        stage span holding one span per phase: ``sampling``, ``profiling``,
        then the matcher's own (``features`` and ``optimisation``).
        """
        spec = resolve_model_spec(spec)
        if not len(dataset):
            raise TrainingDataError(
                f"cannot fine-tune on dataset {dataset.name!r}: it has no records"
            )
        if attributes is None:
            attributes = next(iter(dataset)).MATCHING_ATTRIBUTES
        matcher = build_matcher(
            spec, attributes, seed=self.seed, num_epochs=self.num_epochs
        )
        trainable = isinstance(matcher, TrainablePairwiseMatcher)
        if trainable and not _has_record_pair(dataset, train_entities):
            raise TrainingDataError(
                f"cannot fine-tune {spec.name!r} on dataset {dataset.name!r}: "
                "no entity in the train split has two records, so there is "
                "no training pair"
            )

        with recorder.span("finetune", kind="stage", model=spec.name) as span:
            with recorder.span("sampling"):
                train_pairs = self.sample_pairs(dataset, train_entities, spec)
                validation_pairs = self.sample_pairs(dataset, validation_entities, spec)
            if recorder.enabled:
                span.attributes.update(
                    training_pairs=len(train_pairs),
                    validation_pairs=len(validation_pairs),
                )

            start = clock.now()
            profiles = None
            if trainable:
                with recorder.span("profiling", records=len(dataset)):
                    profiles = matcher.prepare_profiles(dataset)
                matcher.fit_profiled(
                    profiles,
                    train_pairs.id_pairs(),
                    train_pairs.labels.tolist(),
                    validation_id_pairs=validation_pairs.id_pairs(),
                    validation_labels=validation_pairs.labels.tolist(),
                    recorder=recorder,
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


def _has_record_pair(dataset: Dataset, entity_ids: Sequence[str]) -> bool:
    """Whether some entity of ``entity_ids`` has two records in ``dataset``."""
    keep = set(entity_ids)
    seen: set[str] = set()
    for record in dataset:
        if record.entity_id in keep:
            if record.entity_id in seen:
                return True
            seen.add(record.entity_id)
    return False
