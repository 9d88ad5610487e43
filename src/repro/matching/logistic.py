"""Feature-based logistic-regression matcher.

A compact, fast, fully-trainable matcher over the similarity features of
:class:`~repro.matching.features.PairFeatureExtractor`.  It serves two
purposes in the reproduction:

* as the classical baseline the neural matchers are compared against, and
* as the default matcher for very large candidate sets where the attention
  model would dominate the experiment's run time.

Training uses full-batch gradient descent with L2 regularisation — the
feature dimensionality is tiny, so nothing fancier is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

import numpy as np

from repro.datagen.records import Record
from repro.matching.base import IdPair, RecordPair, TrainablePairwiseMatcher
from repro.matching.features import PairFeatureExtractor
from repro.matching.profiles import ProfileStore, distinct_records


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise.

    ``exp`` only ever sees ``-|z|``, so it cannot overflow; each branch is
    the quotient the sign of ``z`` makes stable.  ``minimum(z, -z)`` rather
    than ``-abs(z)``: it is the same number, but it keeps a NaN's sign bit,
    so the result is bitwise the masked two-branch form's on every input.
    """
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _targets(
    pairs: Sequence[object], labels: Sequence[int], pairs_name: str, labels_name: str
) -> np.ndarray:
    """Labels as float targets, after checking they fit the pairs and are 0/1."""
    if len(pairs) != len(labels):
        raise ValueError(
            f"{pairs_name} and {labels_name} must have the same length "
            f"({len(pairs)} vs {len(labels)})"
        )
    targets = np.asarray(labels, dtype=np.float64)
    if set(np.unique(targets)) - {0.0, 1.0}:
        raise ValueError(f"{labels_name} must be 0 or 1")
    return targets


@dataclass
class LogisticTrainingHistory:
    """Loss trajectory of one fit, useful for tests and diagnostics."""

    train_loss: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)


class LogisticRegressionMatcher(TrainablePairwiseMatcher):
    """Binary logistic regression over pair similarity features."""

    def __init__(
        self,
        learning_rate: float = 0.5,
        num_iterations: int = 300,
        l2: float = 1e-3,
        threshold: float = 0.5,
        extractor: PairFeatureExtractor | None = None,
        class_weighted: bool = True,
        seed: int = 0,
    ) -> None:
        if not (math.isfinite(learning_rate) and learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {learning_rate!r}")
        if isinstance(num_iterations, bool) or not isinstance(num_iterations, int):
            raise ValueError(f"num_iterations must be an int, got {num_iterations!r}")
        if num_iterations < 1:
            raise ValueError(f"num_iterations must be at least 1, got {num_iterations!r}")
        if not (math.isfinite(l2) and l2 >= 0):
            raise ValueError(f"l2 must be finite and non-negative, got {l2!r}")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
        self.learning_rate = learning_rate
        self.num_iterations = num_iterations
        self.l2 = l2
        self.threshold = threshold
        self.extractor = extractor or PairFeatureExtractor()
        self.class_weighted = class_weighted
        self.seed = seed

        self._weights: np.ndarray | None = None
        self._bias: float = 0.0
        self._feature_means: np.ndarray | None = None
        self._feature_scales: np.ndarray | None = None
        self.history = LogisticTrainingHistory()

    # -- training ---------------------------------------------------------------

    def fit(
        self,
        pairs: Sequence[RecordPair],
        labels: Sequence[int],
        validation_pairs: Sequence[RecordPair] | None = None,
        validation_labels: Sequence[int] | None = None,
    ) -> "LogisticRegressionMatcher":
        """Fit on labelled record pairs; see :meth:`fit_profiled`.

        Profiles the distinct records of the training and validation pairs
        into one store — two different records sharing an id raise
        ``ValueError`` — and fits on their id pairs against it.
        """
        validation_pairs = () if validation_pairs is None else validation_pairs
        store = self.prepare_profiles(distinct_records([*pairs, *validation_pairs]))
        return self.fit_profiled(
            store,
            [(left.record_id, right.record_id) for left, right in pairs],
            labels,
            [(left.record_id, right.record_id) for left, right in validation_pairs],
            validation_labels,
        )

    def fit_profiled(
        self,
        profiles: ProfileStore,
        id_pairs: Sequence[IdPair],
        labels: Sequence[int],
        validation_id_pairs: Sequence[IdPair] | None = None,
        validation_labels: Sequence[int] | None = None,
    ) -> "LogisticRegressionMatcher":
        """Fit on labelled id pairs against a prepared store.

        Features come from
        :meth:`~repro.matching.features.PairFeatureExtractor.extract_sliced`
        on ``profiles``, which may hold more records than the pairs use
        (the experiment passes its corpus store, which the matching stage
        then reuses).  Validation pairs only record a loss history.
        Validation input is checked like the training set (equal lengths,
        labels 0 or 1); an empty validation set counts as absent.
        """
        targets = _targets(id_pairs, labels, "pairs", "labels")
        if not len(targets):
            raise ValueError("cannot fit on an empty training set")
        validation_targets = _targets(
            () if validation_id_pairs is None else validation_id_pairs,
            () if validation_labels is None else validation_labels,
            "validation_pairs",
            "validation_labels",
        )
        features = self.extractor.extract_sliced(profiles, id_pairs)
        validation_features = None
        if len(validation_targets):
            validation_features = self.extractor.extract_sliced(
                profiles, validation_id_pairs
            )
        return self._fit_matrix(
            features, targets, validation_features, validation_targets
        )

    def _fit_matrix(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        validation_features: np.ndarray | None,
        validation_targets: np.ndarray,
    ) -> "LogisticRegressionMatcher":
        """Fit the scaler, then run full-batch gradient descent.

        The loop's arithmetic — the three matrix products, their shapes and
        the update order — is pinned bitwise by the ``reference_fit`` oracle
        in ``tests/matching/test_logistic_oracle.py``.
        """
        self._fit_scaler(features)
        features = self._scale(features)
        if validation_features is not None:
            validation_features = self._scale(validation_features)

        rng = np.random.default_rng(self.seed)
        num_features = features.shape[1]
        weights = rng.normal(0.0, 0.01, size=num_features)
        bias = 0.0

        sample_weights = self._sample_weights(targets)
        validation_weights = np.ones_like(validation_targets)
        self.history = LogisticTrainingHistory()

        for _ in range(self.num_iterations):
            logits = features @ weights + bias
            probabilities = _sigmoid(logits)
            errors = (probabilities - targets) * sample_weights
            gradient_weights = features.T @ errors / len(targets) + self.l2 * weights
            gradient_bias = float(errors.mean())
            weights -= self.learning_rate * gradient_weights
            bias -= self.learning_rate * gradient_bias

            self.history.train_loss.append(
                self._loss(probabilities, targets, sample_weights, weights)
            )
            if validation_features is not None:
                validation_probabilities = _sigmoid(validation_features @ weights + bias)
                self.history.validation_loss.append(
                    self._loss(
                        validation_probabilities,
                        validation_targets,
                        validation_weights,
                        weights,
                    )
                )

        self._weights = weights
        self._bias = bias
        return self

    def _sample_weights(self, targets: np.ndarray) -> np.ndarray:
        """Balance classes so the 5:1 negative ratio does not bias the fit."""
        if not self.class_weighted:
            return np.ones_like(targets)
        num_positive = float(targets.sum())
        num_negative = float(len(targets) - num_positive)
        if num_positive == 0 or num_negative == 0:
            return np.ones_like(targets)
        positive_weight = len(targets) / (2.0 * num_positive)
        negative_weight = len(targets) / (2.0 * num_negative)
        return np.where(targets == 1.0, positive_weight, negative_weight)

    def _loss(
        self,
        probabilities: np.ndarray,
        targets: np.ndarray,
        sample_weights: np.ndarray,
        weights: np.ndarray,
    ) -> float:
        # Targets are exactly 0.0 or 1.0 (``_targets`` checks), so the log of
        # the selected term is bitwise t·log(p+ε) + (1−t)·log(1−p+ε), signed
        # zeros included, at one log per pair instead of two.
        eps = 1e-12
        cross_entropy = -np.log(
            np.where(targets == 1.0, probabilities + eps, 1.0 - probabilities + eps)
        )
        return float(
            (cross_entropy * sample_weights).mean() + 0.5 * self.l2 * (weights @ weights)
        )

    # -- feature scaling -----------------------------------------------------------

    def _fit_scaler(self, features: np.ndarray) -> None:
        self._feature_means = features.mean(axis=0)
        scales = features.std(axis=0)
        scales[scales < 1e-9] = 1.0
        self._feature_scales = scales

    def _scale(self, features: np.ndarray) -> np.ndarray:
        if self._feature_means is None or self._feature_scales is None:
            raise RuntimeError("scaler not fitted")
        return (features - self._feature_means) / self._feature_scales

    # -- inference -------------------------------------------------------------------

    def predict_proba(self, pairs: Sequence[RecordPair]) -> list[float]:
        if self._weights is None:
            raise RuntimeError("matcher must be fitted before predicting")
        if not pairs:
            return []
        features = self._scale(self.extractor.extract_batch(pairs))
        return self._probabilities(features)

    def _probability_vector(self, scaled_features: np.ndarray) -> np.ndarray:
        # Row-local on purpose: each pair's logit is an elementwise product
        # reduced along its own row, never one batched gemv — BLAS may pick
        # different accumulation paths at different matrix heights, which
        # shifts borderline logits by an ULP.  NumPy's axis-1 pairwise
        # reduction runs per row over a fixed length, so a pair's
        # probability is bitwise independent of how inference was batched —
        # the property the incremental subsystem's decision cache (reusing
        # a probability scored under one chunking inside a run that chose
        # another) relies on.
        logits = (scaled_features * self._weights).sum(axis=1)
        return _sigmoid(logits + self._bias)

    def _probabilities(self, scaled_features: np.ndarray) -> list[float]:
        return [float(p) for p in self._probability_vector(scaled_features)]

    # -- two-phase inference (the engine's route) ---------------------------------

    def prepare_profiles(self, records: Iterable[Record]) -> ProfileStore:
        """Profile every record once; pairs are then scored by id."""
        return ProfileStore.prepare(records)

    def score_profiled(
        self, profiles: ProfileStore, id_pairs: Sequence[IdPair]
    ) -> np.ndarray:
        """Probability vector for id pairs resolved against a profile store.

        Feature extraction, scaling and the row-local logit reduction are
        all array expressions — no per-pair Python.  Byte-identical to
        :meth:`predict_proba` on the corresponding record pairs: both run
        :meth:`~repro.matching.features.PairFeatureExtractor.extract_batch_profiles`
        (``predict_proba`` through ``extract_batch``, which profiles the
        pairs' records first), every feature is row-local, and so is the
        logit reduction.
        """
        if self._weights is None:
            raise RuntimeError("matcher must be fitted before predicting")
        if not id_pairs:
            return np.zeros(0, dtype=np.float64)
        features = self._scale(self.extractor.extract_batch_profiles(profiles, id_pairs))
        return self._probability_vector(features)

    # -- introspection -----------------------------------------------------------------

    def feature_importances(self) -> dict[str, float]:
        """Absolute weight per feature name (after scaling), for diagnostics."""
        if self._weights is None:
            raise RuntimeError("matcher must be fitted before inspecting weights")
        return {
            name: float(weight)
            for name, weight in zip(self.extractor.feature_names(), self._weights)
        }
