"""Heuristic (non-learned) pairwise matchers.

Two baselines:

* :class:`IdOverlapMatcher` — "the benchmark heuristic often used to match
  these types of financial records" (Section 5.3.1): predict a match exactly
  when the records share an identifier (securities) or an associated
  security ISIN (companies).  Its failure mode is precisely the data-drift
  phenomenon: merger-contaminated identifiers yield false positives and
  re-issued identifiers yield false negatives.
* :class:`ThresholdNameMatcher` — predict a match when the (corporate-term
  stripped) names are closer than a threshold under Jaro–Winkler.  Used in
  tests and as an ingredient of ablation benches.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.datagen.identifiers import identifier_overlap
from repro.datagen.records import CompanyRecord, Record, SecurityRecord
from repro.matching.base import IdPair, PairwiseMatcher, RecordPair
from repro.matching.features import gather_stripped_similarities
from repro.matching.profiles import ProfileStore, record_name
from repro.text.normalize import normalize_identifier, strip_corporate_terms
from repro.text.similarity import jaro_winkler_similarity


class IdOverlapMatcher(PairwiseMatcher):
    """Match records exactly when they share a (non-empty) identifier."""

    def __init__(self, threshold: float = 0.5) -> None:
        self.threshold = threshold

    def predict_proba(self, pairs: Sequence[RecordPair]) -> list[float]:
        return [1.0 if self._share_identifier(left, right) else 0.0 for left, right in pairs]

    @staticmethod
    def _share_identifier(left: Record, right: Record) -> bool:
        if isinstance(left, SecurityRecord) and isinstance(right, SecurityRecord):
            return bool(
                identifier_overlap(left.identifier_values(), right.identifier_values())
            )
        if isinstance(left, CompanyRecord) and isinstance(right, CompanyRecord):
            left_isins = {
                normalize_identifier(value) for value in left.security_isins if value
            }
            right_isins = {
                normalize_identifier(value) for value in right.security_isins if value
            }
            return bool(left_isins & right_isins)
        return False


class ThresholdNameMatcher(PairwiseMatcher):
    """Match records whose names exceed a Jaro–Winkler similarity threshold."""

    def __init__(self, similarity_threshold: float = 0.92) -> None:
        if not 0.0 <= similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in [0, 1]")
        self.similarity_threshold = similarity_threshold
        self.threshold = 0.5

    def predict_proba(self, pairs: Sequence[RecordPair]) -> list[float]:
        # record_name is the same lookup profiles are built from, so the
        # profiled path below cannot drift from this one.
        probabilities = []
        for left, right in pairs:
            similarity = jaro_winkler_similarity(
                strip_corporate_terms(record_name(left)),
                strip_corporate_terms(record_name(right)),
            )
            probabilities.append(self._probability(similarity))
        return probabilities

    def _probability(self, similarity: float) -> float:
        return 1.0 if similarity >= self.similarity_threshold else similarity

    # -- two-phase inference (the engine's route) ---------------------------------

    def prepare_profiles(self, records: Iterable[Record]) -> ProfileStore:
        return ProfileStore.prepare(records)

    def score_profiled(
        self, profiles: ProfileStore, id_pairs: Sequence[IdPair]
    ) -> np.ndarray:
        # A prepared store carries the stripped names, so pairs only pay the
        # Jaro–Winkler comparison.  The store's stripped-name column is
        # strip_corporate_terms applied to record_name, and the batched
        # kernel is bitwise-equal to the scalar jaro_winkler_similarity — so
        # this vector holds exactly the probabilities decide() computes on
        # the record pairs.
        if not id_pairs:
            return np.zeros(0, dtype=np.float64)
        left_rows, right_rows = profiles.row_indices(id_pairs)
        similarities = gather_stripped_similarities(profiles, left_rows, right_rows)
        return np.where(similarities >= self.similarity_threshold, 1.0, similarities)
