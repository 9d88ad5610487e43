"""The pairwise matcher interface.

Every matcher — neural, feature-based or heuristic — consumes *record pairs*
and produces Match / NoMatch decisions with a probability.  The entity group
matching pipeline only depends on this interface (Figure 1 explicitly
supports "any matching method that produces pairwise matches").

The execution engine scores every matcher through one two-phase route,
:meth:`PairwiseMatcher.prepare_profiles` once per run and
:meth:`PairwiseMatcher.score_profiled` per chunk of id pairs.  The base
class implements both over plain records, so a matcher only has to supply
:meth:`PairwiseMatcher.predict_proba`; feature-based matchers override the
pair with a prepared :class:`~repro.matching.profiles.ProfileStore` and a
vectorised scorer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.datagen.records import Record


@dataclass(frozen=True)
class ScoredPair:
    """A candidate pair together with the matcher's probability of a match."""

    left_id: str
    right_id: str
    probability: float

    @property
    def pair(self) -> tuple[str, str]:
        return (self.left_id, self.right_id)


@dataclass(frozen=True)
class MatchDecision:
    """Final Match / NoMatch decision for one candidate pair."""

    left_id: str
    right_id: str
    probability: float
    is_match: bool

    @property
    def pair(self) -> tuple[str, str]:
        return (self.left_id, self.right_id)


RecordPair = tuple[Record, Record]


#: An unordered pair referenced by record id — the task payload of pairwise
#: inference (the records themselves live in the prepared profiles, shipped
#: to each worker once).
IdPair = tuple[str, str]


class PairwiseMatcher(ABC):
    """Binary Match / NoMatch classifier over record pairs.

    Besides the record-pair entry points, every matcher implements the
    two-phase protocol the execution engine dispatches through, the matching
    analogue of the blocking layer's ``prepare`` / ``candidates_for``:

    1. :meth:`prepare_profiles` derives per-record state once per run.  Runs
       in the parent process; the result must be picklable.
    2. :meth:`score_profiled` scores chunks of bare ``(left_id, right_id)``
       pairs against that state into a float64 probability vector,
       embarrassingly parallel across chunks.

    The defaults keep the records themselves as the "profiles" and call
    :meth:`predict_proba` on each chunk's record pairs.  Matchers with
    record-local precomputation override both (a
    :class:`~repro.matching.profiles.ProfileStore` plus array expressions).
    The contract: for every chunk,
    ``score_profiled(prepare_profiles(records), ids)`` must equal
    ``predict_proba(pairs)`` on that chunk's record pairs **byte for byte**
    — profiles precompute record-local work, they never change it.
    :meth:`decide` on record pairs is the oracle the engine is tested
    against.
    """

    #: Decision threshold applied to the match probability.
    threshold: float = 0.5

    @abstractmethod
    def predict_proba(self, pairs: Sequence[RecordPair]) -> list[float]:
        """Return the match probability for every pair, in order."""

    def predict(self, pairs: Sequence[RecordPair]) -> list[bool]:
        """Apply the decision threshold to :meth:`predict_proba`."""
        return [p >= self.threshold for p in self.predict_proba(pairs)]

    def decide(self, pairs: Sequence[RecordPair]) -> list[MatchDecision]:
        """Return full decisions (ids, probability, verdict) for every pair."""
        probabilities = self.predict_proba(pairs)
        return [
            MatchDecision(
                left_id=left.record_id,
                right_id=right.record_id,
                probability=probability,
                is_match=probability >= self.threshold,
            )
            for (left, right), probability in zip(pairs, probabilities)
        ]

    # -- two-phase inference (the engine's route) ------------------------------

    def prepare_profiles(self, records: Iterable[Record]) -> Any:
        """Phase 1: per-record state, built once per run.

        Runs in the parent process; the returned object is shipped to every
        process-pool worker (once per revision, via the worker pool's epoch
        protocol) and must be picklable.  The default is an id → record
        mapping, which :meth:`score_profiled` resolves pairs against.
        """
        return {record.record_id: record for record in records}

    def score_profiled(self, profiles: Any, id_pairs: Sequence[IdPair]) -> np.ndarray:
        """Phase 2: the probability vector for one chunk of id pairs.

        Returns a float64 array of length ``len(id_pairs)`` whose values are
        bitwise those :meth:`predict_proba` returns for the corresponding
        record pairs.  The default resolves the pairs through the mapping
        :meth:`prepare_profiles` built and calls :meth:`predict_proba` on
        the whole chunk, so a vectorised matcher sees exactly the batch
        shape the engine chose.
        """
        pairs = [(profiles[left_id], profiles[right_id]) for left_id, right_id in id_pairs]
        return np.asarray(self.predict_proba(pairs), dtype=np.float64)

    def score_pairs(self, pairs: Sequence[RecordPair]) -> list[ScoredPair]:
        """Return scored pairs without applying the threshold."""
        probabilities = self.predict_proba(pairs)
        return [
            ScoredPair(left.record_id, right.record_id, probability)
            for (left, right), probability in zip(pairs, probabilities)
        ]


class TrainablePairwiseMatcher(PairwiseMatcher):
    """A matcher that is fine-tuned on labelled pairs before use.

    :meth:`fit_profiled` is the fitting twin of :meth:`score_profiled`: it
    trains on id pairs against the state :meth:`prepare_profiles` built, so
    a caller that profiles its corpus once can fit on it and then score
    with the same state.
    """

    @abstractmethod
    def fit(
        self,
        pairs: Sequence[RecordPair],
        labels: Sequence[int],
        validation_pairs: Sequence[RecordPair] | None = None,
        validation_labels: Sequence[int] | None = None,
    ) -> "TrainablePairwiseMatcher":
        """Train on labelled pairs (1 = match, 0 = non-match)."""

    def fit_profiled(
        self,
        profiles: Any,
        id_pairs: Sequence[IdPair],
        labels: Sequence[int],
        validation_id_pairs: Sequence[IdPair] | None = None,
        validation_labels: Sequence[int] | None = None,
    ) -> "TrainablePairwiseMatcher":
        """Train on labelled id pairs against :meth:`prepare_profiles` state.

        Must fit exactly what :meth:`fit` fits on the corresponding record
        pairs.  The default resolves the ids through the id → record
        mapping the base :meth:`prepare_profiles` returns and calls
        :meth:`fit`; a matcher that overrides :meth:`prepare_profiles`
        overrides this too.
        """

        def resolve(pairs: Sequence[IdPair]) -> list[RecordPair]:
            return [(profiles[left_id], profiles[right_id]) for left_id, right_id in pairs]

        return self.fit(
            resolve(id_pairs),
            labels,
            validation_pairs=(
                None if validation_id_pairs is None else resolve(validation_id_pairs)
            ),
            validation_labels=validation_labels,
        )
