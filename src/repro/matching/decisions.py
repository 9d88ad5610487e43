"""Array-backed decision containers for pairwise matching.

The execution engine keeps every matcher's
:meth:`~repro.matching.base.PairwiseMatcher.score_profiled` output columnar
all the way to the API boundary: chunk tasks return float64 probability
arrays, and the engine wraps the concatenated result in a
:class:`DecisionVector` — a lazy sequence that *behaves* like a
``list[MatchDecision]`` but only materialises
:class:`~repro.matching.base.MatchDecision` objects where a consumer
actually indexes or iterates.  Stage-internal consumers never do: the
pre-cleanup stage reads the kept-edge mask straight off the probability
array via :meth:`DecisionVector.positive_pairs`.

:class:`DecisionCache` is the incremental counterpart: the persistent
store of every decision ever scored, keyed by canonical id pair and backed
by the same parallel arrays.  A delta ingest appends the arrays of the
newly scored :class:`DecisionVector` and gathers the candidate-order
vector by row index — no per-pair objects on either side, and none on
disk: state format v2 pickles the arrays.

Bitwise contract (pinned by the engine's oracle suite): a vector's
materialised decisions equal ``matcher.decide`` on the record pairs byte
for byte.  ``decide`` builds each decision as ``probability >= threshold``
from ``predict_proba``; the vector applies ``float(probabilities[i])`` /
``probabilities[i] >= threshold`` to bitwise the same values.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.graphs.graph import canonical_edge
from repro.matching.base import IdPair, MatchDecision


class DecisionVector(Sequence):
    """A lazy, array-backed sequence of :class:`MatchDecision`.

    Holds the candidate-order id pairs, the float64 probability vector and
    the boolean verdict mask; ``vector[i]`` / iteration materialise
    equivalent :class:`MatchDecision` objects on demand.  Equality compares
    element-wise against any other decision sequence (vector or list), so
    tests can diff the engine's output against ``matcher.decide`` directly.
    """

    __slots__ = ("pairs", "probabilities", "threshold", "_mask")

    def __init__(
        self,
        pairs: Sequence[IdPair],
        probabilities: np.ndarray,
        threshold: float | None = None,
        is_match: np.ndarray | None = None,
    ) -> None:
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if len(pairs) != probabilities.shape[0]:
            raise ValueError(
                f"{len(pairs)} id pairs but {probabilities.shape[0]} probabilities"
            )
        if is_match is None and threshold is None:
            raise ValueError("need a threshold or an explicit is_match mask")
        self.pairs: list[IdPair] = list(pairs)
        self.probabilities = probabilities
        self.threshold = threshold
        self._mask = None if is_match is None else np.asarray(is_match, dtype=bool)

    # -- columnar reads (no object materialisation) -------------------------

    @property
    def is_match_mask(self) -> np.ndarray:
        """The boolean verdict vector (``probabilities >= threshold``).

        Element-wise float64 comparison — bitwise the ``probability >=
        threshold`` each materialised decision carries.
        """
        if self._mask is None:
            self._mask = self.probabilities >= self.threshold
        return self._mask

    def positive_pairs(self) -> list[IdPair]:
        """``[decision.pair for decision in self if decision.is_match]``
        straight off the mask — the graph stage's fast path."""
        return [self.pairs[index] for index in np.flatnonzero(self.is_match_mask)]

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        left_id, right_id = self.pairs[index]
        return MatchDecision(
            left_id=left_id,
            right_id=right_id,
            probability=float(self.probabilities[index]),
            is_match=bool(self.is_match_mask[index]),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DecisionVector):
            return (
                self.pairs == other.pairs
                and np.array_equal(self.probabilities, other.probabilities)
                and np.array_equal(self.is_match_mask, other.is_match_mask)
            )
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecisionVector({len(self)} decisions)"


class DecisionCache:
    """Array-backed store of every decision ever scored.

    Keyed on the canonical id pair (:attr:`CandidatePair.key`); each row
    keeps the pair in as-scored orientation plus its probability and
    verdict, so :meth:`vector` serves back exactly the decisions scored —
    gathered by numpy row indexing instead of per-pair object lookups.
    Pickles as the parallel arrays; the key index is rebuilt on load.
    """

    def __init__(self) -> None:
        self._index: dict[IdPair, int] = {}
        self._pairs: list[IdPair] = []
        self._probabilities = np.zeros(0, dtype=np.float64)
        self._is_match = np.zeros(0, dtype=bool)

    # -- querying ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, key: IdPair) -> bool:
        return key in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecisionCache):
            return NotImplemented
        return (
            self._pairs == other._pairs
            and np.array_equal(self._probabilities, other._probabilities)
            and np.array_equal(self._is_match, other._is_match)
        )

    def is_match(self, key: IdPair) -> bool:
        """The stored verdict of one canonical pair."""
        return bool(self._is_match[self._index[key]])

    def vector(self, keys: Sequence[IdPair]) -> DecisionVector:
        """The stored decisions for ``keys``, as one gathered vector."""
        rows = np.fromiter(
            (self._index[key] for key in keys), dtype=np.intp, count=len(keys)
        )
        return DecisionVector(
            pairs=[self._pairs[row] for row in rows.tolist()],
            probabilities=self._probabilities[rows],
            is_match=self._is_match[rows],
        )

    # -- growing -------------------------------------------------------------

    def extend(self, keys: Sequence[IdPair], scored: DecisionVector) -> None:
        """Append newly scored decisions (aligned with their cache keys);
        the vector's arrays are adopted directly."""
        if len(keys) != len(scored.pairs):
            raise ValueError(f"{len(keys)} keys for {len(scored.pairs)} scored decisions")
        base = len(self._pairs)
        for offset, key in enumerate(keys):
            self._index[key] = base + offset
        self._pairs.extend(scored.pairs)
        self._probabilities = np.concatenate([self._probabilities, scored.probabilities])
        self._is_match = np.concatenate([self._is_match, scored.is_match_mask])

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        return {
            "pairs": self._pairs,
            "probabilities": self._probabilities,
            "is_match": self._is_match,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._pairs = state["pairs"]
        self._probabilities = state["probabilities"]
        self._is_match = state["is_match"]
        # The index is derived: rebuild it with the same canonicalisation
        # CandidatePair.key applies, in row order.
        self._index = {
            canonical_edge(left_id, right_id): row
            for row, (left_id, right_id) in enumerate(self._pairs)
        }
