"""Combination of several blockings (the per-dataset recipes of Table 2)."""

from __future__ import annotations

from collections.abc import Sequence

from repro.blocking.base import Blocking, CandidatePair
from repro.datagen.records import Dataset
from repro.registry import register_blocking


@register_blocking("combined")
class CombinedBlocking(Blocking):
    """Union of the candidate pairs of several blockings.

    Duplicates are removed; when two blockings find the same pair, the pair
    keeps the tag of the blocking listed first (the ID Overlap blocking is
    conventionally listed first, so identifier-supported candidates are never
    mislabelled as token-overlap candidates during the pre-cleanup).
    """

    name = "combined"

    def __init__(self, blockings: Sequence[Blocking]) -> None:
        if not blockings:
            raise ValueError("at least one blocking is required")
        self.blockings = list(blockings)

    def partition(self) -> list[Blocking]:
        """The leaf blockings of every member, in declaration order.

        Nested combined members are flattened: dedupe is first-wins, so a
        nested combination's candidates are those of its leaves in order.
        A combined blocking is never scored as a whole — interleaving
        members per record span would break the member-major emission order
        that first-blocking-wins de-duplication relies on — so it has no
        ``prepare``/``candidates_for`` of its own.
        """
        return [leaf for member in self.blockings for leaf in member.partition()]

    def pairs_by_blocking(
        self,
        dataset: Dataset | None = None,
        pairs: Sequence[CandidatePair] | None = None,
    ) -> dict[str, int]:
        """Number of (deduplicated) candidates contributed by each blocking.

        Pass ``pairs`` (the output of an earlier :meth:`candidate_pairs`
        call) to count from it directly; otherwise the blockings run once
        here.  Callers that already hold the candidates should always pass
        them — recomputing candidate generation just for stats reporting
        doubles the blocking cost.
        """
        if pairs is None:
            if dataset is None:
                raise ValueError("either dataset or pairs is required")
            pairs = self.candidate_pairs(dataset)
        counts: dict[str, int] = {}
        for pair in pairs:
            counts[pair.blocking] = counts.get(pair.blocking, 0) + 1
        return counts
