"""The blocking interface.

A blocking takes a :class:`~repro.datagen.records.Dataset` and returns
*candidate pairs* — unordered pairs of record ids that the pairwise matcher
will evaluate.  Each candidate remembers which blocking produced it, because
the Pre Graph Cleanup step of GraLMatch treats token-overlap candidates in
very large components specially (Section 4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

from repro.datagen.records import Dataset, Record
from repro.graphs.graph import canonical_edge


@dataclass(frozen=True)
class CandidatePair:
    """An unordered candidate pair, tagged with its originating blocking."""

    left_id: str
    right_id: str
    blocking: str

    @property
    def key(self) -> tuple[str, str]:
        return canonical_edge(self.left_id, self.right_id)  # type: ignore[return-value]


@dataclass(frozen=True)
class BlockingDelta:
    """Result of one incremental index update (:meth:`Blocking.delta_update`).

    ``shared`` is the updated shared state; ``dirty_record_ids`` are the
    *pre-existing* records whose :meth:`Blocking.candidates_for` output may
    differ under the new state and must therefore be rescored (the newly
    ingested records are always rescored, so they are never listed here).
    """

    shared: Any
    dirty_record_ids: frozenset[str] = field(default_factory=frozenset)


class Blocking:
    """Base class for candidate pair generators.

    Every blocking runs in two phases, and the execution engine, the
    one-shot :meth:`candidate_pairs` and incremental ingestion all go
    through them:

    1. :meth:`prepare` scans the whole dataset once and returns the shared
       state every record span needs (inverted indexes, document
       frequencies, source maps).  This phase is global on purpose — naive
       dataset partitioning would change token document frequencies and
       per-record top-n selections, silently altering the candidates.
    2. :meth:`candidates_for` scores one span of records against the shared
       state, embarrassingly parallel across spans.

    The contract that makes the output independent of the span count:
    splitting the dataset's records into consecutive spans (in dataset
    order), concatenating ``candidates_for(shared, span)`` over the spans
    and de-duplicating with :func:`dedupe_pairs` gives the same pairs, in
    the same order, with the same tags, for every split.  Each blocking
    owns the rule that assigns a pair to exactly one record (see the
    individual blockings).

    A custom blocking implements :meth:`prepare` and :meth:`candidates_for`;
    it may override :meth:`owned_candidates` to score a span at once,
    :meth:`delta_update` (and :meth:`extend_index`) to fold new records
    into its state locally, and
    :meth:`rescore` / :meth:`note_rescored` to keep what its next
    :meth:`delta_update` needs.  A composite blocking overrides
    :meth:`partition` instead.
    """

    #: Name recorded on every emitted candidate pair.
    name: str = "blocking"

    def candidate_pairs(self, dataset: Dataset) -> list[CandidatePair]:
        """Return the candidate pairs for ``dataset``.

        Each :meth:`partition` part is prepared once and scored over all
        records; parts merge in declaration order before one global
        de-duplication, so the first part to find a pair tags it.
        """
        pairs: list[CandidatePair] = []
        for part in self.partition():
            pairs.extend(part.candidates_for(part.prepare(dataset), dataset.records))
        return dedupe_pairs(pairs)

    def prepare(self, dataset: Dataset) -> Any:
        """Phase 1: build the span-shared state.

        Runs once, in the parent process; the returned object is shipped to
        every worker (for process pools: once per revision, via the worker
        pool's epoch protocol) and must be picklable.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement prepare() and "
            "candidates_for(), or override partition()"
        )

    def candidates_for(
        self, shared: Any, records: Sequence[Record]
    ) -> list[CandidatePair]:
        """Phase 2: the candidate pairs owned by one span of records.

        ``records`` is a consecutive slice of the dataset's records in
        dataset order.  Results are raw (not de-duplicated): the engine
        concatenates all spans and de-duplicates once globally, because a
        duplicate pair's two endpoints may live in different spans.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement prepare() and "
            "candidates_for(), or override partition()"
        )

    def owned_candidates(
        self, shared: Any, records: Sequence[Record]
    ) -> list[tuple[CandidatePair, ...]]:
        """Each record's owned candidate pairs, aligned with ``records``.

        Entry ``i`` must equal ``tuple(candidates_for(shared,
        [records[i]]))``: single-record spans are a valid split under the
        span contract, so each entry is exactly that record's slice of the
        serial emission stream.  The incremental matcher splices these
        per-record lists into its stored record → candidates map.  (A flat
        ``candidates_for`` list cannot be split back per record in general:
        an identifier-overlap pair need not contain its owner.)

        The default asks :meth:`candidates_for` one record at a time;
        blockings that can score a whole span at once override it.
        """
        return [tuple(self.candidates_for(shared, (record,))) for record in records]

    def rescore(
        self, shared: Any, records: Sequence[Record]
    ) -> tuple[list[tuple[CandidatePair, ...]], Any]:
        """:meth:`owned_candidates` of the records an ingest rescores, plus
        notes on them.

        The notes are what the next :meth:`delta_update` needs to keep
        records clean; :meth:`note_rescored` folds them into the shared
        state.  The default has none.
        """
        return self.owned_candidates(shared, records), None

    def note_rescored(self, shared: Any, notes: Sequence[Any]) -> Any:
        """The shared state with one ingest's :meth:`rescore` notes folded
        in, one entry per rescored span.  The default keeps no notes."""
        return shared

    def saved_notes(self, shared: Any) -> Any:
        """The notes of ``shared`` a saved state's journal keeps.

        A journal segment never holds the index: the first ingest after
        loading brings the base's index forward over the records appended
        since with :meth:`extend_index` and folds these notes back in with
        :meth:`note_rescored`, as one entry.  That must give back
        ``shared``: the index by the :meth:`delta_update` contract, the
        notes by this method's.  The default keeps none.
        """
        return None

    def extend_index(
        self, shared: Any, dataset: Dataset, new_records: Sequence[Record]
    ) -> Any:
        """The shared state :meth:`delta_update` returns, without its dirty
        set.

        Loading a journal brings an index forward over records that were
        rescored before the save, so nothing is dirty and any notes come
        back through :meth:`note_rescored`.  The default runs
        :meth:`delta_update` and drops the rest; a blocking whose dirty set
        costs work overrides it.
        """
        return self.delta_update(shared, dataset, new_records).shared

    def delta_update(
        self, shared: Any, dataset: Dataset, new_records: Sequence[Record]
    ) -> BlockingDelta:
        """Fold newly ingested records into an existing shared state.

        ``dataset`` is the *full* dataset with ``new_records`` already
        appended (in ingestion order); ``shared`` is the state built for the
        dataset *without* them.  The contract that makes incremental
        ingestion byte-identical to a one-shot batch run:

        1. the returned ``shared`` must equal ``prepare(dataset)`` — the
           delta path may reuse cached derivations (tokenisations, postings)
           but never diverge from the global rebuild, and
        2. for every pre-existing record *not* in ``dirty_record_ids``,
           ``candidates_for(new_shared, [record])`` must equal
           ``candidates_for(old_shared, [record])`` — dirtiness may be
           conservative (listing too many records costs rescoring time, not
           correctness), never optimistic.

        The default rebuilds with :meth:`prepare` and marks every earlier
        record dirty, which meets both rules trivially.
        """
        new_ids = {record.record_id for record in new_records}
        return BlockingDelta(
            shared=self.prepare(dataset),
            dirty_record_ids=frozenset(
                record.record_id for record in dataset if record.record_id not in new_ids
            ),
        )

    def partition(self) -> list["Blocking"]:
        """The independent leaf blockings the execution engine fans out.

        A plain blocking is its own single partition.  Composite blockings
        override this to expose their leaves; every consumer prepares each
        part once, scores it over record spans and merges the parts in
        declaration order, which keeps the first-blocking-wins
        de-duplication of :class:`~repro.blocking.combine.CombinedBlocking`.
        """
        return [self]

    def _make_pair(self, left: Record | str, right: Record | str) -> CandidatePair:
        left_id = left if isinstance(left, str) else left.record_id
        right_id = right if isinstance(right, str) else right.record_id
        first, second = canonical_edge(left_id, right_id)
        return CandidatePair(first, second, self.name)


def dedupe_pairs(pairs: list[CandidatePair]) -> list[CandidatePair]:
    """Remove duplicate candidate pairs, keeping the first blocking that found
    each, and put every pair in canonical orientation (:attr:`CandidatePair.key`).

    This is where blocking output enters the candidate stream, so a pair's
    orientation never depends on which blocking or record emitted it first.
    """
    seen: set[tuple[str, str]] = set()
    unique: list[CandidatePair] = []
    for pair in pairs:
        key = pair.key
        if key in seen:
            continue
        seen.add(key)
        unique.append(
            pair if key[0] == pair.left_id else CandidatePair(key[0], key[1], pair.blocking)
        )
    return unique


def recall_of_blocking(pairs: list[CandidatePair], dataset: Dataset) -> float:
    """Share of ground-truth matches covered by the candidate pairs.

    This is the quantity that upper-bounds the pipeline's recall: true pairs
    discarded by the blocking can never be recovered later (Section 5.3.2).
    """
    true_matches = dataset.true_matches()
    if not true_matches:
        return 1.0
    found = {pair.key for pair in pairs}
    return len(true_matches & found) / len(true_matches)
