"""ID Overlap blocking.

Securities: candidate pairs are records that share any non-empty identifier
(ISIN, CUSIP, SEDOL or VALOR).  Companies: candidate pairs are records whose
*associated securities* share an identifier — the generator exposes this as
the per-record ``security_isins`` tuple, mirroring how the paper evaluates
"the companies whose associated securities have a matching identifier".

This blocking is cheap (one inverted index pass) and corresponds to the
industry-standard heuristic; it produces both true matches and the
data-drift false candidates described in Section 3.3.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from collections.abc import Sequence

from repro.blocking.base import Blocking, BlockingDelta, CandidatePair
from repro.datagen.identifiers import SECURITY_ID_FIELDS
from repro.datagen.records import CompanyRecord, Dataset, Record, SecurityRecord
from repro.registry import register_blocking
from repro.text.normalize import normalize_identifier


@dataclass(frozen=True)
class IdentifierIndex:
    """Prepared state: the inverted identifier index.

    ``index`` preserves first-encounter order of the identifier values (the
    order the serial pair loop walks), and each value's record list is in
    dataset order.  ``values_by_owner`` inverts the ownership rule so a
    span only touches the values it owns (instead of rescanning the whole
    index per span): it maps each value's *first carrier* record to that
    record's values, in encounter order, pre-filtered to values that can
    produce pairs.
    """

    #: prefixed identifier value -> record ids carrying it, dataset order.
    index: dict[str, list[str]]
    #: first-carrier record id -> its owned multi-record values, in order.
    values_by_owner: dict[str, list[str]]
    #: record id -> source name.
    sources: dict[str, str]


@register_blocking("id_overlap")
class IdOverlapBlocking(Blocking):
    """Candidate pairs based exclusively on identifier attribute overlap."""

    name = "id_overlap"

    def __init__(self, cross_source_only: bool = True) -> None:
        if not isinstance(cross_source_only, bool):
            raise ValueError(
                f"cross_source_only must be a bool, got {cross_source_only!r}"
            )
        #: When true (the default), only pairs from different data sources are
        #: produced — within one source identifiers are assumed to be unique.
        self.cross_source_only = cross_source_only

    def prepare(self, dataset: Dataset) -> IdentifierIndex:
        """One inverted-index pass over the whole dataset."""
        index: dict[str, list[str]] = defaultdict(list)
        for record in dataset:
            for value in self._identifier_values(record):
                index[value].append(record.record_id)
        values_by_owner: dict[str, list[str]] = defaultdict(list)
        for value, record_ids in index.items():  # repro-lint: disable=unordered-iteration -- insertion-ordered: built above in dataset order
            if len(record_ids) >= 2:
                values_by_owner[record_ids[0]].append(value)
        sources = {record.record_id: record.source for record in dataset}
        return IdentifierIndex(
            index=dict(index),
            values_by_owner=dict(values_by_owner),
            sources=sources,
        )

    def delta_update(
        self, shared: IdentifierIndex, dataset: Dataset, new_records: Sequence[Record]
    ) -> BlockingDelta:
        """Append new carriers to the inverted index, locally.

        Identifier joins are exact-key, so only the values a new record
        carries can change: their record lists gain the new carriers (at the
        end — new records sit at the end of dataset order), and their
        *first-carrier* owner must re-derive its owned-value list (a value
        that just crossed from one carrier to two starts producing pairs).
        A value's first carrier never changes (new records are appended), so
        the only dirty pre-existing records are owners of a value touched by
        a new record — every other record's emission is untouched.
        """
        index = dict(shared.index)
        sources = dict(shared.sources)
        touched_values: dict[str, None] = {}
        for record in new_records:
            sources[record.record_id] = record.source
            for value in self._identifier_values(record):
                existing = index.get(value)
                index[value] = [*existing, record.record_id] if existing else [
                    record.record_id
                ]
                touched_values.setdefault(value)

        new_ids = {record.record_id for record in new_records}
        values_by_owner = dict(shared.values_by_owner)
        dirty: set[str] = set()
        reowned: dict[str, None] = {}
        for value in touched_values:
            record_ids = index[value]
            if len(record_ids) >= 2:
                reowned.setdefault(record_ids[0])
        for owner_id in reowned:
            # Re-derive the owner's owned-value list in its own value order
            # (== the global first-encounter order restricted to this owner,
            # since the owner is by definition each value's first carrier).
            # Deduped like the index insertion: a value a record carries
            # twice is keyed once.
            owned: dict[str, None] = {}
            for value in self._identifier_values(dataset.record(owner_id)):
                if index[value][0] == owner_id and len(index[value]) >= 2:
                    owned.setdefault(value)
            values_by_owner[owner_id] = list(owned)
            if owner_id not in new_ids:
                dirty.add(owner_id)
        return BlockingDelta(
            shared=IdentifierIndex(
                index=index, values_by_owner=values_by_owner, sources=sources
            ),
            dirty_record_ids=frozenset(dirty),
        )

    def candidates_for(
        self, shared: IdentifierIndex, records: Sequence[Record]
    ) -> list[CandidatePair]:
        """Emit the pairs of every identifier value *first seen* in the span.

        The serial loop emits pairs value by value, values ordered by the
        dataset position of their first carrier.  Spans are consecutive
        record ranges, so assigning each value to the span containing its
        first carrier keeps the concatenated span outputs in exactly that
        value order — and each value's pairs are emitted whole, untouched.
        (Walking the span's records and each record's owned values in
        encounter order *is* that value order, and costs only the span's
        share of the index instead of a full rescan per span.)
        """
        pairs: list[CandidatePair] = []
        for record in records:
            for value in shared.values_by_owner.get(record.record_id, ()):
                record_ids = shared.index[value]
                for i, left_id in enumerate(record_ids):
                    left_source = shared.sources[left_id]
                    for right_id in record_ids[i + 1:]:
                        if left_id == right_id:
                            continue
                        if self.cross_source_only and left_source == shared.sources[right_id]:
                            continue
                        pairs.append(self._make_pair(left_id, right_id))
        return pairs

    @staticmethod
    def _identifier_values(record) -> list[str]:
        values: list[str] = []
        if isinstance(record, SecurityRecord):
            for field in SECURITY_ID_FIELDS:
                normalized = normalize_identifier(getattr(record, field))
                if normalized:
                    # Prefix with the field name so an ISIN can never collide
                    # with a CUSIP that happens to share characters.
                    values.append(f"{field}:{normalized}")
        elif isinstance(record, CompanyRecord):
            for isin in record.security_isins:
                normalized = normalize_identifier(isin)
                if normalized:
                    values.append(f"isin:{normalized}")
        return values
