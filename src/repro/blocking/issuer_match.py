"""Issuer Match blocking (securities only).

"For each security record, consider as candidate pairs those involving all
other securities issued by companies previously matched to the security's
issuer" (Section 5.3.1).  The blocking therefore needs the *result of the
company matching*: a mapping from company record id to its matched company
group.  Securities whose issuers landed in the same company group become
candidates even when they share no identifiers and have generic names.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

from repro.blocking.base import Blocking, BlockingDelta, CandidatePair
from repro.datagen.records import Dataset, Record, SecurityRecord
from repro.registry import register_blocking


@dataclass(frozen=True)
class IssuerGroupIndex:
    """Prepared state: securities grouped by issuer.

    Groups preserve first-encounter order (the order the serial pair loop
    walks) and each group's security list is in dataset order.
    ``groups_by_owner`` inverts the ownership rule so a span only touches
    the groups it owns: it maps each group's *first security* record to the
    group keys it owns, in encounter order, pre-filtered to groups that can
    produce pairs.
    """

    #: issuer group index -> securities issued by that group, dataset order.
    securities_by_group: dict[int, list[SecurityRecord]]
    #: first-security record id -> its owned multi-security groups, in order.
    groups_by_owner: dict[str, list[int]]


@register_blocking("issuer_match")
class IssuerMatchBlocking(Blocking):
    """Candidates among securities whose issuers were matched together."""

    name = "issuer_match"

    def __init__(
        self,
        issuer_groups: Iterable[Iterable[str]] | None = None,
        issuer_group_of: Mapping[str, int] | None = None,
        cross_source_only: bool = True,
    ) -> None:
        """Either ``issuer_groups`` (an iterable of company-record-id groups,
        e.g. the output of the company pipeline) or a prebuilt
        ``issuer_group_of`` mapping must be provided."""
        if issuer_groups is None and issuer_group_of is None:
            raise ValueError("issuer_groups or issuer_group_of is required")
        if not isinstance(cross_source_only, bool):
            raise ValueError(
                f"cross_source_only must be a bool, got {cross_source_only!r}"
            )
        if issuer_group_of is not None:
            self._group_of: dict[str, int] = dict(issuer_group_of)
        else:
            self._group_of = {}
            for group_index, group in enumerate(issuer_groups or ()):
                for company_record_id in group:
                    self._group_of[company_record_id] = group_index
        self.cross_source_only = cross_source_only

    def prepare(self, dataset: Dataset) -> IssuerGroupIndex:
        """Group the dataset's securities by matched issuer group, once."""
        securities_by_group: dict[int, list[SecurityRecord]] = defaultdict(list)
        for record in dataset:
            if not isinstance(record, SecurityRecord):
                continue
            if record.issuer_record_id is None:
                continue
            group = self._group_of.get(record.issuer_record_id)
            if group is None:
                continue
            securities_by_group[group].append(record)
        groups_by_owner: dict[str, list[int]] = defaultdict(list)
        for group, securities in securities_by_group.items():  # repro-lint: disable=unordered-iteration -- insertion-ordered: built above in dataset order
            if len(securities) >= 2:
                groups_by_owner[securities[0].record_id].append(group)
        return IssuerGroupIndex(
            securities_by_group=dict(securities_by_group),
            groups_by_owner=dict(groups_by_owner),
        )

    def delta_update(
        self, shared: IssuerGroupIndex, dataset: Dataset, new_records: Sequence[Record]
    ) -> BlockingDelta:
        """Append new securities to their issuer groups, locally.

        The issuer-group mapping is fixed at construction, so a new security
        only ever extends one group's member list (at the end — dataset
        order).  A group's first security never changes; the only dirty
        pre-existing record is the first security of a group that gained a
        member (its emitted pair set grows), which includes the
        one-to-two-members transition that first makes the group an owner.
        """
        securities_by_group = dict(shared.securities_by_group)
        touched_groups: dict[int, None] = {}
        for record in new_records:
            if not isinstance(record, SecurityRecord):
                continue
            if record.issuer_record_id is None:
                continue
            group = self._group_of.get(record.issuer_record_id)
            if group is None:
                continue
            existing = securities_by_group.get(group)
            securities_by_group[group] = (
                [*existing, record] if existing else [record]
            )
            touched_groups.setdefault(group)

        new_ids = {record.record_id for record in new_records}
        groups_by_owner = dict(shared.groups_by_owner)
        dirty: set[str] = set()
        for group in touched_groups:
            securities = securities_by_group[group]
            if len(securities) < 2:
                continue
            owner_id = securities[0].record_id
            # Each security belongs to exactly one issuer group, so an
            # owner's list holds at most its own group.
            groups_by_owner[owner_id] = [group]
            if owner_id not in new_ids:
                dirty.add(owner_id)
        return BlockingDelta(
            shared=IssuerGroupIndex(
                securities_by_group=securities_by_group,
                groups_by_owner=groups_by_owner,
            ),
            dirty_record_ids=frozenset(dirty),
        )

    def candidates_for(
        self, shared: IssuerGroupIndex, records: Sequence[Record]
    ) -> list[CandidatePair]:
        """Emit the pairs of every issuer group *first seen* in the span.

        Mirrors :meth:`IdOverlapBlocking.candidates_for`: the serial loop is
        group-major in first-encounter order, so assigning each group to the
        span containing its first security keeps span concatenation equal
        to the serial stream — walked owner-record by owner-record so each
        span costs only its share of the index.
        """
        pairs: list[CandidatePair] = []
        for record in records:
            for group in shared.groups_by_owner.get(record.record_id, ()):
                securities = shared.securities_by_group[group]
                for i, left in enumerate(securities):
                    for right in securities[i + 1:]:
                        if self.cross_source_only and left.source == right.source:
                            continue
                        pairs.append(self._make_pair(left, right))
        return pairs

    @classmethod
    def from_company_groups(
        cls, company_groups: Iterable[Iterable[str]], cross_source_only: bool = True
    ) -> "IssuerMatchBlocking":
        """Build the blocking from the output groups of the company pipeline."""
        return cls(issuer_groups=company_groups, cross_source_only=cross_source_only)

    @classmethod
    def from_ground_truth(cls, companies: Dataset) -> "IssuerMatchBlocking":
        """Build the blocking from the companies' ground-truth groups.

        Useful for tests and for upper-bound ("oracle issuer matching")
        ablations; the real pipeline uses :meth:`from_company_groups` with
        predicted groups.
        """
        return cls(issuer_groups=companies.entity_groups().values())
