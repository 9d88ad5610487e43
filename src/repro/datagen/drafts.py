"""Mutable per-entity drafts that data artifacts operate on.

Dataset generation proceeds in three stages:

1. the seed corpus is expanded into one :class:`CompanyGroupDraft` per entity
   (per-source attribute dictionaries for the company plus one
   :class:`SecurityDraft` per issued security),
2. data artifacts mutate the drafts (possibly linking two drafts, for
   acquisition / merger events),
3. the generator freezes the drafts into immutable
   :class:`~repro.datagen.records.CompanyRecord` /
   :class:`~repro.datagen.records.SecurityRecord` objects with ground truth.

Keeping a mutable intermediate form makes the artifacts small and
composable — exactly how the paper describes them ("multiple data artifacts
are sequentially applied to each record group and thus their effects become
intertwined").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.datagen.seed import SeedCompany

AttributeDict = dict[str, Any]


@dataclass
class SecurityDraft:
    """A security entity plus its per-source record drafts."""

    entity_id: str
    name: str
    security_type: str
    #: Canonical identifier bundle (isin / cusip / sedol / valor).
    identifiers: dict[str, str]
    ticker: str
    #: Source name -> mutable attribute dictionary for that source's record.
    records: dict[str, AttributeDict] = field(default_factory=dict)

    def sources(self) -> list[str]:
        return sorted(self.records)


@dataclass
class CompanyGroupDraft:
    """A company entity, its per-source record drafts and its securities."""

    seed: SeedCompany
    #: Ground-truth entity id; acquisitions rewrite this to the acquirer's id.
    entity_id: str
    #: Source name -> mutable attribute dictionary for that source's record.
    company_records: dict[str, AttributeDict] = field(default_factory=dict)
    securities: list[SecurityDraft] = field(default_factory=list)
    #: Names of artifacts applied, for provenance / statistics.
    applied_artifacts: list[str] = field(default_factory=list)
    #: Set when the group is the acquiree of an acquisition event.
    acquired_by: str | None = None
    #: Set when the group took part in a merger event (not a match).
    merged_with: str | None = None

    def sources(self) -> list[str]:
        return sorted(self.company_records)

    def mark(self, artifact_name: str) -> None:
        self.applied_artifacts.append(artifact_name)
