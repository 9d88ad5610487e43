"""Record and dataset model for multi-source entity group matching.

A *record* is one row from one data source.  Records carry the ground-truth
``entity_id`` of the real-world entity they describe (available because we
generate the data), which the experiment harness uses for scoring but which
no matcher is allowed to read.

Three record families mirror the paper's datasets:

* :class:`CompanyRecord` — name, city, region, country code, description;
* :class:`SecurityRecord` — security name / type, issuer, ISIN / CUSIP /
  SEDOL / VALOR identifiers;
* :class:`ProductRecord` — WDC-Products-style offers (brand, title, price,
  description).

A :class:`Dataset` bundles the records of one matching task with its ground
truth (entity groups and true match pairs).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, fields, replace
from collections.abc import Iterable, Iterator
from typing import Any, ClassVar

MatchPair = tuple[str, str]


@dataclass
class Record:
    """Base record: one row of one data source.

    ``record_id`` is globally unique across sources; ``source`` names the
    data source (e.g. ``"S1"``); ``entity_id`` is the ground-truth group.
    """

    record_id: str
    source: str
    entity_id: str

    #: Attribute names (in serialisation order) that describe the entity;
    #: subclasses override this.
    MATCHING_ATTRIBUTES: ClassVar[tuple[str, ...]] = ()

    def attributes(self) -> dict[str, Any]:
        """Return the matching-relevant attributes as a plain dictionary."""
        return {name: getattr(self, name) for name in self.MATCHING_ATTRIBUTES}

    def copy_with(self, **changes: Any) -> "Record":
        """Return a copy of the record with ``changes`` applied."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Full dictionary form (including ids), used by the CSV writer."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class CompanyRecord(Record):
    """A company record as distributed by a financial data vendor."""

    name: str = ""
    city: str | None = None
    region: str | None = None
    country_code: str | None = None
    description: str | None = None
    lei: str | None = None
    industry: str | None = None
    #: Identifiers of the securities issued by this company *as recorded by
    #: this source* — used by the ID Overlap blocking for companies.
    security_isins: tuple[str, ...] = ()

    MATCHING_ATTRIBUTES: ClassVar[tuple[str, ...]] = (
        "name",
        "city",
        "region",
        "country_code",
        "industry",
        "description",
    )


@dataclass
class SecurityRecord(Record):
    """A security (share, bond, right, unit …) record."""

    name: str = ""
    security_type: str = "equity"
    issuer_name: str | None = None
    #: Record id of the issuing company *in the same data source*.
    issuer_record_id: str | None = None
    #: Ground-truth entity id of the issuing company.
    issuer_entity_id: str | None = None
    isin: str | None = None
    cusip: str | None = None
    sedol: str | None = None
    valor: str | None = None
    ticker: str | None = None

    MATCHING_ATTRIBUTES: ClassVar[tuple[str, ...]] = (
        "name",
        "security_type",
        "issuer_name",
        "isin",
        "cusip",
        "sedol",
        "valor",
        "ticker",
    )

    def identifier_values(self) -> dict[str, str | None]:
        """The identifier attributes used by the ID Overlap blocking."""
        return {
            "isin": self.isin,
            "cusip": self.cusip,
            "sedol": self.sedol,
            "valor": self.valor,
        }


@dataclass
class ProductRecord(Record):
    """A WDC-Products-style product offer record."""

    title: str = ""
    brand: str | None = None
    category: str | None = None
    price: str | None = None
    description: str | None = None

    MATCHING_ATTRIBUTES: ClassVar[tuple[str, ...]] = (
        "title",
        "brand",
        "category",
        "price",
        "description",
    )


class Dataset:
    """A multi-source matching task: records plus ground truth.

    The ground truth is derived from the records' ``entity_id`` values: all
    records sharing an entity id form one group, and every unordered pair of
    records within a group (across or within sources) is a true match, which
    is how the paper counts "# of Matches" in Table 1.
    """

    def __init__(self, name: str, records: Iterable[Record]) -> None:
        self.name = name
        self._records: list[Record] = list(records)
        self._by_id: dict[str, Record] = {}
        for record in self._records:
            if record.record_id in self._by_id:
                raise ValueError(f"duplicate record id: {record.record_id!r}")
            self._by_id[record.record_id] = record

    # -- basic access --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    @property
    def records(self) -> list[Record]:
        return list(self._records)

    def record(self, record_id: str) -> Record:
        return self._by_id[record_id]

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._by_id

    def add_record(self, record: Record) -> None:
        if record.record_id in self._by_id:
            raise ValueError(f"duplicate record id: {record.record_id!r}")
        self._records.append(record)
        self._by_id[record.record_id] = record

    # -- views ----------------------------------------------------------------

    @property
    def sources(self) -> list[str]:
        return sorted({record.source for record in self._records})

    def records_by_source(self) -> dict[str, list[Record]]:
        grouped: dict[str, list[Record]] = defaultdict(list)
        for record in self._records:
            grouped[record.source].append(record)
        return dict(grouped)

    def entity_groups(self) -> dict[str, list[str]]:
        """Ground truth: entity id -> sorted list of record ids."""
        groups: dict[str, list[str]] = defaultdict(list)
        for record in self._records:
            groups[record.entity_id].append(record.record_id)
        return {entity: sorted(ids) for entity, ids in groups.items()}

    def true_matches(self) -> set[MatchPair]:
        """All unordered pairs of record ids belonging to the same entity."""
        matches: set[MatchPair] = set()
        # Each group's ids are sorted, so every pair is canonical as built.
        for record_ids in self.entity_groups().values():
            for i, left in enumerate(record_ids):
                for right in record_ids[i + 1:]:
                    matches.add((left, right))
        return matches

    def entity_of(self, record_id: str) -> str:
        return self._by_id[record_id].entity_id

    def is_true_match(self, left_id: str, right_id: str) -> bool:
        return self._by_id[left_id].entity_id == self._by_id[right_id].entity_id

    # -- restriction ----------------------------------------------------------

    def subset_by_entities(self, entity_ids: Iterable[str], name: str | None = None) -> "Dataset":
        """Dataset restricted to the records of the given entities."""
        keep = set(entity_ids)
        selected = [record for record in self._records if record.entity_id in keep]
        return Dataset(name or f"{self.name}-subset", selected)

    def subset_by_records(self, record_ids: Iterable[str], name: str | None = None) -> "Dataset":
        keep = set(record_ids)
        selected = [record for record in self._records if record.record_id in keep]
        return Dataset(name or f"{self.name}-subset", selected)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset(name={self.name!r}, records={len(self._records)}, "
            f"entities={len(self.entity_groups())}, sources={len(self.sources)})"
        )

