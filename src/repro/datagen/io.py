"""CSV persistence for generated datasets.

The paper ships its synthetic benchmark as CSV files; this module writes and
reads the generated datasets in the same spirit so that an expensive
generation (or model predictions) can be cached on disk and shared.
"""

from __future__ import annotations

import csv
from dataclasses import fields
from pathlib import Path

from repro.datagen.records import (
    CompanyRecord,
    Dataset,
    ProductRecord,
    Record,
    SecurityRecord,
)

_RECORD_TYPES: dict[str, type[Record]] = {
    "company": CompanyRecord,
    "security": SecurityRecord,
    "product": ProductRecord,
}
_TYPE_NAMES = {cls: name for name, cls in _RECORD_TYPES.items()}
#: Each record class's field names, computed once rather than per row.
_FIELD_NAMES = {
    cls: frozenset(spec.name for spec in fields(cls)) for cls in _RECORD_TYPES.values()
}
#: String fields that read an empty cell as ""; other fields read it as None.
_REQUIRED_STRING_FIELDS = frozenset(
    {"record_id", "source", "entity_id", "name", "title", "security_type"}
)

_TUPLE_FIELDS = {"security_isins"}
_TUPLE_SEPARATOR = "|"


def write_dataset_csv(dataset: Dataset, path: str | Path) -> Path:
    """Write ``dataset`` to a CSV file; returns the path written.

    A ``record_type`` column is added so mixed exports stay round-trippable;
    tuple-valued fields are joined with ``|``.
    """
    path = Path(path)
    records = dataset.records
    if not records:
        raise ValueError("cannot write an empty dataset")

    fieldnames: list[str] = ["record_type"]
    for record in records:
        for column in record.to_dict():
            if column not in fieldnames:
                fieldnames.append(column)

    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames, restval="")
        writer.writeheader()
        for record in records:
            row = {"record_type": _TYPE_NAMES[type(record)]}
            for column, value in record.to_dict().items():
                if column in _TUPLE_FIELDS and isinstance(value, tuple):
                    row[column] = _TUPLE_SEPARATOR.join(value)
                elif value is None:
                    row[column] = ""
                else:
                    row[column] = value
            writer.writerow(row)
    return path


def read_dataset_csv(path: str | Path, name: str | None = None) -> Dataset:
    """Read a dataset previously written by :func:`write_dataset_csv`."""
    path = Path(path)
    records: list[Record] = []
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            record_type = row.pop("record_type", "")
            record_class = _RECORD_TYPES.get(record_type)
            if record_class is None:
                raise ValueError(f"unknown record_type {record_type!r} in {path}")
            records.append(_row_to_record(record_class, row))
    return Dataset(name or path.stem, records)


def _row_to_record(record_class: type[Record], row: dict[str, str]) -> Record:
    kwargs: dict[str, object] = {}
    field_names = _FIELD_NAMES[record_class]
    for column, raw in row.items():
        if column not in field_names:
            continue
        if column in _TUPLE_FIELDS:
            kwargs[column] = tuple(part for part in raw.split(_TUPLE_SEPARATOR) if part)
        elif raw == "":
            kwargs[column] = "" if column in _REQUIRED_STRING_FIELDS else None
        else:
            kwargs[column] = raw
    return record_class(**kwargs)  # type: ignore[arg-type]
