"""Per-record feature profiles: precompute once, score many — columnar.

Pairwise matching evaluates far more candidate *pairs* than there are
*records* — every record appears in many pairs, yet the feature extractor
used to re-run text normalisation, tokenisation, corporate-term stripping
and identifier canonicalisation for both sides of every single pair.  A
:class:`ProfileStore` does that record-local work once per record and
writes the results straight into its columns.

The store is laid out **struct-of-arrays**: the
profile fields live in contiguous numpy columns indexed by row (record id →
row index via :meth:`ProfileStore.row_indices`), every string is interned
once into a shared table (``id 0`` is the empty string, so "missing" is a
plain integer comparison), and ragged per-record collections — token sets
and company ISIN sets — are CSR-packed :class:`IdSetColumn` buffers of
interned ids.  Feature extraction then runs as array ops over row-index
pairs (set overlaps via sorted-id intersection counts, attribute agreement
via integer equality) instead of a Python loop over pairs; see
:meth:`repro.matching.features.PairFeatureExtractor.extract_batch_profiles`.

The store mirrors the two-phase protocol of the blocking layer:
``prepare(dataset)`` runs once in the parent process, the (picklable) store
ships to process-pool workers out of band — the pickled payload *is* the
columnar arrays, shipped once per store revision under the worker pool's
epoch protocol — and the per-chunk task payload shrinks to bare id pairs.
:meth:`ProfileStore.add_records` appends rows to every column in place and
bumps ``revision``, so incremental ingest grows the store instead of
rebuilding it.

The contract that makes all of this safe: scoring from the columns is
**byte identical** to recomputing from the records, because every column
stores the unmodified output of the exact same normalisation calls the
direct path makes (interning changes *where* a string lives, never *what*
it is), and the interning order is a pure function of record order.  The
golden runtime suite and a hypothesis equivalence test pin this.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import chain

import numpy as np

from repro.datagen.identifiers import SECURITY_ID_FIELDS
from repro.datagen.records import CompanyRecord, Record, SecurityRecord
from repro.text.batch_similarity import StringTable
from repro.text.normalize import drop_corporate_terms, normalize_identifier, normalize_text
from repro.text.tokenize import word_tokenize

#: Record-kind discriminators, one per row in ``kind_codes``.  Identifier
#: features only fire for same-kind pairs, mirroring the ``isinstance``
#: checks of the direct extraction path.
KIND_COMPANY = "company"
KIND_SECURITY = "security"
KIND_OTHER = "other"

#: Kind strings in column-code order: ``kind_codes`` stores the index.
KIND_NAMES: tuple[str, ...] = (KIND_OTHER, KIND_COMPANY, KIND_SECURITY)
_KIND_CODES: dict[str, int] = {name: code for code, name in enumerate(KIND_NAMES)}

#: Auxiliary attributes compared with the 1 / 0.5 / 0 equality feature, in
#: feature order.  Profiles store their normalised values.
EQUALITY_ATTRIBUTES: tuple[str, ...] = (
    "city",
    "region",
    "country_code",
    "industry",
    "security_type",
    "ticker",
)

#: Marker keying the columnar pickle payload; :meth:`ProfileStore.__setstate__`
#: refuses a payload without it.
_COLUMNAR_PICKLE_FORMAT = "profile-store-columnar-v1"


def record_name(record: Record) -> str:
    """The record's display name ("name" for companies/securities, "title"
    for products).

    The single name lookup every consumer shares — profiles are built from
    it and name-based matchers score with it — so a profiled path can never
    drift from its record-pair counterpart."""
    for attribute in ("name", "title"):
        value = getattr(record, attribute, None)
        if value:
            return str(value)
    return ""


def _distinct(records: Iterable[Record]) -> list[Record]:
    """The distinct records of ``records``, in order of first appearance.

    A store keys profiles by record id, so two different records sharing
    an id raise ``ValueError``; equal copies are fine.
    """
    seen: dict[str, Record] = {}
    distinct: list[Record] = []
    for record in records:
        known = seen.get(record.record_id)
        if known is None:
            seen[record.record_id] = record
            distinct.append(record)
        elif known is not record and known != record:
            raise ValueError(f"two different records share the id {record.record_id!r}")
    return distinct


def _attribute_of(record: Record, attribute: str) -> str:
    value = getattr(record, attribute, None)
    return str(value) if value else ""


class _ProfileBuilder:
    """Derives records' interned column values, memoised per raw string.

    Records repeat names, descriptions and attribute values across data
    sources, so one ``prepare``/``add_records`` call derives the same raw
    string many times.  The builder memoises each derivation per distinct
    raw string for the lifetime of the call.  A memo hit skips only
    interning strings the table already holds, which changes nothing, so
    the rows and the table equal those of unmemoised derivation.  Every
    value is the unmodified output of the same normalisation call the
    pairwise-recompute path makes.
    """

    __slots__ = ("_intern", "_names", "_descriptions", "texts", "_identifiers")

    def __init__(self, intern: Callable[[str], int]) -> None:
        self._intern = intern
        #: raw name -> (name id, stripped id, name token ids, stripped token ids)
        self._names: dict[str, tuple[int, int, list[int], list[int]]] = {}
        #: raw description -> description token ids
        self._descriptions: dict[str, list[int]] = {}
        #: raw attribute value -> id of normalize_text(value)
        self.texts: dict[str, int] = {}
        #: raw identifier -> normalize_identifier(value)
        self._identifiers: dict[str, str] = {}

    def _token_ids(self, tokens: Iterable[str]) -> list[int]:
        """Sorted unique interned ids of an *ordered* token sequence.

        Interning walks the sequence order (never a set), so the table
        layout is a pure function of record order.
        """
        return sorted({self._intern(token) for token in tokens})

    def name(self, name: str) -> tuple[int, int, list[int], list[int]]:
        ids = self._names.get(name)
        if ids is None:
            name_norm = normalize_text(name)
            stripped = drop_corporate_terms(name_norm)
            ids = self._names[name] = (
                self._intern(name_norm),
                self._intern(stripped),
                self._token_ids(name_norm.split()),
                self._token_ids(stripped.split()),
            )
        return ids

    def description(self, description: str) -> list[int]:
        ids = self._descriptions.get(description)
        if ids is None:
            ids = self._descriptions[description] = self._token_ids(
                word_tokenize(description)
            )
        return ids

    def identifier(self, value: str) -> str:
        normalized = self._identifiers.get(value)
        if normalized is None:
            normalized = self._identifiers[value] = normalize_identifier(value)
        return normalized


class IdSetColumn:
    """Ragged int32 rows in one contiguous CSR buffer.

    ``values`` holds every row's entries back to back; ``offsets[row]`` /
    ``offsets[row + 1]`` delimit one row.  The set columns hold distinct
    interned string ids per row, which is what lets pairwise set overlaps
    run as intersection counts without touching the strings.  The token
    sets are sorted by id; ``isin_sets`` rows are in ISIN string order, so
    an id order cannot be assumed.
    """

    __slots__ = ("values", "offsets")

    def __init__(self, values: np.ndarray | None = None, offsets: np.ndarray | None = None) -> None:
        self.values = values if values is not None else np.zeros(0, dtype=np.int32)
        self.offsets = offsets if offsets is not None else np.zeros(1, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def lengths(self, rows: np.ndarray) -> np.ndarray:
        """Row sizes for an array of row indices."""
        return self.offsets[rows + 1] - self.offsets[rows]

    def extend(self, rows: Sequence[Sequence[int]]) -> None:
        """Append one list of ids per new row (in-place growth)."""
        if not rows:
            return
        lengths = np.fromiter((len(r) for r in rows), dtype=np.int64, count=len(rows))
        flat = [value for row in rows for value in row]
        self.values = np.concatenate([self.values, np.asarray(flat, dtype=np.int32)])
        self.offsets = np.concatenate(
            [self.offsets, self.offsets[-1] + np.cumsum(lengths)]
        )

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position in ``rows``, value) of every entry of the selected rows,
        rows in the given order and each row's entries in stored order."""
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        owners = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)
        shifts = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return owners, self.values[np.arange(len(owners), dtype=np.int64) + shifts]


def sorted_intersection_counts(
    column: IdSetColumn, left_rows: np.ndarray, right_rows: np.ndarray
) -> np.ndarray:
    """Per-pair ``|row(left) ∩ row(right)|`` over a set-valued column.

    Each side's entries become one key per (pair, id), the pair number in
    the high 32 bits.  Ids within a set row are unique, so a right key
    found among the sorted left keys is exactly one shared id — an exact
    integer count, equal to ``len(set_a & set_b)`` on the underlying
    strings because interning is a bijection.
    """
    n = len(left_rows)
    left_pairs, left_ids = column.entries(left_rows)
    right_pairs, right_ids = column.entries(right_rows)
    if not len(left_ids) or not len(right_ids):
        return np.zeros(n, dtype=np.int64)
    left_keys = np.sort((left_pairs << 32) | left_ids)
    right_keys = (right_pairs << 32) | right_ids
    found = np.searchsorted(left_keys, right_keys)
    np.minimum(found, len(left_keys) - 1, out=found)
    shared = left_keys[found] == right_keys
    return np.bincount(right_pairs[shared], minlength=n)


class ProfileStore:
    """Struct-of-arrays record profiles, computed once per run.

    The matching counterpart of the blocking layer's prepared shared state:
    built in the parent by :meth:`prepare`, shipped to every process-pool
    worker out of band (the pickled payload is the columnar arrays), and
    read by row index from the per-chunk scoring tasks.  Stores only ever
    grow: :meth:`add_records` appends one row per newly ingested record to
    every column in place — existing rows are never mutated or replaced —
    and bumps ``revision`` so the worker pool's epoch protocol re-ships the
    store exactly once per growth step.

    Columns (all row-aligned; strings live once in the interned table):

    * ``kind_codes`` (int8), ``source_ids`` / ``name_ids`` /
      ``stripped_ids`` (int32 interned ids), ``has_description`` (bool),
    * ``attr_ids`` — (rows, len(:data:`EQUALITY_ATTRIBUTES`)) interned
      normalised auxiliary attributes, id 0 == missing,
    * ``identifier_ids`` — (rows, len(``SECURITY_ID_FIELDS``)) interned
      security identifiers (all-0 rows for non-securities),
    * ``name_token_sets`` / ``stripped_token_sets`` /
      ``description_token_sets`` / ``isin_sets`` — sorted-id
      :class:`IdSetColumn` sets.

    The string-similarity kernels read two derived structures:
    ``kernel_strings``, a :class:`~repro.text.batch_similarity.StringTable`
    of the name and stripped-name strings (lengths, padded character
    numbers and uint64 position masks), and ``kernel_rows``, which maps an
    interned string id to its row there (-1 for every other string).  Both
    are built when the strings are interned, grow with the store and are
    rebuilt on load, never pickled; they are built eagerly because scoring
    only reads them, so thread-pool chunks can share a store.
    """

    __slots__ = (
        "_row_of",
        "_record_ids",
        "_strings",
        "_string_ids",
        "kind_codes",
        "source_ids",
        "name_ids",
        "stripped_ids",
        "has_description",
        "attr_ids",
        "identifier_ids",
        "name_token_sets",
        "stripped_token_sets",
        "description_token_sets",
        "isin_sets",
        "kernel_strings",
        "kernel_rows",
        "revision",
    )

    def __init__(self) -> None:
        self._row_of: dict[str, int] = {}
        self._record_ids: list[str] = []
        #: Interned string table; index 0 is the empty string, so a missing
        #: value is the integer 0 everywhere in the columns.
        self._strings: list[str] = [""]
        self._string_ids: dict[str, int] = {"": 0}
        self.kind_codes = np.zeros(0, dtype=np.int8)
        self.source_ids = np.zeros(0, dtype=np.int32)
        self.name_ids = np.zeros(0, dtype=np.int32)
        self.stripped_ids = np.zeros(0, dtype=np.int32)
        self.has_description = np.zeros(0, dtype=np.bool_)
        self.attr_ids = np.zeros((0, len(EQUALITY_ATTRIBUTES)), dtype=np.int32)
        self.identifier_ids = np.zeros((0, len(SECURITY_ID_FIELDS)), dtype=np.int32)
        self.name_token_sets = IdSetColumn()
        self.stripped_token_sets = IdSetColumn()
        self.description_token_sets = IdSetColumn()
        self.isin_sets = IdSetColumn()
        self.kernel_strings = StringTable()
        self.kernel_rows = np.zeros(0, dtype=np.int64)
        #: Content revision, bumped whenever :meth:`add_records` grows the
        #: store.  The worker pool's epoch protocol compares it to decide
        #: whether an already-shipped store is still current — a store
        #: therefore ships once per revision, not once per matching call.
        self.revision = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def prepare(cls, records: Iterable[Record]) -> "ProfileStore":
        """Profile every record once.  Accepts any record iterable — a
        :class:`~repro.datagen.records.Dataset` iterates its records.

        Two different records sharing an id raise ``ValueError``; equal
        copies are profiled once.
        """
        store = cls()
        store._append_records(records)
        return store

    def add_records(self, records: Iterable[Record]) -> int:
        """Profile records not yet in the store; returns how many were added.

        The incremental-ingestion append path: a persistent store grows with
        each delta instead of being rebuilt per run.  Profiles are pure
        per-record derivations, so appending rows is equivalent to a fresh
        :meth:`prepare` over the union — a record whose id is already
        stored is skipped (its profile could not change), and the interned
        table only ever gains entries, so existing column rows keep their
        exact ids.  Among the new records, ids follow :meth:`prepare`'s
        rule.
        """
        added = self._append_records(records)
        if added:
            self.revision += 1
        return added

    def _intern(self, value: str) -> int:
        index = self._string_ids.get(value)
        if index is None:
            index = len(self._strings)
            self._string_ids[value] = index
            self._strings.append(value)
        return index

    def _append_records(self, records: Iterable[Record]) -> int:
        """Write one row per new record to every column, in record order.

        Each record interns its strings in one fixed order: source, name,
        stripped name, the name, stripped-name and description token sets,
        the attributes, the security identifiers, then the sorted company
        ISINs.  The table, and with it every pickled column, is therefore a
        pure function of record order.
        """
        new = _distinct(record for record in records if record.record_id not in self._row_of)
        if not new:
            return 0
        kind_codes: list[int] = []
        source_ids: list[int] = []
        name_ids: list[int] = []
        stripped_ids: list[int] = []
        has_description: list[bool] = []
        attr_rows: list[list[int]] = []
        identifier_rows: list[list[int]] = []
        name_sets: list[list[int]] = []
        stripped_sets: list[list[int]] = []
        description_sets: list[list[int]] = []
        isin_rows: list[list[int]] = []
        no_identifiers = [0] * len(SECURITY_ID_FIELDS)
        intern = self._intern
        builder = _ProfileBuilder(intern)
        texts = builder.texts

        for record in new:
            self._row_of[record.record_id] = len(self._record_ids)
            self._record_ids.append(record.record_id)
            source_ids.append(intern(record.source))
            name_id, stripped_id, name_set, stripped_set = builder.name(record_name(record))
            name_ids.append(name_id)
            stripped_ids.append(stripped_id)
            name_sets.append(name_set)
            stripped_sets.append(stripped_set)
            description = _attribute_of(record, "description")
            has_description.append(bool(description))
            description_sets.append(builder.description(description))
            attr_row = []
            for attr in EQUALITY_ATTRIBUTES:
                # The builder's memo of normalised attribute values, read
                # inline: this runs six times per record.
                value = getattr(record, attr, None)
                value = str(value) if value else ""
                index = texts.get(value)
                if index is None:
                    index = texts[value] = intern(normalize_text(value))
                attr_row.append(index)
            attr_rows.append(attr_row)
            identifiers = no_identifiers
            isin_row: list[int] = []
            if isinstance(record, SecurityRecord):
                kind = KIND_SECURITY
                identifiers = [
                    intern(builder.identifier(_attribute_of(record, field)))
                    for field in SECURITY_ID_FIELDS
                ]
            elif isinstance(record, CompanyRecord):
                kind = KIND_COMPANY
                if record.security_isins:
                    isins = {
                        builder.identifier(str(value) if value else "")
                        for value in record.security_isins
                    }
                    isins.discard("")
                    # Sorted for deterministic interning: a set's iteration
                    # order would leak PYTHONHASHSEED into the table.
                    isin_row = [intern(value) for value in sorted(isins)]
            else:
                kind = KIND_OTHER
            kind_codes.append(_KIND_CODES[kind])
            identifier_rows.append(identifiers)
            isin_rows.append(isin_row)

        added = len(new)
        self.kind_codes = np.concatenate(
            [self.kind_codes, np.asarray(kind_codes, dtype=np.int8)]
        )
        self.source_ids = np.concatenate(
            [self.source_ids, np.asarray(source_ids, dtype=np.int32)]
        )
        self.name_ids = np.concatenate(
            [self.name_ids, np.asarray(name_ids, dtype=np.int32)]
        )
        self.stripped_ids = np.concatenate(
            [self.stripped_ids, np.asarray(stripped_ids, dtype=np.int32)]
        )
        self.has_description = np.concatenate(
            [self.has_description, np.asarray(has_description, dtype=np.bool_)]
        )
        self.attr_ids = np.concatenate(
            [
                self.attr_ids,
                np.asarray(attr_rows, dtype=np.int32).reshape(
                    added, len(EQUALITY_ATTRIBUTES)
                ),
            ]
        )
        self.identifier_ids = np.concatenate(
            [
                self.identifier_ids,
                np.asarray(identifier_rows, dtype=np.int32).reshape(
                    added, len(SECURITY_ID_FIELDS)
                ),
            ]
        )
        self.name_token_sets.extend(name_sets)
        self.stripped_token_sets.extend(stripped_sets)
        self.description_token_sets.extend(description_sets)
        self.isin_sets.extend(isin_rows)
        self._add_kernel_strings(
            np.concatenate((self.name_ids[-added:], self.stripped_ids[-added:]))
        )
        return added

    def _add_kernel_strings(self, ids: np.ndarray) -> None:
        """Give each string id in ``ids`` without one a ``kernel_strings`` row.

        New rows follow increasing string id, and existing rows never
        move, so growing the store appends only the new strings' rows.
        """
        self.kernel_rows = np.concatenate(
            (self.kernel_rows, np.full(len(self._strings) - len(self.kernel_rows), -1))
        )
        new = np.unique(ids[self.kernel_rows[ids] < 0])
        self.kernel_rows[new] = len(self.kernel_strings) + np.arange(len(new))
        self.kernel_strings.extend([self._strings[index] for index in new.tolist()])

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict[str, object]:
        # Ship the columnar arrays themselves — the epoch protocol publishes
        # exactly these bytes once per revision.  The derived kernel tables
        # stay out: they are rebuilt from the string table on load.
        return {
            "format": _COLUMNAR_PICKLE_FORMAT,
            "record_ids": self._record_ids,
            "strings": self._strings,
            "kind_codes": self.kind_codes,
            "source_ids": self.source_ids,
            "name_ids": self.name_ids,
            "stripped_ids": self.stripped_ids,
            "has_description": self.has_description,
            "attr_ids": self.attr_ids,
            "identifier_ids": self.identifier_ids,
            "name_token_sets": (self.name_token_sets.values, self.name_token_sets.offsets),
            "stripped_token_sets": (
                self.stripped_token_sets.values,
                self.stripped_token_sets.offsets,
            ),
            "description_token_sets": (
                self.description_token_sets.values,
                self.description_token_sets.offsets,
            ),
            "isin_sets": (self.isin_sets.values, self.isin_sets.offsets),
        }

    def __setstate__(self, state: dict) -> None:
        # Payloads pickled by earlier versions also carry an ordered
        # "description_token_seqs" column; nothing reads it, so it is ignored.
        if not isinstance(state, dict) or state.get("format") != _COLUMNAR_PICKLE_FORMAT:
            raise ValueError(
                f"not a ProfileStore payload: the {_COLUMNAR_PICKLE_FORMAT!r} "
                "format marker is missing"
            )
        self.__init__()
        self._record_ids = list(state["record_ids"])
        self._row_of = {record_id: row for row, record_id in enumerate(self._record_ids)}
        self._strings = list(state["strings"])
        self._string_ids = {value: idx for idx, value in enumerate(self._strings)}
        self.kind_codes = state["kind_codes"]
        self.source_ids = state["source_ids"]
        self.name_ids = state["name_ids"]
        self.stripped_ids = state["stripped_ids"]
        self.has_description = state["has_description"]
        self.attr_ids = state["attr_ids"]
        self.identifier_ids = state["identifier_ids"]
        self.name_token_sets = IdSetColumn(*state["name_token_sets"])
        self.stripped_token_sets = IdSetColumn(*state["stripped_token_sets"])
        self.description_token_sets = IdSetColumn(*state["description_token_sets"])
        self.isin_sets = IdSetColumn(*state["isin_sets"])
        self._add_kernel_strings(np.concatenate((self.name_ids, self.stripped_ids)))

    # -- row access ----------------------------------------------------------

    def row_indices(
        self, id_pairs: Sequence[tuple[str, str]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(left rows, right rows) for a sequence of record-id pairs.

        Raises ``KeyError`` for unknown ids.
        """
        flat = np.fromiter(
            map(self._row_of.__getitem__, chain.from_iterable(id_pairs)),
            dtype=np.int64,
            count=2 * len(id_pairs),
        )
        return flat[0::2], flat[1::2]

    def string_at(self, index: int) -> str:
        """The interned string behind a column id."""
        return self._strings[index]

    @property
    def strings(self) -> Sequence[str]:
        """The interned string table (read-only view by convention)."""
        return self._strings

    @property
    def record_ids(self) -> Sequence[str]:
        """Record ids in row order (read-only view by convention)."""
        return self._record_ids

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._row_of

    def __len__(self) -> int:
        return len(self._record_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProfileStore(records={len(self._record_ids)}, "
            f"strings={len(self._strings)}, revision={self.revision})"
        )
