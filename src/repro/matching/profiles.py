"""Per-record feature profiles: precompute once, score many — columnar.

Pairwise matching evaluates far more candidate *pairs* than there are
*records* — every record appears in many pairs, yet the feature extractor
used to re-run text normalisation, tokenisation, corporate-term stripping
and identifier canonicalisation for both sides of every single pair.  A
:class:`RecordProfile` factors that record-local work out; a
:class:`ProfileStore` holds one profile per record.

Since the columnar refactor the store is laid out **struct-of-arrays**: the
profile fields live in contiguous numpy columns indexed by row (record id →
row index via :meth:`ProfileStore.row_indices`), every string is interned
once into a shared table (``id 0`` is the empty string, so "missing" is a
plain integer comparison), and ragged per-record collections — token sets
and company ISIN sets — are CSR-packed :class:`IdSetColumn` buffers of
interned ids.  Feature extraction then runs as array ops over row-index
pairs (set overlaps via sorted-id intersection counts, attribute agreement
via integer equality) instead of a Python loop over pairs; see
:meth:`repro.matching.features.PairFeatureExtractor.extract_batch_profiles`.

The store mirrors the two-phase protocol of the sharded blocking layer:
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

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.datagen.identifiers import SECURITY_ID_FIELDS
from repro.datagen.records import CompanyRecord, Record, SecurityRecord
from repro.text.normalize import normalize_identifier, normalize_text, strip_corporate_terms
from repro.text.tokenize import word_tokenize

#: Record-kind discriminators stored on a profile.  Identifier features only
#: fire for same-kind pairs, mirroring the ``isinstance`` checks of the
#: direct extraction path.
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

#: Marker keying the columnar pickle payload; pickles written before the
#: columnar refactor carry a plain ``{record_id: RecordProfile}`` dict
#: instead and are rebuilt column by column on load.
_COLUMNAR_PICKLE_FORMAT = "profile-store-columnar-v1"


@dataclass(frozen=True, slots=True)
class RecordProfile:
    """Everything record-local the pair features derive from one record.

    Token collections are stored both in order (tuples, for consumers that
    care about sequence) and as frozensets (for the set-based similarity
    measures, which then skip per-comparison ``set()`` construction).
    Frozen + slotted keeps profiles compact, hashable and picklable.
    """

    record_id: str
    source: str
    kind: str

    name_norm: str
    name_tokens: tuple[str, ...]
    name_token_set: frozenset[str]

    stripped_name: str
    stripped_tokens: tuple[str, ...]
    stripped_token_set: frozenset[str]

    has_description: bool
    description_tokens: tuple[str, ...]
    description_token_set: frozenset[str]

    #: Normalised auxiliary attributes, in :data:`EQUALITY_ATTRIBUTES` order.
    city: str
    region: str
    country_code: str
    industry: str
    security_type: str
    ticker: str

    #: Normalised security identifiers in ``SECURITY_ID_FIELDS`` order
    #: (empty string where the record has none); ``()`` for non-securities.
    security_identifiers: tuple[str, ...]
    #: Normalised, non-empty associated-security ISINs; empty for
    #: non-companies.
    isin_set: frozenset[str]


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


def distinct_records(pairs: Iterable[Sequence[Record]]) -> list[Record]:
    """The distinct records of record pairs, in order of first appearance.

    A store keys profiles by record id, so two different records sharing
    an id raise ``ValueError``; equal copies are fine.
    """
    seen: dict[str, Record] = {}
    distinct: list[Record] = []
    for pair in pairs:
        for record in pair:
            known = seen.get(record.record_id)
            if known is None:
                seen[record.record_id] = record
                distinct.append(record)
            elif known is not record and known != record:
                raise ValueError(
                    f"two different records share the id {record.record_id!r}"
                )
    return distinct


def _attribute_of(record: Record, attribute: str) -> str:
    value = getattr(record, attribute, None)
    return str(value) if value else ""


class _ProfileBuilder:
    """Builds profiles with per-batch memo caches on the *raw* strings.

    Records repeat names, descriptions and attribute values across data
    sources, so a batch re-normalises the same raw string many times.  The
    builder memoises each pure derivation per distinct input for the
    lifetime of one ``prepare``/``add_records`` call; memoising a pure
    function cannot change a value, so the profiles are bitwise identical
    to unmemoised construction.
    """

    __slots__ = ("_names", "_texts", "_descriptions", "_identifiers")

    def __init__(self) -> None:
        #: raw name -> (name_norm, name_tokens, stripped_name, stripped_tokens)
        self._names: dict[str, tuple[str, tuple[str, ...], str, tuple[str, ...]]] = {}
        #: raw attribute value -> normalize_text(value)
        self._texts: dict[str, str] = {}
        #: raw description -> ordered token tuple
        self._descriptions: dict[str, tuple[str, ...]] = {}
        #: raw identifier -> normalize_identifier(value)
        self._identifiers: dict[str, str] = {}

    def _name_forms(self, name: str) -> tuple[str, tuple[str, ...], str, tuple[str, ...]]:
        forms = self._names.get(name)
        if forms is None:
            name_norm = normalize_text(name)
            stripped = strip_corporate_terms(name)
            forms = (name_norm, tuple(name_norm.split()), stripped, tuple(stripped.split()))
            self._names[name] = forms
        return forms

    def _text(self, value: str) -> str:
        normalized = self._texts.get(value)
        if normalized is None:
            normalized = normalize_text(value)
            self._texts[value] = normalized
        return normalized

    def _description_tokens(self, description: str) -> tuple[str, ...]:
        tokens = self._descriptions.get(description)
        if tokens is None:
            tokens = tuple(word_tokenize(description))
            self._descriptions[description] = tokens
        return tokens

    def _identifier(self, value: str) -> str:
        normalized = self._identifiers.get(value)
        if normalized is None:
            normalized = normalize_identifier(value)
            self._identifiers[value] = normalized
        return normalized

    def build(self, record: Record) -> RecordProfile:
        """Compute one record's feature profile.

        Every stored value is the unmodified output of the same call the
        pairwise-recompute path makes, which is what keeps profile-based
        extraction byte-identical to direct extraction.
        """
        name = record_name(record)
        name_norm, name_tokens, stripped_name, stripped_tokens = self._name_forms(name)

        description = _attribute_of(record, "description")
        description_tokens = self._description_tokens(description)

        if isinstance(record, SecurityRecord):
            kind = KIND_SECURITY
            security_identifiers = tuple(
                self._identifier(_attribute_of(record, field))
                for field in SECURITY_ID_FIELDS
            )
            isin_set: frozenset[str] = frozenset()
        elif isinstance(record, CompanyRecord):
            kind = KIND_COMPANY
            security_identifiers = ()
            isins = {self._identifier(str(value) if value else "") for value in record.security_isins}
            isins.discard("")
            isin_set = frozenset(isins)
        else:
            kind = KIND_OTHER
            security_identifiers = ()
            isin_set = frozenset()

        return RecordProfile(
            record_id=record.record_id,
            source=record.source,
            kind=kind,
            name_norm=name_norm,
            name_tokens=name_tokens,
            name_token_set=frozenset(name_tokens),
            stripped_name=stripped_name,
            stripped_tokens=stripped_tokens,
            stripped_token_set=frozenset(stripped_tokens),
            has_description=bool(description),
            description_tokens=description_tokens,
            description_token_set=frozenset(description_tokens),
            city=self._text(_attribute_of(record, "city")),
            region=self._text(_attribute_of(record, "region")),
            country_code=self._text(_attribute_of(record, "country_code")),
            industry=self._text(_attribute_of(record, "industry")),
            security_type=self._text(_attribute_of(record, "security_type")),
            ticker=self._text(_attribute_of(record, "ticker")),
            security_identifiers=security_identifiers,
            isin_set=isin_set,
        )


def build_profile(record: Record) -> RecordProfile:
    """Compute one record's feature profile (see :class:`_ProfileBuilder`)."""
    return _ProfileBuilder().build(record)


class IdSetColumn:
    """Ragged int32 rows in one contiguous CSR buffer.

    ``values`` holds every row's entries back to back; ``offsets[row]`` /
    ``offsets[row + 1]`` delimit one row.  The set columns hold interned
    string ids, sorted ascending per row, which is what lets pairwise set
    overlaps run as sorted-id intersection counts without touching the
    strings; the store's ``codepoints`` column holds one string's
    codepoints per row.
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
        self.extend_flat(np.asarray(flat, dtype=np.int32), lengths)

    def extend_flat(self, values: np.ndarray, lengths: np.ndarray) -> None:
        """Append rows given as one flat int32 buffer plus per-row lengths."""
        self.values = np.concatenate([self.values, values])
        self.offsets = np.concatenate(
            [self.offsets, self.offsets[-1] + np.cumsum(lengths)]
        )

    def padded_rows(self, rows: np.ndarray, fill: int) -> tuple[np.ndarray, np.ndarray]:
        """``(len(rows), width)`` int32 matrix of the rows + their lengths.

        ``width`` is the longest selected row (at least 1) and positions
        past a row's length hold ``fill``.
        """
        lengths = self.lengths(rows)
        width = max(int(lengths.max()) if len(rows) else 0, 1)
        positions = np.arange(width, dtype=np.int64)
        inside = positions < lengths[:, None]
        matrix = np.full((len(rows), width), fill, dtype=np.int32)
        matrix[inside] = self.values[(self.offsets[rows][:, None] + positions)[inside]]
        return matrix, lengths


_SENTINEL = np.iinfo(np.int32).max


def sorted_intersection_counts(
    column: IdSetColumn, left_rows: np.ndarray, right_rows: np.ndarray
) -> np.ndarray:
    """Per-pair ``|row(left) ∩ row(right)|`` over a set-valued column.

    Ids within a set row are unique, so after concatenating both sides into
    one padded buffer and sorting each pair's row, every adjacent duplicate
    is exactly one shared id — an exact integer count, equal to
    ``len(set_a & set_b)`` on the underlying strings because interning is a
    bijection.  (The sentinel never collides with a real id: ids are table
    indexes, far below int32 max.)
    """
    n = len(left_rows)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    len_l = column.lengths(left_rows)
    len_r = column.lengths(right_rows)
    total = len_l + len_r
    width = int(total.max())
    if width == 0:
        return np.zeros(n, dtype=np.int64)
    positions = np.arange(width, dtype=np.int64)
    buffer = np.full((n, width), _SENTINEL, dtype=np.int32)
    mask_l = positions < len_l[:, None]
    source_l = column.offsets[left_rows][:, None] + positions
    buffer[mask_l] = column.values[source_l[mask_l]]
    mask_r = (positions >= len_l[:, None]) & (positions < total[:, None])
    source_r = column.offsets[right_rows][:, None] + (positions - len_l[:, None])
    buffer[mask_r] = column.values[source_r[mask_r]]
    buffer.sort(axis=1)
    return ((buffer[:, 1:] == buffer[:, :-1]) & (buffer[:, :-1] != _SENTINEL)).sum(
        axis=1, dtype=np.int64
    )


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

    One column is indexed by interned string id instead of by row:
    ``codepoints`` holds each interned string's int32 codepoints (row ``i``
    is ``strings[i]``), packed once when the string is interned, so the
    similarity kernels gather padded rows from it instead of packing every
    string again per batch.  It is derived from the string table: never
    pickled, rebuilt on load, and built eagerly — scoring only reads it, so
    thread-pool chunks can share a store.
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
        "codepoints",
        "revision",
    )

    def __init__(self, profiles: Mapping[str, RecordProfile] = ()) -> None:
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
        self.codepoints = IdSetColumn()
        #: Content revision, bumped whenever :meth:`add_records` grows the
        #: store.  The worker pool's epoch protocol compares it to decide
        #: whether an already-shipped store is still current — a store
        #: therefore ships once per revision, not once per matching call.
        self.revision = 0
        if profiles:
            self._append_profiles(dict(profiles).items())
        self._pack_new_strings()

    # -- construction --------------------------------------------------------

    @classmethod
    def prepare(cls, records: Iterable[Record]) -> "ProfileStore":
        """Profile every record once.  Accepts any record iterable — a
        :class:`~repro.datagen.records.Dataset` iterates its records."""
        builder = _ProfileBuilder()
        return cls({record.record_id: builder.build(record) for record in records})

    def add_records(self, records: Iterable[Record]) -> int:
        """Profile records not yet in the store; returns how many were added.

        The incremental-ingestion append path: a persistent store grows with
        each delta instead of being rebuilt per run.  Profiles are pure
        per-record derivations, so appending rows is trivially equivalent to
        a fresh :meth:`prepare` over the union — already-profiled records
        are skipped (their profile could not change), and the interned table
        only ever gains entries, so existing column rows keep their exact
        ids.
        """
        builder = _ProfileBuilder()
        staged: dict[str, RecordProfile] = {}
        for record in records:
            if record.record_id in self._row_of or record.record_id in staged:
                continue
            staged[record.record_id] = builder.build(record)
        added = self._append_profiles(staged.items())
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

    def _intern_set(self, tokens: Sequence[str]) -> list[int]:
        """Sorted unique interned ids of an *ordered* token sequence.

        Interning walks the deterministic sequence order (never a set), so
        the table layout — and therefore every pickled column — is a pure
        function of record order.
        """
        ids = {self._intern(token) for token in tokens}
        return sorted(ids)

    def _append_profiles(
        self, items: Iterable[tuple[str, RecordProfile]]
    ) -> int:
        """Pack profiles into new column rows (callers pre-filter duplicates)."""
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
        intern_set = self._intern_set
        # Per-batch memo for the token-derived id rows: records share names
        # and descriptions across sources, so the same token tuple repeats;
        # interning it again would walk the same deterministic order to the
        # same ids (the table already contains them), so reuse is exact.
        token_set_memo: dict[tuple[str, ...], list[int]] = {}

        for record_id, profile in items:  # repro-lint: disable=unordered-iteration -- dict insertion order == record order, the interning contract
            self._row_of[record_id] = len(self._record_ids)
            self._record_ids.append(record_id)
            kind_codes.append(_KIND_CODES[profile.kind])
            source_ids.append(intern(profile.source))
            name_ids.append(intern(profile.name_norm))
            stripped_ids.append(intern(profile.stripped_name))
            has_description.append(profile.has_description)
            name_set = token_set_memo.get(profile.name_tokens)
            if name_set is None:
                name_set = intern_set(profile.name_tokens)
                token_set_memo[profile.name_tokens] = name_set
            name_sets.append(name_set)
            stripped_set = token_set_memo.get(profile.stripped_tokens)
            if stripped_set is None:
                stripped_set = intern_set(profile.stripped_tokens)
                token_set_memo[profile.stripped_tokens] = stripped_set
            stripped_sets.append(stripped_set)
            description_set = token_set_memo.get(profile.description_tokens)
            if description_set is None:
                description_set = intern_set(profile.description_tokens)
                token_set_memo[profile.description_tokens] = description_set
            description_sets.append(description_set)
            attr_rows.append(
                [intern(getattr(profile, attr)) for attr in EQUALITY_ATTRIBUTES]
            )
            if profile.security_identifiers:
                identifier_rows.append(
                    [intern(value) for value in profile.security_identifiers]
                )
            else:
                identifier_rows.append(no_identifiers)
            # Sorted for deterministic interning: isin_set is a frozenset,
            # whose iteration order would leak PYTHONHASHSEED into the table.
            isin_rows.append([intern(value) for value in sorted(profile.isin_set)])

        added = len(kind_codes)
        if not added:
            return 0
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
        self._pack_new_strings()
        return added

    def _pack_new_strings(self) -> None:
        """Append the ``codepoints`` rows of strings interned since the last call.

        One UTF-32 encode of the new strings back to back: its code units
        are each string's codepoints, string after string.  Every interned
        string is packed, tokens and attributes included, so
        ``surrogatepass`` keeps a lone surrogate in text the kernels never
        compare from failing the profiling step.
        """
        new = self._strings[len(self.codepoints):]
        if not new:
            return
        codes = np.frombuffer(
            "".join(new).encode("utf-32-le", "surrogatepass"), dtype=np.uint32
        ).astype(np.int32)
        self.codepoints.extend_flat(
            codes, np.fromiter(map(len, new), dtype=np.int64, count=len(new))
        )

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict[str, object]:
        # Ship the columnar arrays themselves — the epoch protocol publishes
        # exactly these bytes once per revision.  The derived ``codepoints``
        # column stays out: it is rebuilt from the string table on load.
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
        if isinstance(state, dict) and state.get("format") == _COLUMNAR_PICKLE_FORMAT:
            self.__init__()
            self._record_ids = list(state["record_ids"])
            self._row_of = {
                record_id: row for row, record_id in enumerate(self._record_ids)
            }
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
            self.codepoints = IdSetColumn()
            self._pack_new_strings()
        else:
            # Legacy payload: a {record_id: RecordProfile} dict written
            # before the columnar layout; rebuild the columns from it.
            self.__init__(state)

    # -- row access ----------------------------------------------------------

    def row_indices(
        self, id_pairs: Sequence[tuple[str, str]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(left rows, right rows) for a sequence of record-id pairs.

        Raises ``KeyError`` for unknown ids.
        """
        row_of = self._row_of
        flat = np.fromiter(
            (row_of[record_id] for pair in id_pairs for record_id in pair),
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
