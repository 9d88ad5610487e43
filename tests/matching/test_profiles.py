"""Per-record feature profiles: equivalence with direct pairwise extraction.

The profile subsystem's contract is that scoring a pair from a
:class:`~repro.matching.profiles.ProfileStore` — the one feature path, used
by the engine and, through ``extract_batch``, by fitting — is **byte
identical** to re-deriving everything from the records, for every record
shape the extractor supports.  The reference implementation below is the
historical pairwise-recompute extractor, kept verbatim as the oracle;
hypothesis drives randomised company / security / product records
(including missing attributes, token-less names and mixed-kind pairs)
against it.  A second oracle, :func:`reference_payload`, is the store's
earlier build-then-append route: every record profiled into an object
first, the objects then packed into columns.  The store's one route must
pickle to the same bytes.
"""

import pickle
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.identifiers import SECURITY_ID_FIELDS
from repro.datagen.records import CompanyRecord, ProductRecord, Record, SecurityRecord
from repro.matching.features import EXTRACT_BATCH_SLICE, PairFeatureExtractor, _pack_pairs
from repro.matching.logistic import LogisticRegressionMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs
from repro.matching.profiles import (
    EQUALITY_ATTRIBUTES,
    KIND_COMPANY,
    KIND_NAMES,
    KIND_OTHER,
    KIND_SECURITY,
    ProfileStore,
    distinct_records,
)
from repro.text.batch_similarity import PAD_LEFT, PAD_RIGHT
from repro.text.normalize import normalize_identifier, normalize_text, strip_corporate_terms
from repro.text.similarity import (
    jaccard_similarity,
    jaro_winkler_similarity,
    levenshtein_similarity,
    longest_common_substring_similarity,
    overlap_coefficient,
)
from repro.text.tokenize import word_tokenize
from tests.text.test_batch_similarity import pack_codepoints


# -- the oracle: the historical pairwise-recompute extractor -----------------


def _name(record: Record) -> str:
    for attribute in ("name", "title"):
        value = getattr(record, attribute, None)
        if value:
            return str(value)
    return ""


def _attribute(record: Record, attribute: str) -> str:
    value = getattr(record, attribute, None)
    return str(value) if value else ""


def _equality_feature(left: Record, right: Record, attribute: str) -> float:
    left_value = normalize_text(_attribute(left, attribute))
    right_value = normalize_text(_attribute(right, attribute))
    if not left_value or not right_value:
        return 0.5
    return 1.0 if left_value == right_value else 0.0


def _identifier_features(left: Record, right: Record) -> tuple[int, int, float]:
    overlaps = 0
    conflicts = 0
    isin_overlap = 0.0
    if isinstance(left, SecurityRecord) and isinstance(right, SecurityRecord):
        for field in SECURITY_ID_FIELDS:
            left_value = normalize_identifier(getattr(left, field))
            right_value = normalize_identifier(getattr(right, field))
            if not left_value or not right_value:
                continue
            if left_value == right_value:
                overlaps += 1
            else:
                conflicts += 1
        isin_overlap = 1.0 if overlaps else 0.0
    if isinstance(left, CompanyRecord) and isinstance(right, CompanyRecord):
        left_isins = {normalize_identifier(value) for value in left.security_isins}
        right_isins = {normalize_identifier(value) for value in right.security_isins}
        left_isins.discard("")
        right_isins.discard("")
        shared = left_isins & right_isins
        overlaps = len(shared)
        if left_isins and right_isins and not shared:
            conflicts = 1
        isin_overlap = 1.0 if shared else 0.0
    return overlaps, conflicts, isin_overlap


def reference_extract(left: Record, right: Record) -> np.ndarray:
    """The pre-profile extractor, re-deriving everything per pair."""
    left_name_norm = normalize_text(_name(left))
    right_name_norm = normalize_text(_name(right))
    left_tokens = left_name_norm.split()
    right_tokens = right_name_norm.split()
    left_stripped = strip_corporate_terms(_name(left))
    right_stripped = strip_corporate_terms(_name(right))
    left_description = _attribute(left, "description")
    right_description = _attribute(right, "description")
    description_tokens_left = word_tokenize(left_description)
    description_tokens_right = word_tokenize(right_description)
    identifier_overlaps, identifier_conflicts, isin_overlap = _identifier_features(
        left, right
    )
    values = (
        jaro_winkler_similarity(left_name_norm, right_name_norm),
        levenshtein_similarity(left_name_norm, right_name_norm),
        jaccard_similarity(left_tokens, right_tokens),
        overlap_coefficient(left_tokens, right_tokens),
        longest_common_substring_similarity(left_name_norm, right_name_norm),
        jaro_winkler_similarity(left_stripped, right_stripped),
        jaccard_similarity(left_stripped.split(), right_stripped.split()),
        jaccard_similarity(description_tokens_left, description_tokens_right)
        if description_tokens_left and description_tokens_right
        else 0.0,
        1.0 if left_description and right_description else 0.0,
        _equality_feature(left, right, "city"),
        _equality_feature(left, right, "region"),
        _equality_feature(left, right, "country_code"),
        _equality_feature(left, right, "industry"),
        _equality_feature(left, right, "security_type"),
        float(identifier_overlaps),
        float(identifier_conflicts),
        isin_overlap,
        _equality_feature(left, right, "ticker"),
        1.0 if left.source == right.source else 0.0,
    )
    return np.asarray(values, dtype=np.float64)


def reference_matrix(pairs) -> np.ndarray:
    """:func:`reference_extract` rows stacked into one feature matrix."""
    matrix = np.empty((len(pairs), len(PairFeatureExtractor.FEATURE_NAMES)))
    for row, (left, right) in enumerate(pairs):
        matrix[row] = reference_extract(left, right)
    return matrix


# -- the payload oracle: build every profile, then pack the columns ----------


@dataclass(frozen=True)
class ReferenceProfile:
    """One record's derived values, computed before anything is interned."""

    source: str
    kind: str
    name_norm: str
    name_tokens: tuple[str, ...]
    stripped_name: str
    stripped_tokens: tuple[str, ...]
    description: str
    description_tokens: tuple[str, ...]
    attributes: tuple[str, ...]
    security_identifiers: tuple[str, ...]
    isins: frozenset[str]


def reference_profile(record: Record) -> ReferenceProfile:
    name = _name(record)
    name_norm = normalize_text(name)
    stripped = strip_corporate_terms(name)
    description = _attribute(record, "description")
    kind, identifiers, isins = KIND_OTHER, (), frozenset()
    if isinstance(record, SecurityRecord):
        kind = KIND_SECURITY
        identifiers = tuple(
            normalize_identifier(_attribute(record, field)) for field in SECURITY_ID_FIELDS
        )
    elif isinstance(record, CompanyRecord):
        kind = KIND_COMPANY
        isins = frozenset(
            normalize_identifier(str(value) if value else "") for value in record.security_isins
        ) - {""}
    return ReferenceProfile(
        source=record.source,
        kind=kind,
        name_norm=name_norm,
        name_tokens=tuple(name_norm.split()),
        stripped_name=stripped,
        stripped_tokens=tuple(stripped.split()),
        description=description,
        description_tokens=tuple(word_tokenize(description)),
        attributes=tuple(
            normalize_text(_attribute(record, attribute)) for attribute in EQUALITY_ATTRIBUTES
        ),
        security_identifiers=identifiers,
        isins=isins,
    )


def reference_payload(records) -> dict:
    """The pickled payload of a store of ``records`` (ids unique), built by
    profiling every record first and then interning the profiles' strings
    column by column, record by record."""
    profiles = {record.record_id: reference_profile(record) for record in records}
    strings, string_ids = [""], {"": 0}

    def intern(value: str) -> int:
        if value not in string_ids:
            string_ids[value] = len(strings)
            strings.append(value)
        return string_ids[value]

    def id_set(tokens) -> list[int]:
        return sorted({intern(token) for token in tokens})

    rows: dict[str, list] = {key: [] for key in (
        "kind", "source", "name", "stripped", "has_description", "name_set",
        "stripped_set", "description_set", "attrs", "identifiers", "isins",
    )}
    for profile in profiles.values():
        rows["kind"].append(KIND_NAMES.index(profile.kind))
        rows["source"].append(intern(profile.source))
        rows["name"].append(intern(profile.name_norm))
        rows["stripped"].append(intern(profile.stripped_name))
        rows["has_description"].append(bool(profile.description))
        rows["name_set"].append(id_set(profile.name_tokens))
        rows["stripped_set"].append(id_set(profile.stripped_tokens))
        rows["description_set"].append(id_set(profile.description_tokens))
        rows["attrs"].append([intern(value) for value in profile.attributes])
        rows["identifiers"].append(
            [intern(value) for value in profile.security_identifiers]
            or [0] * len(SECURITY_ID_FIELDS)
        )
        rows["isins"].append([intern(value) for value in sorted(profile.isins)])

    def id_sets(key: str) -> tuple[np.ndarray, np.ndarray]:
        lengths = np.asarray([len(row) for row in rows[key]], dtype=np.int64)
        values = np.asarray([value for row in rows[key] for value in row], dtype=np.int32)
        return values, np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(lengths)])

    count = len(profiles)
    return {
        "format": "profile-store-columnar-v1",
        "record_ids": list(profiles),
        "strings": strings,
        "kind_codes": np.asarray(rows["kind"], dtype=np.int8),
        "source_ids": np.asarray(rows["source"], dtype=np.int32),
        "name_ids": np.asarray(rows["name"], dtype=np.int32),
        "stripped_ids": np.asarray(rows["stripped"], dtype=np.int32),
        "has_description": np.asarray(rows["has_description"], dtype=np.bool_),
        "attr_ids": np.asarray(rows["attrs"], dtype=np.int32).reshape(
            count, len(EQUALITY_ATTRIBUTES)
        ),
        "identifier_ids": np.asarray(rows["identifiers"], dtype=np.int32).reshape(
            count, len(SECURITY_ID_FIELDS)
        ),
        "name_token_sets": id_sets("name_set"),
        "stripped_token_sets": id_sets("stripped_set"),
        "description_token_sets": id_sets("description_set"),
        "isin_sets": id_sets("isins"),
    }


# -- record strategies --------------------------------------------------------

# Deliberately nasty text: unicode accents, punctuation-only names that
# normalise to "", corporate-term-only names, whitespace runs.
text_value = st.text(
    alphabet="abcXYZ üé.&-!'  corpinc",
    max_size=24,
)
optional_text = st.one_of(st.none(), st.just(""), text_value)
identifier_value = st.one_of(
    st.none(), st.just(""), st.sampled_from(["US0378331005", "ch-0038863350", "a b1"])
)

_counter = iter(range(10**9))


def _next_id() -> str:
    return f"r{next(_counter)}"


company_records = st.builds(
    lambda source, name, city, region, country, description, industry, isins: CompanyRecord(
        record_id=_next_id(),
        source=source,
        entity_id="e",
        name=name,
        city=city,
        region=region,
        country_code=country,
        description=description,
        industry=industry,
        security_isins=tuple(isins),
    ),
    st.sampled_from(["S1", "S2"]),
    text_value,
    optional_text,
    optional_text,
    optional_text,
    optional_text,
    optional_text,
    st.lists(identifier_value.filter(lambda v: v is not None), max_size=3),
)

security_records = st.builds(
    lambda source, name, sec_type, isin, cusip, sedol, valor, ticker: SecurityRecord(
        record_id=_next_id(),
        source=source,
        entity_id="e",
        name=name,
        security_type=sec_type or "",
        isin=isin,
        cusip=cusip,
        sedol=sedol,
        valor=valor,
        ticker=ticker,
    ),
    st.sampled_from(["S1", "S2"]),
    text_value,
    optional_text,
    identifier_value,
    identifier_value,
    identifier_value,
    identifier_value,
    optional_text,
)

product_records = st.builds(
    lambda source, title, brand, description: ProductRecord(
        record_id=_next_id(),
        source=source,
        entity_id="e",
        title=title,
        brand=brand,
        description=description,
    ),
    st.sampled_from(["S1", "S2"]),
    text_value,
    optional_text,
    optional_text,
)

any_record = st.one_of(company_records, security_records, product_records)


# -- the equivalence property -------------------------------------------------


class TestProfileEquivalence:
    extractor = PairFeatureExtractor()

    @given(any_record, any_record)
    @settings(max_examples=300, deadline=None)
    def test_profiled_extraction_equals_reference(self, left, right):
        expected = reference_extract(left, right)
        via_extract = self.extractor.extract_batch([(left, right)])[0]
        store = ProfileStore.prepare([left, right])
        via_store = self.extractor.extract_batch_profiles(
            store, [(left.record_id, right.record_id)]
        )[0]
        # Bitwise equality, not approx: profiles precompute, they never
        # change a single float.
        assert np.array_equal(expected, via_extract)
        assert np.array_equal(expected, via_store)

    @given(st.lists(st.tuples(any_record, any_record), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_extract_batch_equals_per_pair_reference(self, pairs):
        batch = self.extractor.extract_batch(pairs)
        assert batch.shape == (len(pairs), self.extractor.num_features)
        assert batch.dtype == np.float64
        for row, (left, right) in zip(batch, pairs):
            assert np.array_equal(row, reference_extract(left, right))


def _payload_bytes(store: ProfileStore) -> bytes:
    return pickle.dumps(store.__getstate__())


class TestOneProfileRoute:
    """``prepare`` and ``add_records`` pickle to the reference payload."""

    @given(st.lists(any_record, max_size=10), st.data())
    @settings(max_examples=150, deadline=None)
    def test_payload_equals_the_build_then_append_route(self, records, data):
        # Copies under fresh ids repeat every raw string, hitting the memos.
        records = records + [replace(record, record_id=_next_id()) for record in records[:3]]
        expected = pickle.dumps(reference_payload(records))
        assert _payload_bytes(ProfileStore.prepare(records)) == expected
        split = data.draw(st.integers(0, len(records)))
        grown = ProfileStore.prepare(records[:split])
        grown.add_records(records[split:])
        assert _payload_bytes(grown) == expected

    def test_generated_corpora_payload_equals_the_reference(self, companies, securities):
        records = companies.records[:400] + securities.records[:400]
        expected = pickle.dumps(reference_payload(records))
        assert _payload_bytes(ProfileStore.prepare(records)) == expected
        grown = ProfileStore.prepare(records[:250])
        for start in range(250, len(records), 100):
            grown.add_records(records[start:start + 100])
        assert _payload_bytes(grown) == expected


class TestRepeatedIds:
    """Both entry points keep one record per id, the first one seen."""

    alpha = CompanyRecord(record_id="x", source="S1", entity_id="e", name="Alpha")
    beta = CompanyRecord(record_id="x", source="S2", entity_id="e", name="Beta")

    def test_a_different_record_under_a_seen_id_is_refused(self):
        with pytest.raises(ValueError, match="'x'"):
            ProfileStore.prepare([self.alpha, self.beta])
        store = ProfileStore.prepare([])
        with pytest.raises(ValueError, match="'x'"):
            store.add_records([self.alpha, self.beta])
        assert len(store) == 0 and store.revision == 0 and list(store.strings) == [""]

    def test_equal_copies_are_profiled_once(self):
        copy = replace(self.alpha)
        assert copy == self.alpha and copy is not self.alpha
        records = [self.alpha, copy, self.alpha]
        assert distinct_records([records]) == [self.alpha]
        prepared = ProfileStore.prepare(records)
        grown = ProfileStore.prepare([])
        assert grown.add_records(records) == 1
        assert len(prepared) == 1
        assert _payload_bytes(prepared) == _payload_bytes(grown)
        assert prepared.string_at(prepared.name_ids[0]) == "alpha"

    def test_a_stored_id_is_skipped(self):
        store = ProfileStore.prepare([self.alpha])
        assert store.add_records([self.beta]) == 0
        assert store.revision == 0
        assert store.string_at(store.name_ids[0]) == "alpha"


class _ReferenceExtractor(PairFeatureExtractor):
    """Scores id pairs with the per-pair oracle instead of the store.

    Overrides :meth:`~PairFeatureExtractor.extract_sliced`, the method
    fitting calls, and resolves the ids through the records it was given.
    """

    def __init__(self, records) -> None:
        self.by_id = {record.record_id: record for record in records}
        self.calls = 0

    def extract_sliced(self, profiles, id_pairs) -> np.ndarray:
        self.calls += 1
        return reference_matrix(
            [(self.by_id[left], self.by_id[right]) for left, right in id_pairs]
        )


class TestSingleFeaturePath:
    """Fitting and record-pair extraction run the columnar store path."""

    def test_fit_equals_fit_on_the_reference_features(self, companies):
        record_pairs, labels = as_record_pairs(
            build_labeled_pairs(companies, negative_ratio=3, seed=0)
        )
        split = int(len(record_pairs) * 0.8)
        oracle = _ReferenceExtractor(companies.records)
        columnar, reference = (
            LogisticRegressionMatcher(extractor=extractor).fit(
                record_pairs[:split],
                labels[:split],
                validation_pairs=record_pairs[split:],
                validation_labels=labels[split:],
            )
            for extractor in (None, oracle)
        )
        assert type(columnar.extractor) is PairFeatureExtractor
        # Training and validation features both came from the oracle.
        assert oracle.calls == 2
        for attribute in ("_weights", "_feature_means", "_feature_scales"):
            assert getattr(columnar, attribute).tobytes() == getattr(
                reference, attribute
            ).tobytes()
        assert np.float64(columnar._bias).tobytes() == np.float64(reference._bias).tobytes()
        assert columnar.history == reference.history
        assert len(columnar.history.validation_loss) == columnar.num_iterations

    def test_extract_batch_across_slice_boundaries(self, companies, securities):
        records = companies.records + securities.records
        count = 2 * EXTRACT_BATCH_SLICE + 76
        assert count >= 1100 and count % EXTRACT_BATCH_SLICE
        pairs = [
            (records[index % len(records)], records[(7 * index + 1) % len(records)])
            for index in range(count)
        ]
        matrix = PairFeatureExtractor().extract_batch(pairs)
        assert matrix.shape == (count, PairFeatureExtractor().num_features)
        for row, (left, right) in zip(matrix, pairs):
            assert row.tobytes() == reference_extract(left, right).tobytes()


    def test_fit_profiled_on_a_corpus_store_equals_fit(self, companies):
        first_records = {record.record_id for record in companies.records[:200]}
        labelled = [
            pair
            for pair in build_labeled_pairs(companies, negative_ratio=3, seed=4)
            if {pair.left.record_id, pair.right.record_id} <= first_records
        ]
        record_pairs, labels = as_record_pairs(labelled)
        id_pairs = [(left.record_id, right.record_id) for left, right in record_pairs]
        split = int(len(record_pairs) * 0.8)
        via_records = LogisticRegressionMatcher().fit(
            record_pairs[:split],
            labels[:split],
            validation_pairs=record_pairs[split:],
            validation_labels=labels[split:],
        )
        profiled = LogisticRegressionMatcher()
        # The corpus store holds every record, in dataset order — not just
        # the pairs' records in pair order.
        store = profiled.prepare_profiles(companies)
        assert len(store) == len(companies) > len(
            {record_id for pair in id_pairs for record_id in pair}
        )
        profiled.fit_profiled(
            store, id_pairs[:split], labels[:split], id_pairs[split:], labels[split:]
        )
        for attribute in ("_weights", "_feature_means", "_feature_scales"):
            assert getattr(profiled, attribute).tobytes() == getattr(
                via_records, attribute
            ).tobytes()
        assert np.float64(profiled._bias).tobytes() == np.float64(via_records._bias).tobytes()
        assert profiled.history == via_records.history
        assert (
            profiled.score_profiled(store, id_pairs).tobytes()
            == np.asarray(via_records.predict_proba(record_pairs)).tobytes()
        )

    def test_fit_rejects_records_sharing_an_id_across_training_and_validation(
        self, companies
    ):
        record_pairs, labels = as_record_pairs(
            build_labeled_pairs(companies, negative_ratio=1, seed=0)
        )
        left, right = record_pairs[-1]
        impostor = CompanyRecord(
            record_id=left.record_id, source=left.source, entity_id="x", name="Impostor"
        )
        with pytest.raises(ValueError, match=repr(left.record_id)):
            LogisticRegressionMatcher(num_iterations=2).fit(
                record_pairs[:-1],
                labels[:-1],
                validation_pairs=[(impostor, right)],
                validation_labels=[0],
            )


def _mixed_length_pairs(records, count: int, seed: int):
    """Pairs whose names are short, long (past 63 codepoints) and mixed."""
    rng = np.random.default_rng(seed)
    long_records = [
        CompanyRecord(
            record_id=f"long{index}",
            source="S9",
            entity_id="e",
            name=f"{records[index].name} " * (3 + index % 4) + "𝔘nion Holdings",
        )
        for index in range(40)
    ]
    pool = list(records) + long_records
    return [
        (pool[int(left)], pool[int(right)])
        for left, right in rng.integers(0, len(pool), size=(count, 2))
    ]


class TestNameLengthOrder:
    """Slices are taken in name-length order; rows land where their pairs are."""

    def test_shuffled_pairs_give_the_same_rows(self, companies):
        count = 3 * EXTRACT_BATCH_SLICE + 17
        pairs = _mixed_length_pairs(companies.records, count, seed=1)
        lengths = [max(len(left.name), len(right.name)) for left, right in pairs]
        assert min(lengths) < 20 and max(lengths) > 63
        extractor = PairFeatureExtractor()
        matrix = extractor.extract_batch(pairs)
        permutation = np.random.default_rng(2).permutation(count)
        shuffled = extractor.extract_batch([pairs[index] for index in permutation])
        for row, index in enumerate(permutation):
            assert shuffled[row].tobytes() == matrix[index].tobytes()
        for row in (0, EXTRACT_BATCH_SLICE - 1, EXTRACT_BATCH_SLICE, count - 1):
            left, right = pairs[row]
            assert matrix[row].tobytes() == reference_extract(left, right).tobytes()

    def test_sliced_equals_one_unsliced_call(self, companies):
        pairs = _mixed_length_pairs(companies.records, 2 * EXTRACT_BATCH_SLICE + 5, seed=3)
        extractor = PairFeatureExtractor()
        store = ProfileStore.prepare(distinct_records(pairs))
        id_pairs = [(left.record_id, right.record_id) for left, right in pairs]
        assert (
            extractor.extract_sliced(store, id_pairs).tobytes()
            == extractor.extract_batch_profiles(store, id_pairs).tobytes()
        )

    def test_empty(self):
        store = ProfileStore.prepare([])
        assert PairFeatureExtractor().extract_sliced(store, []).shape == (
            0,
            PairFeatureExtractor().num_features,
        )


#: The keys of the pickled store payload — the derived ``codepoints``
#: column is not one of them.
PAYLOAD_KEYS = {
    "format", "record_ids", "strings", "kind_codes", "source_ids", "name_ids",
    "stripped_ids", "has_description", "attr_ids", "identifier_ids",
    "name_token_sets", "stripped_token_sets", "description_token_sets", "isin_sets",
}


def _assert_packs_like_pack_codepoints(store: ProfileStore) -> None:
    """``_pack_pairs`` on every string id, both sides, equals fresh packing."""
    ids = np.arange(len(store.strings), dtype=np.int64)
    for left_ids, right_ids in (
        (ids, ids[::-1].copy()),
        (ids[:1], ids[:1]),
        (ids[1:2], ids[:1]),
    ):
        packed = _pack_pairs(store.codepoints, left_ids, right_ids)
        left_codes, left_lengths = pack_codepoints(
            [store.strings[index] for index in left_ids], fill=PAD_LEFT
        )
        right_codes, right_lengths = pack_codepoints(
            [store.strings[index] for index in right_ids], fill=PAD_RIGHT
        )
        expected = (left_codes, left_lengths, right_codes, right_lengths)
        for got, want in zip(packed[:4], expected):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert packed[4].tobytes() == (left_ids == right_ids).tobytes()


class TestPackedCodepoints:
    """The store packs each interned string once; gathers equal fresh packing."""

    @staticmethod
    def records():
        return [
            # Names and attributes are normalised to ASCII; the source is
            # interned as given, so it carries the non-BMP codepoints.
            CompanyRecord(record_id="a", source="S𝔘𝔫𝔦", entity_id="e", name="Acme Inc",
                          city="Zürich", description="Makes 🚀 parts"),
            CompanyRecord(record_id="b", source="S2", entity_id="e", name="!!!"),
            CompanyRecord(record_id="c", source="S1", entity_id="e",
                          name="International Business Machines Corporation of New York " * 2),
            SecurityRecord(record_id="d", source="S3", entity_id="e", name="Acme stock",
                           isin="US0378331005", ticker="ACM"),
        ]

    def test_pack_pairs_equals_pack_codepoints(self):
        store = ProfileStore.prepare(self.records())
        assert store.strings[0] == "" and store.codepoints.lengths(np.array([0]))[0] == 0
        assert max(len(value) for value in store.strings) > 63
        assert any(ord(char) > 0xFFFF for value in store.strings for char in value)
        assert len(store.codepoints) == len(store.strings)
        _assert_packs_like_pack_codepoints(store)

    def test_a_lone_surrogate_in_an_interned_string_packs_by_codepoint(self):
        # The source is interned as given and never compared by the kernels;
        # packing it must not fail the profiling step.
        store = ProfileStore.prepare(
            [CompanyRecord(record_id="a", source="S\ud800x", entity_id="e", name="Acme")]
        )
        source_id = np.asarray(store.source_ids[:1], dtype=np.int64)
        codes, lengths = store.codepoints.padded_rows(source_id, PAD_LEFT)
        assert codes.tolist() == [[ord("S"), 0xD800, ord("x")]] and lengths.tolist() == [3]

    def test_empty_id_arrays_pack_to_width_one(self):
        store = ProfileStore.prepare([])
        none = np.zeros(0, dtype=np.int64)
        packed = _pack_pairs(store.codepoints, none, none)
        assert packed[0].shape == pack_codepoints([], fill=PAD_LEFT)[0].shape == (0, 1)

    def test_a_grown_store_packs_the_new_strings(self):
        first, *rest = self.records()
        store = ProfileStore.prepare([first])
        before = len(store.codepoints)
        assert store.add_records(rest) == len(rest)
        assert len(store.codepoints) == len(store.strings) > before
        _assert_packs_like_pack_codepoints(store)
        fresh = ProfileStore.prepare(self.records())
        assert store.codepoints.values.tobytes() == fresh.codepoints.values.tobytes()
        assert store.codepoints.offsets.tobytes() == fresh.codepoints.offsets.tobytes()

    def test_pickle_round_trip_rebuilds_the_column_outside_the_payload(self):
        store = ProfileStore.prepare(self.records())
        payload = store.__getstate__()
        assert set(payload) == PAYLOAD_KEYS
        clone = pickle.loads(pickle.dumps(store))
        assert pickle.dumps(clone.__getstate__()) == pickle.dumps(payload)
        assert clone.codepoints.values.tobytes() == store.codepoints.values.tobytes()
        assert clone.codepoints.offsets.tobytes() == store.codepoints.offsets.tobytes()
        _assert_packs_like_pack_codepoints(clone)

    def test_a_payload_without_the_format_marker_is_refused(self):
        payload = ProfileStore.prepare(self.records()).__getstate__()
        del payload["format"]
        # The pre-columnar payload was a plain {record_id: profile} dict.
        for unmarked in (payload, {"a": object()}, None):
            with pytest.raises(ValueError, match="'profile-store-columnar-v1'"):
                ProfileStore.__new__(ProfileStore).__setstate__(unmarked)


class TestColumnarBatchEquivalence:
    """The vectorised store path against the per-pair oracle.

    ``extract_batch_profiles`` must be byte-for-byte the matrix of
    :func:`reference_extract` rows — over randomized record mixes,
    duplicated pairs (the dedup path), repeated extraction, and a pickled
    clone of the store (the worker-shipping path).
    """

    extractor = PairFeatureExtractor()

    @given(st.lists(any_record, min_size=1, max_size=10), st.data())
    @settings(max_examples=80, deadline=None)
    def test_columnar_equals_rows_repeated_and_pickled(self, records, data):
        store = ProfileStore.prepare(records)
        ids = [record.record_id for record in records]
        index_pairs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(ids) - 1), st.integers(0, len(ids) - 1)
                ),
                max_size=12,
            )
        )
        id_pairs = [(ids[i], ids[j]) for i, j in index_pairs]
        id_pairs += id_pairs[:3]  # duplicates exercise the dedup path

        by_id = dict(zip(ids, records))
        reference = reference_matrix([(by_id[left], by_id[right]) for left, right in id_pairs])
        first = self.extractor.extract_batch_profiles(store, id_pairs)
        again = self.extractor.extract_batch_profiles(store, id_pairs)
        assert first.tobytes() == reference.tobytes()
        assert again.tobytes() == reference.tobytes()

        clone = pickle.loads(pickle.dumps(store))
        rescored = self.extractor.extract_batch_profiles(clone, id_pairs)
        assert rescored.tobytes() == reference.tobytes()

    def test_empty_pair_list(self):
        store = ProfileStore.prepare(
            [CompanyRecord(record_id="a", source="S1", entity_id="e", name="Acme")]
        )
        matrix = self.extractor.extract_batch_profiles(store, [])
        assert matrix.shape == (0, self.extractor.num_features)
        assert matrix.dtype == np.float64
        rows = self.extractor.extract_batch([])
        assert rows.shape == matrix.shape

    def test_empty_store_roundtrip(self):
        store = ProfileStore.prepare([])
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone) == 0
        assert self.extractor.extract_batch_profiles(clone, []).shape == (
            0,
            self.extractor.num_features,
        )


def _strings_at(store: ProfileStore, ids) -> list[str]:
    return [store.string_at(index) for index in ids]


def _set_row(store: ProfileStore, column) -> list[str]:
    """Row 0 of a set column, as strings."""
    return _strings_at(store, column.values[column.offsets[0]:column.offsets[1]])


class TestProfileEdgeCases:
    extractor = PairFeatureExtractor()

    def test_token_less_name_profiles_cleanly(self):
        record = CompanyRecord(record_id="a", source="S1", entity_id="e", name="!!! ...")
        store = ProfileStore.prepare([record])
        assert store.string_at(store.name_ids[0]) == ""
        assert store.string_at(store.stripped_ids[0]) == ""
        assert _set_row(store, store.name_token_sets) == []
        assert _set_row(store, store.stripped_token_sets) == []

    def test_corporate_terms_only_name_keeps_normalised_form(self):
        record = CompanyRecord(record_id="a", source="S1", entity_id="e", name="Holdings Inc")
        store = ProfileStore.prepare([record])
        # strip_corporate_terms falls back to the full normalised name.
        assert store.string_at(store.stripped_ids[0]) == "holdings inc"
        assert sorted(_set_row(store, store.stripped_token_sets)) == ["holdings", "inc"]

    def test_kinds(self):
        company = CompanyRecord(record_id="c", source="S1", entity_id="e", name="Acme")
        security = SecurityRecord(record_id="s", source="S1", entity_id="e", name="Acme stock")
        product = ProductRecord(record_id="p", source="S1", entity_id="e", title="Acme gadget")
        store = ProfileStore.prepare([company, security, product])
        assert [KIND_NAMES[code] for code in store.kind_codes] == [
            KIND_COMPANY,
            KIND_SECURITY,
            KIND_OTHER,
        ]

    def test_mixed_kind_pair_has_neutral_identifier_features(self):
        company = CompanyRecord(
            record_id="c", source="S1", entity_id="e", name="Acme",
            security_isins=("US0378331005",),
        )
        security = SecurityRecord(
            record_id="s", source="S2", entity_id="e", name="Acme stock",
            isin="US0378331005",
        )
        vector = self.extractor.extract_batch([(company, security)])[0]
        names = self.extractor.feature_names()
        assert vector[names.index("identifier_overlap_count")] == 0.0
        assert vector[names.index("identifier_conflict_count")] == 0.0
        assert vector[names.index("isin_overlap")] == 0.0
        assert np.array_equal(vector, reference_extract(company, security))

    def test_security_identifiers_follow_field_order(self):
        record = SecurityRecord(
            record_id="s", source="S1", entity_id="e", name="Acme stock",
            isin="us-037", cusip=None, sedol="b1 23", valor="",
        )
        store = ProfileStore.prepare([record])
        expected = [
            normalize_identifier(getattr(record, field)) for field in SECURITY_ID_FIELDS
        ]
        assert _strings_at(store, store.identifier_ids[0]) == expected

    def test_company_isins_are_normalised_without_empties(self):
        record = CompanyRecord(
            record_id="c", source="S1", entity_id="e", name="Acme",
            security_isins=("us-037", "", "US037", "ch 1"),
        )
        store = ProfileStore.prepare([record])
        assert sorted(_set_row(store, store.isin_sets)) == ["CH1", "US037"]
        assert _strings_at(store, store.identifier_ids[0]) == [""] * len(SECURITY_ID_FIELDS)

    def test_product_records_use_title(self):
        record = ProductRecord(record_id="p", source="S1", entity_id="e",
                               title="Wireless Mouse 2000")
        store = ProfileStore.prepare([record])
        assert store.string_at(store.name_ids[0]) == "wireless mouse 2000"


class TestProfileStore:
    def test_prepare_profiles_every_record_once(self):
        records = [
            CompanyRecord(record_id=f"r{i}", source="S1", entity_id="e", name=f"Acme {i}")
            for i in range(5)
        ]
        store = ProfileStore.prepare(records)
        assert len(store) == 5
        assert all(record.record_id in store for record in records)
        assert store.string_at(store.name_ids[store.record_ids.index("r3")]) == "acme 3"

    def test_missing_record_raises(self):
        store = ProfileStore.prepare([])
        with pytest.raises(KeyError):
            store.row_indices([("nope", "nope")])

    def test_store_is_picklable(self):
        records = [
            SecurityRecord(record_id="s1", source="S1", entity_id="e",
                           name="Acme stock", isin="US0378331005"),
            CompanyRecord(record_id="c1", source="S2", entity_id="e",
                          name="Acme Corp", security_isins=("US0378331005",)),
        ]
        store = ProfileStore.prepare(records)
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone) == len(store)
        assert pickle.dumps(clone.__getstate__()) == pickle.dumps(store.__getstate__())

    def test_payload_with_description_token_seqs_loads_and_scores_bitwise(
        self, companies
    ):
        # Earlier versions also pickled the ordered description token ids.
        records = companies.records[:60]
        store = ProfileStore.prepare(records)
        string_ids = {value: index for index, value in enumerate(store.strings)}
        sequences = [
            [string_ids[token] for token in word_tokenize(_attribute(record, "description"))]
            for record in records
        ]
        assert any(sequences)
        payload = store.__getstate__()
        payload["description_token_seqs"] = (
            np.asarray([index for sequence in sequences for index in sequence], dtype=np.int32),
            np.concatenate(([0], np.cumsum([len(sequence) for sequence in sequences]))),
        )
        legacy = ProfileStore.__new__(ProfileStore)
        legacy.__setstate__(payload)

        id_pairs = [(left.record_id, right.record_id) for left, right in zip(records, records[7:])]
        extractor = PairFeatureExtractor()
        assert (
            extractor.extract_batch_profiles(legacy, id_pairs).tobytes()
            == extractor.extract_batch_profiles(store, id_pairs).tobytes()
        )
        assert pickle.dumps(legacy.__getstate__()) == pickle.dumps(store.__getstate__())
