"""Similarity features for the classical (feature-based) matcher.

The feature extractor turns record pairs into a matrix with one fixed-length
float64 row of string / set / identifier similarities per pair.  It powers
the :class:`~repro.matching.logistic.LogisticRegressionMatcher`, which plays
the role of a strong non-neural baseline and is also much faster than the
attention model — handy for large candidate sets.

There is one feature implementation,
:meth:`PairFeatureExtractor.extract_batch_profiles`.  It scores id pairs
against a prepared :class:`~repro.matching.profiles.ProfileStore`, which
holds every record-local derivation (text normalisation, tokenisation,
identifier canonicalisation) once per record, and computes each
``FEATURE_NAMES`` column as array ops over row-index pairs.  Set-overlap
features run as sorted-id intersection counts over the store's CSR columns,
attribute agreements as interned-id equality, and the string similarities as
batched kernels (:mod:`repro.text.batch_similarity`) over the
*deduplicated* distinct string pairs of the whole call, gathered back per
pair.  The kernels read the store's ``kernel_strings`` table, where each
name and stripped name got its padded characters and position masks once,
when the store interned it, and they cut the distinct pairs into slices of
bounded memory themselves.  The row features (set overlaps, attributes,
identifiers) run over all pairs at once: their temporaries are a small
multiple of the output matrix.  Fitting calls the same method on the
experiment's store, and :meth:`PairFeatureExtractor.extract_batch`, the
record-pair entry point, profiles the pairs' records into a store and calls
it.

Every column replays the same float64 operations on the same values as
scoring each pair from its two records (int→float divisions of exact
counts, kernels bitwise-equal to their scalar forms), so the matrix is
bitwise identical to per-pair recomputation.  The per-pair oracle
``reference_extract`` lives in ``tests/matching/test_profiles.py``, whose
hypothesis suites pin the equivalence.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.datagen.records import Record
from repro.matching.profiles import (
    KIND_COMPANY,
    KIND_NAMES,
    KIND_SECURITY,
    IdSetColumn,
    ProfileStore,
    sorted_intersection_counts,
)
from repro.text.batch_similarity import pair_scores, pair_similarities

_COMPANY_CODE = KIND_NAMES.index(KIND_COMPANY)
_SECURITY_CODE = KIND_NAMES.index(KIND_SECURITY)

# -- columnar building blocks -------------------------------------------------


def _unique_pairs(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(unique left, unique right, inverse) for an ordered pair list of
    non-negative int32-range ids.

    Packs each (left, right) pair into one int64 key (the shift is
    lossless); the expensive string work then runs once per *distinct*
    pair and is gathered back through ``inverse``.
    """
    keys = (left.astype(np.int64) << 32) | right.astype(np.int64)
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    return (unique_keys >> 32), (unique_keys & 0xFFFFFFFF), inverse


def gather_pair_similarities(
    store: ProfileStore, left_rows: np.ndarray, right_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair (name jw, name lev, name lcs, stripped jw) in one sweep.

    The name and the stripped-name pairs of every record pair are
    deduplicated together, as rows of the store's ``kernel_strings``: a
    name without corporate terms is its own stripped name, so the two often
    share a string pair.  One kernel call scores every distinct pair of
    either kind with Jaro–Winkler, and the distinct name pairs among them
    with Levenshtein and longest common substring too.
    """
    count = len(left_rows)
    rows = store.kernel_rows
    unique_left, unique_right, inverse = _unique_pairs(
        rows[np.concatenate((store.name_ids[left_rows], store.stripped_ids[left_rows]))],
        rows[np.concatenate((store.name_ids[right_rows], store.stripped_ids[right_rows]))],
    )
    names = inverse[:count]
    edit = np.zeros(len(unique_left), dtype=np.bool_)
    edit[names] = True
    jaro_winkler, levenshtein, lcs = pair_similarities(
        store.kernel_strings, unique_left, unique_right, edit
    )
    return jaro_winkler[names], levenshtein[names], lcs[names], jaro_winkler[inverse[count:]]


def gather_stripped_similarities(
    store: ProfileStore, left_rows: np.ndarray, right_rows: np.ndarray
) -> np.ndarray:
    """Per-pair Jaro–Winkler over corporate-term-stripped names."""
    rows = store.kernel_rows
    unique_left, unique_right, inverse = _unique_pairs(
        rows[store.stripped_ids[left_rows]], rows[store.stripped_ids[right_rows]]
    )
    jaro_winkler, _, _ = pair_scores(
        store.kernel_strings,
        unique_left,
        unique_right,
        np.zeros(len(unique_left), dtype=np.bool_),
    )
    return jaro_winkler[inverse]


def _jaccard_counts(
    shared: np.ndarray, left_sizes: np.ndarray, right_sizes: np.ndarray
) -> np.ndarray:
    """Vector Jaccard from intersection counts; both-empty is 1.0 by definition."""
    union = left_sizes + right_sizes - shared
    out = np.ones(len(shared), dtype=np.float64)
    nonempty = union > 0
    out[nonempty] = shared[nonempty].astype(np.float64) / union[nonempty].astype(
        np.float64
    )
    return out


def _overlap_counts(
    shared: np.ndarray, left_sizes: np.ndarray, right_sizes: np.ndarray
) -> np.ndarray:
    """Vector overlap coefficient; both-empty 1.0, either-empty 0.0."""
    out = np.zeros(len(shared), dtype=np.float64)
    out[(left_sizes == 0) & (right_sizes == 0)] = 1.0
    both = (left_sizes > 0) & (right_sizes > 0)
    out[both] = shared[both].astype(np.float64) / np.minimum(
        left_sizes[both], right_sizes[both]
    ).astype(np.float64)
    return out


def _set_features(
    column: IdSetColumn, left_rows: np.ndarray, right_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(intersection counts, left sizes, right sizes) for one CSR set column."""
    shared = sorted_intersection_counts(column, left_rows, right_rows)
    return shared, column.lengths(left_rows), column.lengths(right_rows)


class PairFeatureExtractor:
    """Extract one numeric feature vector per record pair.

    The feature set is intentionally generic: a block of name similarities, a
    block of auxiliary-attribute agreements and a block of identifier
    overlaps.  Fields that a record type does not have contribute neutral
    values, so the same extractor works for companies, securities and
    products.
    """

    FEATURE_NAMES: tuple[str, ...] = (
        "name_jaro_winkler",
        "name_levenshtein",
        "name_token_jaccard",
        "name_token_overlap",
        "name_lcs",
        "stripped_name_jaro_winkler",
        "stripped_name_token_jaccard",
        "description_token_jaccard",
        "description_present_both",
        "city_match",
        "region_match",
        "country_match",
        "industry_match",
        "security_type_match",
        "identifier_overlap_count",
        "identifier_conflict_count",
        "isin_overlap",
        "ticker_match",
        "same_source",
    )

    def feature_names(self) -> tuple[str, ...]:
        return self.FEATURE_NAMES

    @property
    def num_features(self) -> int:
        return len(self.FEATURE_NAMES)

    def extract_batch(self, pairs: Sequence[tuple[Record, Record]]) -> np.ndarray:
        """Feature matrix (num_pairs, num_features) for a record-pair sequence.

        Profiles the distinct records of the pairs once into a
        :class:`~repro.matching.profiles.ProfileStore` and scores the id
        pairs with :meth:`extract_batch_profiles`.  The store keys profiles
        by record id, so two different records sharing an id in one call
        raise ``ValueError`` (equal copies are fine).
        """
        store = ProfileStore.prepare(record for pair in pairs for record in pair)
        return self.extract_batch_profiles(
            store, [(left.record_id, right.record_id) for left, right in pairs]
        )

    def extract_batch_profiles(
        self, profiles: ProfileStore, id_pairs: Sequence[tuple[str, str]]
    ) -> np.ndarray:
        """Feature matrix for any number of id pairs against a prepared store.

        The one feature implementation, used by the execution engine, by
        fitting and by :meth:`extract_batch`: each feature column is one
        array expression over all the row-index pairs, and only the distinct
        string pairs of the whole call reach the batched kernels, which cut
        them into slices of bounded memory themselves.  Bitwise identical to
        scoring each pair from its two records — dtype float64 throughout,
        the same left-to-right scalar operations per value — which the
        golden suites and a hypothesis test pin.
        """
        if not id_pairs:
            return np.zeros((0, self.num_features), dtype=np.float64)
        left_rows, right_rows = profiles.row_indices(id_pairs)
        return self._extract_rows(profiles, left_rows, right_rows)

    def _extract_rows(
        self, profiles: ProfileStore, left_rows: np.ndarray, right_rows: np.ndarray
    ) -> np.ndarray:
        """The feature matrix over row-index pairs of ``profiles``."""
        name_jw, name_lev, name_lcs, stripped_jw = gather_pair_similarities(
            profiles, left_rows, right_rows
        )

        name_shared, name_left, name_right = _set_features(
            profiles.name_token_sets, left_rows, right_rows
        )
        stripped_shared, stripped_left, stripped_right = _set_features(
            profiles.stripped_token_sets, left_rows, right_rows
        )
        description_shared, description_left, description_right = _set_features(
            profiles.description_token_sets, left_rows, right_rows
        )
        # Gated on both token sets nonempty, else 0.
        description_jaccard = np.zeros(len(left_rows), dtype=np.float64)
        both_described = (description_left > 0) & (description_right > 0)
        description_union = (
            description_left + description_right - description_shared
        )
        description_jaccard[both_described] = description_shared[
            both_described
        ].astype(np.float64) / description_union[both_described].astype(np.float64)

        overlaps, conflicts, isin_overlap = self._identifier_columns(
            profiles, left_rows, right_rows
        )

        attr_left = profiles.attr_ids[left_rows]
        attr_right = profiles.attr_ids[right_rows]
        # 0.5 if either side missing (id 0 == empty string), else 1/0 equality.
        attr_match = np.where(
            (attr_left == 0) | (attr_right == 0),
            0.5,
            (attr_left == attr_right).astype(np.float64),
        )

        matrix = np.column_stack(
            (
                name_jw,
                name_lev,
                _jaccard_counts(name_shared, name_left, name_right),
                _overlap_counts(name_shared, name_left, name_right),
                name_lcs,
                stripped_jw,
                _jaccard_counts(stripped_shared, stripped_left, stripped_right),
                description_jaccard,
                (
                    profiles.has_description[left_rows]
                    & profiles.has_description[right_rows]
                ).astype(np.float64),
                attr_match[:, 0],  # city
                attr_match[:, 1],  # region
                attr_match[:, 2],  # country_code
                attr_match[:, 3],  # industry
                attr_match[:, 4],  # security_type
                overlaps.astype(np.float64),
                conflicts.astype(np.float64),
                isin_overlap,
                attr_match[:, 5],  # ticker
                (
                    profiles.source_ids[left_rows] == profiles.source_ids[right_rows]
                ).astype(np.float64),
            )
        )
        return np.ascontiguousarray(matrix)

    @staticmethod
    def _identifier_columns(
        profiles: ProfileStore, left_rows: np.ndarray, right_rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar (overlap count, conflict count, ISIN overlap flag).

        Only same-kind pairs compare identifiers: securities compare
        field-aligned identifier ids (0 == missing skips the field),
        companies intersect their ISIN id sets; mixed pairs stay neutral.
        """
        count = len(left_rows)
        overlaps = np.zeros(count, dtype=np.int64)
        conflicts = np.zeros(count, dtype=np.int64)
        isin_overlap = np.zeros(count, dtype=np.float64)

        kinds_left = profiles.kind_codes[left_rows]
        kinds_right = profiles.kind_codes[right_rows]

        security_pairs = (kinds_left == _SECURITY_CODE) & (
            kinds_right == _SECURITY_CODE
        )
        if security_pairs.any():
            ids_left = profiles.identifier_ids[left_rows[security_pairs]]
            ids_right = profiles.identifier_ids[right_rows[security_pairs]]
            present = (ids_left != 0) & (ids_right != 0)
            equal = present & (ids_left == ids_right)
            pair_overlaps = equal.sum(axis=1)
            overlaps[security_pairs] = pair_overlaps
            conflicts[security_pairs] = (present & ~equal).sum(axis=1)
            isin_overlap[security_pairs] = (pair_overlaps > 0).astype(np.float64)

        company_pairs = (kinds_left == _COMPANY_CODE) & (
            kinds_right == _COMPANY_CODE
        )
        if company_pairs.any():
            shared, sizes_left, sizes_right = _set_features(
                profiles.isin_sets,
                left_rows[company_pairs],
                right_rows[company_pairs],
            )
            overlaps[company_pairs] = shared
            conflicts[company_pairs] = (
                (sizes_left > 0) & (sizes_right > 0) & (shared == 0)
            ).astype(np.int64)
            isin_overlap[company_pairs] = (shared > 0).astype(np.float64)

        return overlaps, conflicts, isin_overlap
