"""Bitwise equivalence of the batched similarity kernels with the scalars.

The batch kernels are the matching hot path's arithmetic core; their
contract is *bitwise* agreement with the scalar functions in
:mod:`repro.text.similarity` for every input, on every internal code path.
The kernels pick a path per slice of pairs — Myers bit-vector Levenshtein,
the bit-parallel Jaro matcher and LCS by levels when every string of the
slice fits in 63 codepoints, array-DP fallbacks beyond — so the strategies
here are width-banded, a mixed band puts both kinds of slice in one call,
and the 63/64 boundary is pinned explicitly.

The string-list wrappers below build a
:class:`~repro.text.batch_similarity.StringTable` of each call's distinct
strings, the same builder the profile store uses, and run the kernels on
its rows; the library scores rows of the store's table instead, so they
live here, next to the tests that use them.
"""

from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import batch_similarity
from repro.text.batch_similarity import (
    _BIT_WIDTH,
    StringTable,
    _bit_slice,
    _wide_slice,
    kernel_slices,
    pair_scores,
    pair_similarities,
)
from repro.text.similarity import (
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    longest_common_substring,
    longest_common_substring_similarity,
)


# -- string-list wrappers over the kernels --------------------------------


def table_rows(
    lefts: Sequence[str], rights: Sequence[str]
) -> tuple[StringTable, np.ndarray, np.ndarray]:
    """A table of the distinct strings and each side's rows in it."""
    if len(lefts) != len(rights):
        raise ValueError("lefts and rights must have the same length")
    distinct = list(dict.fromkeys([*lefts, *rights]))
    row_of = {value: row for row, value in enumerate(distinct)}
    rows = lambda strings: np.asarray([row_of[value] for value in strings], dtype=np.int64)
    return StringTable(distinct), rows(lefts), rows(rights)


def _scores(lefts, rights, edit: bool):
    table, left, right = table_rows(lefts, rights)
    return pair_scores(table, left, right, np.full(len(left), edit))


def _similarities(lefts, rights, edit: bool):
    table, left, right = table_rows(lefts, rights)
    return pair_similarities(table, left, right, np.full(len(left), edit))


def levenshtein_distance_batch(lefts: Sequence[str], rights: Sequence[str]) -> np.ndarray:
    """Edit distances for parallel string sequences (int64, exact)."""
    return _scores(lefts, rights, True)[1]


def levenshtein_similarity_batch(lefts: Sequence[str], rights: Sequence[str]) -> np.ndarray:
    """Batched :func:`~repro.text.similarity.levenshtein_similarity`."""
    return _similarities(lefts, rights, True)[1]


def longest_common_substring_batch(lefts: Sequence[str], rights: Sequence[str]) -> np.ndarray:
    """Longest common contiguous substring lengths (int64, exact)."""
    return _scores(lefts, rights, True)[2]


def longest_common_substring_similarity_batch(
    lefts: Sequence[str], rights: Sequence[str]
) -> np.ndarray:
    """Batched :func:`~repro.text.similarity.longest_common_substring_similarity`."""
    return _similarities(lefts, rights, True)[2]


def jaro_winkler_similarity_batch(lefts: Sequence[str], rights: Sequence[str]) -> np.ndarray:
    """Batched :func:`~repro.text.similarity.jaro_winkler_similarity`."""
    return _scores(lefts, rights, False)[0]


# A small alphabet maximises collisions (shared characters, equal strings,
# shared prefixes) — the interesting regime for every kernel.  The astral
# codepoint checks that characters are numbered by codepoint, not by
# UTF-16 unit.
ALPHABET = "abAB ü-\U0001d518"

# Width bands: "bit" stays under the 63-codepoint bit-kernel limit for the
# whole batch; "boundary" straddles it; "wide" forces the array fallbacks.
short_text = st.text(alphabet=ALPHABET, max_size=12)
boundary_text = st.text(alphabet=ALPHABET, min_size=_BIT_WIDTH - 2, max_size=_BIT_WIDTH + 2)
wide_text = st.text(alphabet=ALPHABET, min_size=_BIT_WIDTH + 1, max_size=_BIT_WIDTH + 30)

BANDS = [
    st.one_of(st.just(""), short_text),
    st.one_of(st.just(""), boundary_text),
    st.one_of(st.just(""), wide_text),
    st.one_of(st.just(""), short_text, wide_text),  # mixed: bit and wide slices in one call
]


def pair_batches(band):
    """Batches of string pairs from one width band, duplicates forced."""
    return st.lists(st.tuples(band, band), max_size=10).map(
        lambda pairs: pairs + pairs[:2]  # duplicated pairs share table rows
    )


def unzip(pairs):
    if not pairs:
        return [], []
    lefts, rights = zip(*pairs)
    return list(lefts), list(rights)


def _scalar_rows(lefts, rights):
    """The scalar functions' (jw, distance, lcs, lev sim, lcs sim) per pair."""
    return (
        np.asarray([jaro_winkler_similarity(a, b) for a, b in zip(lefts, rights)]),
        [levenshtein_distance(a, b) for a, b in zip(lefts, rights)],
        [longest_common_substring(a, b) for a, b in zip(lefts, rights)],
        np.asarray([levenshtein_similarity(a, b) for a, b in zip(lefts, rights)]),
        np.asarray(
            [longest_common_substring_similarity(a, b) for a, b in zip(lefts, rights)]
        ),
    )


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("band", BANDS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_levenshtein_distance(self, band, data):
        lefts, rights = unzip(data.draw(pair_batches(band)))
        batch = levenshtein_distance_batch(lefts, rights)
        assert batch.dtype == np.int64
        expected = [levenshtein_distance(a, b) for a, b in zip(lefts, rights)]
        assert batch.tolist() == expected

    @pytest.mark.parametrize("band", BANDS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_levenshtein_similarity(self, band, data):
        lefts, rights = unzip(data.draw(pair_batches(band)))
        batch = levenshtein_similarity_batch(lefts, rights)
        expected = np.asarray(
            [levenshtein_similarity(a, b) for a, b in zip(lefts, rights)],
            dtype=np.float64,
        )
        assert np.array_equal(batch, expected)

    @pytest.mark.parametrize("band", BANDS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_longest_common_substring(self, band, data):
        lefts, rights = unzip(data.draw(pair_batches(band)))
        lengths = longest_common_substring_batch(lefts, rights)
        assert lengths.tolist() == [
            longest_common_substring(a, b) for a, b in zip(lefts, rights)
        ]
        sims = longest_common_substring_similarity_batch(lefts, rights)
        expected = np.asarray(
            [longest_common_substring_similarity(a, b) for a, b in zip(lefts, rights)],
            dtype=np.float64,
        )
        assert np.array_equal(sims, expected)

    @pytest.mark.parametrize("band", BANDS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_jaro_winkler(self, band, data):
        lefts, rights = unzip(data.draw(pair_batches(band)))
        batch = jaro_winkler_similarity_batch(lefts, rights)
        expected = np.asarray(
            [jaro_winkler_similarity(a, b) for a, b in zip(lefts, rights)],
            dtype=np.float64,
        )
        assert np.array_equal(batch, expected)


class TestOneCallAcrossThePaths:
    """One call with some pairs edit-scored and widths around 63 and 64."""

    lengths = st.sampled_from(
        [0, 1, 2, _BIT_WIDTH - 1, _BIT_WIDTH, _BIT_WIDTH + 1, _BIT_WIDTH + 9]
    )

    @st.composite
    def sized_text(draw, lengths=lengths):
        size = draw(lengths)
        return draw(st.text(alphabet=ALPHABET, min_size=size, max_size=size))

    @given(
        st.lists(st.tuples(sized_text(), sized_text(), st.booleans()), max_size=14),
        st.sampled_from([64, 200, 1 << 18]),
    )
    @settings(max_examples=80, deadline=None)
    def test_mixed_widths_and_edit_pairs(self, rows, cells):
        lefts = [left for left, _, _ in rows]
        rights = [right for _, right, _ in rows]
        edit = np.asarray([flag for _, _, flag in rows], dtype=np.bool_)
        table, left, right = table_rows(lefts, rights)
        # Small slice budgets cut the call into many slices of each kind.
        saved = batch_similarity.KERNEL_SLICE_CELLS
        batch_similarity.KERNEL_SLICE_CELLS = cells
        try:
            jw, distances, substrings = pair_scores(table, left, right, edit)
            _, lev, lcs = pair_similarities(table, left, right, edit)
        finally:
            batch_similarity.KERNEL_SLICE_CELLS = saved
        jw_s, dist_s, lcs_s, lev_sim_s, lcs_sim_s = _scalar_rows(lefts, rights)
        assert jw.tobytes() == jw_s.astype(np.float64).tobytes()
        assert distances.tolist() == [d if e else -1 for d, e in zip(dist_s, edit)]
        assert substrings.tolist() == [s if e else -1 for s, e in zip(lcs_s, edit)]
        assert lev[edit].tobytes() == lev_sim_s[edit].tobytes()
        assert lcs[edit].tobytes() == lcs_sim_s[edit].tobytes()
        assert np.isnan(lev[~edit]).all() and np.isnan(lcs[~edit]).all()

    def test_slices_split_at_the_bit_width_and_fit_the_budget(self):
        widths = np.array([1, 2, 2, 3, 5, 63, 64, 64, 70])
        assert kernel_slices(widths, cells=10) == [
            (0, 3), (3, 5), (5, 6), (6, 7), (7, 8), (8, 9),
        ]
        assert kernel_slices(widths, cells=1000) == [(0, 6), (6, 9)]
        assert kernel_slices(widths[:0], cells=10) == []


class TestStringTable:
    """The shared equality table and the tables a growing list keeps."""

    @given(
        st.lists(st.text(ALPHABET + "cé", max_size=_BIT_WIDTH), min_size=1, max_size=12),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_equality_table_equals_direct_comparison(self, strings, pairs):
        table = StringTable(strings)
        left = np.asarray([a % len(strings) for a, _ in pairs], dtype=np.int64)
        right = np.asarray([b % len(strings) for _, b in pairs], dtype=np.int64)
        steps = max(len(strings[row]) for row in left.tolist())
        equality = table.equality_table(table.chars[left, :steps], right)
        assert equality.shape == (steps, len(pairs)) and equality.dtype == np.uint64
        for r, (a, b) in enumerate(zip(left.tolist(), right.tolist())):
            text, pattern = strings[a], strings[b]
            for i in range(steps):
                expected = sum(
                    1 << j
                    for j, char in enumerate(pattern)
                    if i < len(text) and char == text[i]
                )
                assert int(equality[i, r]) == expected

    @given(
        st.lists(st.text(ALPHABET + "cé", max_size=_BIT_WIDTH + 5), max_size=16),
        st.lists(st.integers(0, 16), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_growing_equals_building_at_once(self, strings, cuts):
        grown = StringTable()
        start = 0
        for cut in sorted(cuts) + [len(strings)]:
            grown.extend(strings[start:max(start, cut)])
            start = max(start, cut)
        fresh = StringTable(strings)
        assert len(grown) == len(fresh) == len(strings)
        assert grown.lengths.tolist() == [len(value) for value in strings]
        for name in ("lengths", "chars", "masks"):
            got, want = getattr(grown, name), getattr(fresh, name)
            width = want.shape[1] if want.ndim == 2 else None
            assert got[..., :width].tobytes() == want.tobytes()

    def test_masks_and_characters(self):
        table = StringTable(["abca", "", "\U0001d518b"])
        assert table.lengths.tolist() == [4, 0, 2]
        # Characters are numbered from 1 in order of first appearance.
        assert table.chars.tolist() == [[1, 2, 3, 1], [0, 0, 0, 0], [4, 2, 0, 0]]
        assert table.masks.tolist() == [
            [0, 0b1001, 0b0010, 0b0100, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0b10, 0, 0b01],
        ]

    def test_masks_cover_the_first_63_positions(self):
        table = StringTable(["a" * (_BIT_WIDTH + 5)])
        assert int(table.masks[0, 1]) == (1 << _BIT_WIDTH) - 1
        assert table.chars.shape == (1, _BIT_WIDTH + 5)


class TestPathBoundary:
    def test_63_64_boundary_is_exact(self):
        # Lengths straddling the bit-kernel width limit, one batch per pair
        # so each side of the boundary actually runs its own path.
        for la in (_BIT_WIDTH - 1, _BIT_WIDTH, _BIT_WIDTH + 1):
            for lb in (_BIT_WIDTH - 1, _BIT_WIDTH, _BIT_WIDTH + 1):
                a, b = "ab" * 40, "ba" * 40
                left, right = a[:la], b[:lb]
                assert levenshtein_distance_batch([left], [right])[0] == (
                    levenshtein_distance(left, right)
                )
                assert longest_common_substring_batch([left], [right])[0] == (
                    longest_common_substring(left, right)
                )
                assert jaro_winkler_similarity_batch([left], [right])[0] == (
                    jaro_winkler_similarity(left, right)
                )

    def test_bit_and_wide_paths_agree(self):
        # The same non-equal, non-empty narrow pairs scored by both slice
        # kernels must produce bitwise-identical rows.
        pairs = [
            ("acme holdings", "acme hldgs"),
            ("a" * 60, "a" * 59 + "b"),
            ("üü-ab", "ab-üü"),
            ("\U0001d518x", "x\U0001d518"),
            ("ab", "ba" * 20),
        ]
        lefts, rights = unzip(pairs)
        table, left, right = table_rows(lefts, rights)
        edit = np.array([True, False, True, True, True])
        bit = _bit_slice(table, left, right, edit)
        wide = _wide_slice(table, left, right, edit)
        for got, want in zip(bit, wide):
            assert got.tobytes() == want.tobytes()


class TestEdges:
    def test_empty_batches(self):
        assert levenshtein_distance_batch([], []).shape == (0,)
        assert levenshtein_similarity_batch([], []).shape == (0,)
        assert longest_common_substring_batch([], []).shape == (0,)
        assert longest_common_substring_similarity_batch([], []).shape == (0,)
        assert jaro_winkler_similarity_batch([], []).shape == (0,)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            levenshtein_distance_batch(["a"], [])
        with pytest.raises(ValueError):
            longest_common_substring_batch(["a"], [])
