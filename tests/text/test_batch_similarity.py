"""Bitwise equivalence of the batched similarity kernels with the scalars.

The batch kernels are the matching hot path's arithmetic core; their
contract is *bitwise* agreement with the scalar functions in
:mod:`repro.text.similarity` for every input, on every internal code path.
The kernels pick a path by batch width — Myers bit-vector Levenshtein and
the bit-parallel Jaro matcher when every string fits in 63 bits, array-DP
fallbacks beyond — so the strategies here are width-banded: a batch drawn
from one band stays on one path, and the 63/64 boundary is pinned
explicitly.  The interned-id fast path (deduplicating kernel tables by
string identity) is exercised against the id-less path on batches with
forced duplicates.

The string-list wrappers below pack each call's strings and run the
packed kernels; the library packs through ``ProfileStore.codepoints``
instead, so they live here, next to the tests that use them.
"""

from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.batch_similarity import (
    _BIT_WIDTH,
    _equality_bitmasks,
    PAD_LEFT,
    PAD_RIGHT,
    jaro_winkler_similarity_packed,
    levenshtein_distance_packed,
    levenshtein_similarity_packed,
    longest_common_substring_packed,
    longest_common_substring_similarity_packed,
)
from repro.text.similarity import (
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    longest_common_substring,
    longest_common_substring_similarity,
)


# -- string-list wrappers over the packed kernels -------------------------


def pack_codepoints(
    strings: Sequence[str], width: int | None = None, fill: int = PAD_LEFT
) -> tuple[np.ndarray, np.ndarray]:
    """Pack strings into an ``(n, width)`` int32 codepoint matrix + lengths.

    Padding uses ``fill`` (negative, so it never equals a real codepoint).
    ``width`` defaults to the longest string; ``width=0`` still yields a
    well-formed ``(n, 1)`` matrix so downstream reductions stay simple.
    """
    lengths = np.fromiter(
        (len(s) for s in strings), dtype=np.int64, count=len(strings)
    )
    if width is None:
        width = int(lengths.max()) if len(strings) else 0
    width = max(width, 1)
    codes = np.full((len(strings), width), fill, dtype=np.int32)
    for i, s in enumerate(strings):
        if s:
            codes[i, : len(s)] = np.frombuffer(
                s.encode("utf-32-le"), dtype=np.uint32
            ).astype(np.int32)
    return codes, lengths


def _pack_pairs(
    lefts: Sequence[str], rights: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    if len(lefts) != len(rights):
        raise ValueError("lefts and rights must have the same length")
    a_codes, a_lengths = pack_codepoints(lefts, fill=PAD_LEFT)
    b_codes, b_lengths = pack_codepoints(rights, fill=PAD_RIGHT)
    return a_codes, a_lengths, b_codes, b_lengths


def _equal_and_empty(
    lefts: Sequence[str], rights: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    n = len(lefts)
    equal = np.fromiter(
        (a == b for a, b in zip(lefts, rights)), dtype=np.bool_, count=n
    )
    either_empty = np.fromiter(
        (not a or not b for a, b in zip(lefts, rights)), dtype=np.bool_, count=n
    )
    return equal, either_empty




def levenshtein_distance_batch(
    lefts: Sequence[str], rights: Sequence[str]
) -> np.ndarray:
    """Edit distances for parallel string sequences (int64, exact)."""
    if len(lefts) != len(rights):
        raise ValueError("lefts and rights must have the same length")
    if not len(lefts):
        return np.zeros(0, dtype=np.int64)
    return levenshtein_distance_packed(*_pack_pairs(lefts, rights))




def levenshtein_similarity_batch(
    lefts: Sequence[str], rights: Sequence[str]
) -> np.ndarray:
    """Batched :func:`~repro.text.similarity.levenshtein_similarity`."""
    if not len(lefts):
        return np.empty(0, dtype=np.float64)
    equal, _ = _equal_and_empty(lefts, rights)
    return levenshtein_similarity_packed(*_pack_pairs(lefts, rights), equal)




def longest_common_substring_batch(
    lefts: Sequence[str], rights: Sequence[str]
) -> np.ndarray:
    """Longest common contiguous substring lengths (int64, exact)."""
    if len(lefts) != len(rights):
        raise ValueError("lefts and rights must have the same length")
    if not len(lefts):
        return np.zeros(0, dtype=np.int64)
    return longest_common_substring_packed(*_pack_pairs(lefts, rights))




def longest_common_substring_similarity_batch(
    lefts: Sequence[str], rights: Sequence[str]
) -> np.ndarray:
    """Batched :func:`~repro.text.similarity.longest_common_substring_similarity`."""
    if not len(lefts):
        return np.empty(0, dtype=np.float64)
    equal, _ = _equal_and_empty(lefts, rights)
    return longest_common_substring_similarity_packed(
        *_pack_pairs(lefts, rights), equal
    )




def jaro_winkler_similarity_batch(
    lefts: Sequence[str], rights: Sequence[str], prefix_weight: float = 0.1
) -> np.ndarray:
    """Batched :func:`~repro.text.similarity.jaro_winkler_similarity`."""
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError("prefix_weight must be in [0, 0.25]")
    if not len(lefts):
        return np.empty(0, dtype=np.float64)
    equal, _ = _equal_and_empty(lefts, rights)
    return jaro_winkler_similarity_packed(
        *_pack_pairs(lefts, rights), equal, prefix_weight=prefix_weight
    )


# A small alphabet maximises collisions (shared characters, equal strings,
# shared prefixes) — the interesting regime for every kernel.
ALPHABET = "abAB ü-"

# Width bands: "bit" stays under the 63-codepoint bit-kernel limit for the
# whole batch; "boundary" straddles it; "wide" forces the array fallbacks.
short_text = st.text(alphabet=ALPHABET, max_size=12)
boundary_text = st.text(alphabet=ALPHABET, min_size=_BIT_WIDTH - 2, max_size=_BIT_WIDTH + 2)
wide_text = st.text(alphabet=ALPHABET, min_size=_BIT_WIDTH + 1, max_size=_BIT_WIDTH + 30)

BANDS = [
    st.one_of(st.just(""), short_text),
    st.one_of(st.just(""), boundary_text),
    st.one_of(st.just(""), wide_text),
    st.one_of(st.just(""), short_text, wide_text),  # mixed: wide rows force the fallback for all
]


def pair_batches(band):
    """Batches of string pairs from one width band, duplicates forced."""
    return st.lists(st.tuples(band, band), max_size=10).map(
        lambda pairs: pairs + pairs[:2]  # duplicated pairs hit the memo/dedup paths
    )


def unzip(pairs):
    if not pairs:
        return [], []
    lefts, rights = zip(*pairs)
    return list(lefts), list(rights)


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


class TestInternedIdPath:
    """The id-deduplicated kernel tables must change nothing but speed."""

    @pytest.mark.parametrize("band", BANDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ids_do_not_change_results(self, band, data):
        lefts, rights = unzip(data.draw(pair_batches(band)))
        if not lefts:
            return
        # Intern: equal strings <-> equal ids, the ProfileStore invariant.
        table: dict[str, int] = {}
        ids = lambda strings: np.asarray(
            [table.setdefault(s, len(table)) for s in strings], dtype=np.int64
        )
        a_codes, a_lengths, b_codes, b_lengths = _pack_pairs(lefts, rights)
        a_ids, b_ids = ids(lefts), ids(rights)
        equal = np.asarray([a == b for a, b in zip(lefts, rights)])

        plain = levenshtein_similarity_packed(a_codes, a_lengths, b_codes, b_lengths, equal)
        with_ids = levenshtein_similarity_packed(
            a_codes, a_lengths, b_codes, b_lengths, equal, a_ids=a_ids, b_ids=b_ids
        )
        assert np.array_equal(plain, with_ids)

        plain = jaro_winkler_similarity_packed(a_codes, a_lengths, b_codes, b_lengths, equal)
        with_ids = jaro_winkler_similarity_packed(
            a_codes, a_lengths, b_codes, b_lengths, equal, a_ids=a_ids, b_ids=b_ids
        )
        assert np.array_equal(plain, with_ids)


    @given(
        st.lists(st.text("abcéz\U0001d518", max_size=_BIT_WIDTH), min_size=1, max_size=12),
        st.lists(st.integers(0, 11), min_size=1, max_size=30),
        st.lists(st.integers(0, 11), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_deduplicated_table_equals_the_direct_table(self, strings, patterns, texts):
        # The id path scatters each distinct pattern's bits once; the direct
        # path compares every row's pattern with every row's text.
        rows = min(len(patterns), len(texts))
        pattern_strings = [strings[index % len(strings)] for index in patterns[:rows]]
        text_strings = [strings[index % len(strings)] for index in texts[:rows]]
        pattern_codes, _ = pack_codepoints(pattern_strings, fill=PAD_RIGHT)
        text_codes, _ = pack_codepoints(text_strings, fill=PAD_LEFT)
        ids = {value: index for index, value in enumerate(dict.fromkeys(strings))}
        direct = _equality_bitmasks(pattern_codes, text_codes)
        deduplicated = _equality_bitmasks(
            pattern_codes,
            text_codes,
            np.asarray([ids[value] for value in pattern_strings]),
            np.asarray([ids[value] for value in text_strings]),
        )
        assert deduplicated.tobytes() == direct.tobytes()


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
                assert jaro_winkler_similarity_batch([left], [right])[0] == (
                    jaro_winkler_similarity(left, right)
                )

    def test_bit_and_wide_paths_agree(self):
        # The same pairs scored once on the bit path (batch width <= 63)
        # and once on the fallback path (a wide row widens the batch) must
        # produce bitwise-identical rows.
        pairs = [
            ("acme holdings", "acme hldgs"),
            ("", "nonempty"),
            ("same", "same"),
            ("a" * 60, "a" * 59 + "b"),
            ("üü-ab", "ab-üü"),
        ]
        lefts, rights = unzip(pairs)
        narrow_lev = levenshtein_distance_batch(lefts, rights)
        narrow_jw = jaro_winkler_similarity_batch(lefts, rights)
        wide_row = ("x" * (_BIT_WIDTH + 5), "y" * (_BIT_WIDTH + 5))
        wide_lev = levenshtein_distance_batch(
            lefts + [wide_row[0]], rights + [wide_row[1]]
        )
        wide_jw = jaro_winkler_similarity_batch(
            lefts + [wide_row[0]], rights + [wide_row[1]]
        )
        assert np.array_equal(narrow_lev, wide_lev[:-1])
        assert np.array_equal(narrow_jw, wide_jw[:-1])


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

    def test_prefix_weight_validation(self):
        with pytest.raises(ValueError):
            jaro_winkler_similarity_batch(["a"], ["b"], prefix_weight=0.3)
