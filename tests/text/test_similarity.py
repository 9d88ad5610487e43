"""Tests for string similarity measures, including hypothesis invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    longest_common_substring,
    overlap_coefficient,
)
from repro.text.similarity import longest_common_substring_similarity

short_text = st.text(alphabet="abcdefgh ", max_size=20)


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein_distance("abc", "abc") == 0

    def test_empty(self):
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "") == 3

    def test_known_value(self):
        assert levenshtein_distance("kitten", "sitting") == 3

    def test_similarity_range(self):
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert levenshtein_similarity("", "") == 1.0
        assert 0.0 <= levenshtein_similarity("abc", "xyz") <= 1.0

    @given(short_text, short_text)
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(short_text, short_text, short_text)
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )


class TestJaro:
    def test_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_known_value(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_disjoint(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro_similarity("", "abc") == 0.0
        assert jaro_similarity("", "") == 1.0

    def test_winkler_boosts_common_prefix(self):
        base = jaro_similarity("crowdstrike", "crowdstreet")
        boosted = jaro_winkler_similarity("crowdstrike", "crowdstreet")
        assert boosted >= base

    def test_winkler_invalid_weight(self):
        with pytest.raises(ValueError):
            jaro_winkler_similarity("a", "b", prefix_weight=0.5)

    @given(short_text, short_text)
    @settings(max_examples=80, deadline=None)
    def test_jaro_winkler_in_unit_interval(self, a, b):
        score = jaro_winkler_similarity(a, b)
        assert 0.0 <= score <= 1.0

    @given(short_text, short_text)
    @settings(max_examples=80, deadline=None)
    def test_jaro_symmetry(self, a, b):
        assert jaro_similarity(a, b) == pytest.approx(jaro_similarity(b, a))


class TestSetSimilarities:
    def test_jaccard_identical(self):
        assert jaccard_similarity(["a", "b"], ["b", "a"]) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard_similarity(["a"], ["b"]) == 0.0

    def test_jaccard_both_empty(self):
        assert jaccard_similarity([], []) == 1.0

    def test_overlap_subset(self):
        assert overlap_coefficient(["a", "b"], ["a", "b", "c", "d"]) == 1.0

    def test_overlap_one_empty(self):
        assert overlap_coefficient([], ["a"]) == 0.0

    def test_overlap_both_empty(self):
        assert overlap_coefficient([], []) == 1.0

    def test_jaccard_known_value(self):
        assert jaccard_similarity(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)

    def test_repeated_tokens_count_once(self):
        assert jaccard_similarity(["a", "a", "b"], ["a", "b"]) == 1.0
        assert overlap_coefficient(["a", "a", "a"], ["a", "b"]) == 1.0

    token_lists = st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), max_size=6)

    @given(token_lists, token_lists)
    @settings(max_examples=60, deadline=None)
    def test_jaccard_leq_overlap(self, a, b):
        if not a or not b:
            return
        assert jaccard_similarity(a, b) <= overlap_coefficient(a, b) + 1e-12

    @given(token_lists, token_lists)
    @settings(max_examples=60, deadline=None)
    def test_set_measures_are_symmetric_and_bounded(self, a, b):
        for measure in (jaccard_similarity, overlap_coefficient):
            assert measure(a, b) == measure(b, a)
            assert 0.0 <= measure(a, b) <= 1.0


class TestLongestCommonSubstring:
    def test_crowdstrike_crowdstreet(self):
        # The false-positive motivation from Figure 2: a long shared prefix.
        assert longest_common_substring("crowdstrike", "crowdstreet") >= 7

    def test_disjoint(self):
        assert longest_common_substring("abc", "xyz") == 0

    def test_empty(self):
        assert longest_common_substring("", "abc") == 0

    def test_similarity_normalised(self):
        assert longest_common_substring_similarity("abc", "abc") == 1.0
        assert longest_common_substring_similarity("", "") == 1.0
        assert longest_common_substring_similarity("", "a") == 0.0

    @given(short_text, short_text)
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_shorter_string(self, a, b):
        assert longest_common_substring(a, b) <= min(len(a), len(b))


def _reference_levenshtein(a: str, b: str) -> int:
    """The plain full-matrix DP, kept as the equivalence oracle for the
    prefix/suffix-trimmed production implementation."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


class TestLevenshteinTrimEquivalence:
    """The trimmed implementation must equal the unoptimised reference."""

    @given(short_text, short_text)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, a, b):
        assert levenshtein_distance(a, b) == _reference_levenshtein(a, b)

    @given(short_text, short_text, short_text)
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_with_shared_affixes(self, prefix, core, suffix):
        # Stress the trimming paths: identical prefix and suffix, differing core.
        a = prefix + core + suffix
        b = prefix + core[::-1] + suffix
        assert levenshtein_distance(a, b) == _reference_levenshtein(a, b)

    @pytest.mark.parametrize("a,b", [
        ("microsoft corp", "microsoft corporation"),
        ("acme", "acme"),
        ("", ""),
        ("", "abc"),
        ("abc", ""),
        ("aaa", "aa"),
        ("abcdef", "abXdef"),
        ("xabc", "abc"),
        ("abcx", "abc"),
        ("ab", "ba"),
    ])
    def test_known_cases_match_reference(self, a, b):
        assert levenshtein_distance(a, b) == _reference_levenshtein(a, b)

    @given(short_text, short_text)
    @settings(max_examples=100, deadline=None)
    def test_similarity_shortcut_matches_formula(self, a, b):
        expected = (
            1.0
            if not a and not b
            else 1.0 - _reference_levenshtein(a, b) / max(len(a), len(b))
        )
        assert levenshtein_similarity(a, b) == expected


class TestSimilarityFastPaths:
    """The a == b / set-input fast paths must not change any value."""

    @given(short_text)
    @settings(max_examples=60, deadline=None)
    def test_lcs_similarity_identical_strings(self, a):
        expected = 1.0 if not a else longest_common_substring(a, a) / len(a)
        assert longest_common_substring_similarity(a, a) == expected == 1.0

    @given(st.lists(st.text(alphabet="abc", max_size=3), max_size=6),
           st.lists(st.text(alphabet="abc", max_size=3), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_set_inputs_equal_list_inputs(self, a, b):
        for measure in (jaccard_similarity, overlap_coefficient):
            assert measure(frozenset(a), frozenset(b)) == measure(a, b)
            assert measure(set(a), set(b)) == measure(a, b)
