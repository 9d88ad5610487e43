"""String similarity measures.

These are the classic record-linkage similarity functions.  They feed the
feature-based logistic matcher and several data-artifact sanity checks, and
give the tests an interpretable reference point: all functions return values
in ``[0, 1]`` where 1 means identical (except ``levenshtein_distance`` which
is a raw edit count).
"""

from __future__ import annotations

from collections.abc import Sequence


def levenshtein_distance(a: str, b: str) -> int:
    """Edit distance between ``a`` and ``b`` (insert / delete / substitute)."""
    if a == b:
        return 0
    # Trim the common prefix and suffix: optimal edits never touch them, so
    # the quadratic DP below only runs on the differing core — which for the
    # near-identical names blocking produces is usually a handful of
    # characters ("microsoft corp" vs "microsoft corporation" leaves "" vs
    # "oration" and skips the DP entirely).
    limit = min(len(a), len(b))
    prefix = 0
    while prefix < limit and a[prefix] == b[prefix]:
        prefix += 1
    suffix = 0
    while suffix < limit - prefix and a[len(a) - 1 - suffix] == b[len(b) - 1 - suffix]:
        suffix += 1
    a = a[prefix:len(a) - suffix]
    b = b[prefix:len(b) - suffix]
    if not a:
        return len(b)
    if not b:
        return len(a)
    # Keep the shorter string in the inner dimension to minimise memory.
    if len(b) > len(a):
        a, b = b, a
    # Rolling-row DP.  The inner loop carries the diagonal (previous[j-1])
    # and the last written cell in locals and branches instead of calling
    # min() on a fresh tuple — same recurrence, same results, roughly half
    # the interpreter work per cell on this hot path.
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        append = current.append
        diagonal = previous[0]  # previous[j - 1]
        last = i                # current[j - 1]
        for j, char_b in enumerate(b, start=1):
            above = previous[j]
            value = diagonal if char_a == char_b else diagonal + 1  # substitution
            deletion = above + 1
            if deletion < value:
                value = deletion
            insertion = last + 1
            if insertion < value:
                value = insertion
            append(value)
            last = value
            diagonal = above
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """Normalised edit similarity: ``1 - distance / max_length``."""
    if a == b:
        # Covers the both-empty case (1.0 by definition) and skips the
        # distance call for identical strings: 1 - 0 / max_length == 1.0.
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein_distance(a, b) / longest


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity, the base of the Jaro–Winkler measure."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0

    match_window = max(len(a), len(b)) // 2 - 1
    match_window = max(match_window, 0)

    a_matched = [False] * len(a)
    b_matched = [False] * len(b)
    matches = 0
    for i, char_a in enumerate(a):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len(b))
        for j in range(start, end):
            if b_matched[j] or b[j] != char_a:
                continue
            a_matched[i] = True
            b_matched[j] = True
            matches += 1
            break

    if matches == 0:
        return 0.0

    # Count transpositions among matched characters.
    transpositions = 0
    j = 0
    for i, matched in enumerate(a_matched):
        if not matched:
            continue
        while not b_matched[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2

    return (
        matches / len(a)
        + matches / len(b)
        + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro–Winkler similarity (common-prefix boost, capped at 4 characters)."""
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError("prefix_weight must be in [0, 0.25]")
    jaro = jaro_similarity(a, b)
    prefix_length = 0
    for char_a, char_b in zip(a[:4], b[:4]):
        if char_a != char_b:
            break
        prefix_length += 1
    return jaro + prefix_length * prefix_weight * (1.0 - jaro)


TokenSet = Sequence[str] | set[str] | frozenset[str]


def _as_set(tokens: TokenSet) -> set[str] | frozenset[str]:
    """Tokens as a set, without copying when they already are one.

    The per-record feature profiles hand the set-based measures precomputed
    frozensets, so the per-comparison ``set()`` construction disappears from
    the matching hot path.
    """
    if isinstance(tokens, (set, frozenset)):
        return tokens
    return set(tokens)


def jaccard_similarity(a: TokenSet, b: TokenSet) -> float:
    """Jaccard index of two token collections."""
    set_a, set_b = _as_set(a), _as_set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)


def overlap_coefficient(a: TokenSet, b: TokenSet) -> float:
    """Overlap (Szymkiewicz–Simpson) coefficient of two token collections."""
    set_a, set_b = _as_set(a), _as_set(b)
    if not set_a or not set_b:
        return 1.0 if not set_a and not set_b else 0.0
    return len(set_a & set_b) / min(len(set_a), len(set_b))


def longest_common_substring(a: str, b: str) -> int:
    """Length of the longest common contiguous substring.

    The paper's Figure 2 motivates false positives through "long shared
    character sequences" (Crowdstrike vs Crowdstreet); this is the feature
    that captures that.
    """
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    best = 0
    for char_a in a:
        current = [0] * (len(b) + 1)
        for j, char_b in enumerate(b, start=1):
            if char_a == char_b:
                current[j] = previous[j - 1] + 1
                best = max(best, current[j])
        previous = current
    return best


def longest_common_substring_similarity(a: str, b: str) -> float:
    """Longest common substring normalised by the shorter string length."""
    if a == b:
        # Covers both-empty (1.0 by definition) and skips the quadratic DP
        # for identical strings: LCS(a, a) == len(a), so len(a) / len(a) == 1.0.
        return 1.0
    if not a or not b:
        return 0.0
    return longest_common_substring(a, b) / min(len(a), len(b))
