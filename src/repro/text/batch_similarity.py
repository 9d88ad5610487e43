"""Batched string-similarity kernels over deduplicated pair lists.

The columnar matching hot path (:mod:`repro.matching.features`) reduces a
candidate batch to its *distinct* string pairs and scores them all at once.
These kernels are the array counterparts of the scalar functions in
:mod:`repro.text.similarity`: each takes a batch of packed left/right
strings and returns one value per pair.

The contract — pinned by a hypothesis suite
(``tests/text/test_batch_similarity.py``) — is **bitwise equality** with
the scalar functions.  That holds by construction:

* Levenshtein, LCS and the Jaro match/transposition counts are integer
  dynamic programs; any correct evaluation order produces the same exact
  integers, and every path below computes those integers exactly.
* The final float64 arithmetic replays the scalar expressions operation for
  operation (same divisions, same left-associated additions), and IEEE-754
  ops on equal inputs are deterministic.

Each kernel has two paths selected by batch width.  When every string fits
``_BIT_WIDTH`` (63) codepoints, one uint64 per row carries a whole DP
column: Levenshtein runs Myers' bit-vector algorithm (vertical delta
vectors, the diagonal via a hardware carry chain, the distance read off
the pattern's top bit) and Jaro's greedy matching runs bit-parallel (the
match window is a contiguous bit span, "first unmatched window position
with this character" is the lowest set candidate bit).  Both consume a
precomputed equality-bitmask table; when callers pass interned string ids
(equal ids ⇔ identical strings — the
:class:`~repro.matching.profiles.ProfileStore` invariant), the table is
built once per *distinct* pattern × alphabet character instead of per row.
Wider batches fall back to exact array DPs: Levenshtein trims the common
prefix/suffix, puts the shorter core on the sequential axis and runs a
tilted int32 DP; Jaro replays the greedy matching on boolean matrices in
scalar orientation.  LCS puts the shorter string on the sequential axis
(symmetric by definition).  All sequential loops sort pairs by
sequential-axis length so each step runs on a dense prefix of still-active
rows instead of masking the full batch.

Each ``*_packed`` kernel consumes pre-packed codepoint matrices: one
int32 row per string, padded past its length with :data:`PAD_LEFT` on the
left side and :data:`PAD_RIGHT` on the right, plus the lengths.  The
library gathers those rows from the
:class:`~repro.matching.profiles.ProfileStore` ``codepoints`` column,
which packs each interned string once; the tests' string-list wrappers
pack per call.
"""

from __future__ import annotations

import numpy as np

#: Distinct out-of-range fill codes for left/right padding: real codepoints
#: are non-negative, and the two sides must never compare equal on padding.
PAD_LEFT = -1
PAD_RIGHT = -2


def _common_prefix_lengths(a_codes: np.ndarray, b_codes: np.ndarray) -> np.ndarray:
    """Per-row count of leading equal codepoints.

    The distinct pad codes guarantee padding never compares equal, so the
    cumulative product stops at ``min(len(a), len(b))`` automatically.
    """
    m = min(a_codes.shape[1], b_codes.shape[1])
    equal = a_codes[:, :m] == b_codes[:, :m]
    return np.cumprod(equal, axis=1).sum(axis=1).astype(np.int64)


def _reverse_codes(codes: np.ndarray, lengths: np.ndarray, fill: int) -> np.ndarray:
    """Each row's codepoints reversed in place of its own length."""
    width = codes.shape[1]
    positions = np.arange(width, dtype=np.int64)
    columns = lengths[:, None] - 1 - positions[None, :]
    valid = columns >= 0
    taken = np.take_along_axis(codes, np.maximum(columns, 0), axis=1)
    return np.where(valid, taken, fill).astype(np.int32)


def _gather_cores(
    codes: np.ndarray,
    starts: np.ndarray,
    core_lengths: np.ndarray,
    width: int,
    fill: int,
) -> np.ndarray:
    """Packed matrix of per-row substrings ``codes[r, starts[r]:starts[r]+len]``."""
    positions = np.arange(width, dtype=np.int64)
    columns = starts[:, None] + positions[None, :]
    valid = positions[None, :] < core_lengths[:, None]
    taken = np.take_along_axis(
        codes, np.minimum(columns, codes.shape[1] - 1), axis=1
    )
    return np.where(valid, taken, fill).astype(np.int32)


def _by_descending(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(permutation sorting rows by length descending, the sorted negation).

    Sorting lets every DP iteration ``i`` run on the dense row prefix still
    active (``searchsorted`` on the negated lengths) instead of boolean
    masking the whole batch.
    """
    order = np.argsort(-lengths, kind="stable")
    return order, -lengths[order]


#: Widest string a 64-bit position mask can cover.  Wider inputs take the
#: array-DP fallbacks; both paths compute the same exact integers.
_BIT_WIDTH = 63


def _pack_bit_rows(equal: np.ndarray) -> np.ndarray:
    """Collapse the trailing bool axis of ``equal`` into uint64 bitmasks."""
    packed = np.packbits(equal, axis=-1, bitorder="little")
    byte_width = packed.shape[-1]
    padded = np.zeros(packed.shape[:-1] + (8,), dtype=np.uint8)
    padded[..., :byte_width] = packed
    return padded.view("<u8").reshape(packed.shape[:-1])


def _equality_bitmasks(
    pattern_codes: np.ndarray,
    text_codes: np.ndarray,
    pattern_ids: np.ndarray | None = None,
    text_ids: np.ndarray | None = None,
) -> np.ndarray:
    """``table[r, i]`` = uint64 mask of pattern positions matching text char i.

    One batched comparison + bit-pack up front replaces a per-iteration
    ``(rows, width)`` comparison in the bit-parallel kernels — the DP loops
    then run entirely on thin per-row uint64 vectors.

    The mask depends only on (pattern string, text character).  When the
    caller can identify each row's string by an id (the columnar store's
    interned ids), the table is built on distinct patterns × the distinct
    text alphabet and gathered back per pair — deduplicated batches repeat
    both heavily.
    """
    rows, text_width = text_codes.shape
    if pattern_ids is None or text_ids is None:
        equal = pattern_codes[:, None, :] == text_codes[:, :, None]
        return _pack_bit_rows(equal)
    _, pattern_first, pattern_index = np.unique(
        pattern_ids, return_index=True, return_inverse=True
    )
    _, text_first, text_index = np.unique(
        text_ids, return_index=True, return_inverse=True
    )
    distinct_patterns = pattern_codes[pattern_first]
    distinct_text = text_codes[text_first]
    alphabet, char_index = np.unique(distinct_text, return_inverse=True)
    char_index = char_index.reshape(distinct_text.shape)
    # Scatter each pattern position's bit into the mask of its character.
    # A pattern character outside the text alphabet sets nothing; padding
    # is one of them, since the two sides pad with distinct codes.
    size = len(alphabet)
    columns = np.minimum(np.searchsorted(alphabet, distinct_patterns), size - 1)
    rows, positions = np.nonzero(alphabet[columns] == distinct_patterns)
    masks = np.zeros(len(pattern_first) * size, dtype=np.uint64)
    np.bitwise_or.at(
        masks,
        rows * size + columns[rows, positions],
        np.uint64(1) << positions.astype(np.uint64),
    )
    return masks[pattern_index.reshape(-1)[:, None] * size + char_index[text_index]]


# -- Levenshtein -------------------------------------------------------------


def levenshtein_distance_packed(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
    *,
    a_ids: np.ndarray | None = None,
    b_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Edit distances of packed string pairs (int64, exact).

    Strings that fit a 64-bit position mask take Myers' bit-vector DP
    (:func:`_levenshtein_bits`); wider ones take the array DP
    (:func:`_levenshtein_wide`) with the scalar function's work reductions
    (common affixes trimmed, shorter core on the sequential axis — licensed
    because the distance is the same exact integer either way).  Optional
    ``a_ids``/``b_ids`` identify each row's string for exact dedup of the
    bit path's equality table.
    """
    n = len(a_lengths)
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out

    if a_codes.shape[1] <= _BIT_WIDTH:
        one_empty = (a_lengths == 0) | (b_lengths == 0)
        out[one_empty] = np.maximum(a_lengths, b_lengths)[one_empty]
        todo = np.nonzero(~one_empty)[0]
        if not todo.size:
            return out
        order, sort_keys = _by_descending(b_lengths[todo])
        rows = todo[order]
        distances = _levenshtein_bits(
            a_codes[rows],
            a_lengths[rows],
            b_codes[rows],
            b_lengths[rows],
            sort_keys,
            pattern_ids=None if a_ids is None else a_ids[rows],
            text_ids=None if b_ids is None else b_ids[rows],
        )
        unsorted = np.empty(todo.size, dtype=np.int64)
        unsorted[order] = distances
        out[todo] = unsorted
        return out

    prefix = _common_prefix_lengths(a_codes, b_codes)
    limit = np.minimum(a_lengths, b_lengths)
    suffix = _common_prefix_lengths(
        _reverse_codes(a_codes, a_lengths, PAD_LEFT),
        _reverse_codes(b_codes, b_lengths, PAD_RIGHT),
    )
    suffix = np.minimum(suffix, limit - prefix)
    core_a = a_lengths - prefix - suffix
    core_b = b_lengths - prefix - suffix

    one_empty = (core_a == 0) | (core_b == 0)
    # When either core is empty the distance is the other core's length
    # (for two empty cores: 0).
    out[one_empty] = np.maximum(core_a, core_b)[one_empty]
    todo = np.nonzero(~one_empty)[0]
    if not todo.size:
        return out

    core_a = core_a[todo]
    core_b = core_b[todo]
    starts = prefix[todo]
    # Distance is symmetric: keep the shorter core on the sequential axis.
    swap = core_a > core_b
    outer_lengths = np.where(swap, core_b, core_a)
    inner_lengths = np.where(swap, core_a, core_b)
    width = int(inner_lengths.max())
    a_core = _gather_cores(a_codes[todo], starts, core_a, width, PAD_LEFT)
    b_core = _gather_cores(b_codes[todo], starts, core_b, width, PAD_RIGHT)
    outer_codes = np.where(swap[:, None], b_core, a_core)
    inner_codes = np.where(swap[:, None], a_core, b_core)

    order, sort_keys = _by_descending(outer_lengths)
    distances = _levenshtein_wide(
        inner_codes[order], inner_lengths[order], outer_codes[order],
        outer_lengths, sort_keys, width,
    )
    unsorted = np.empty(len(todo), dtype=np.int64)
    unsorted[order] = distances
    out[todo] = unsorted
    return out


def _levenshtein_bits(
    pattern_codes: np.ndarray,
    pattern_lengths: np.ndarray,
    text_codes: np.ndarray,
    text_lengths: np.ndarray,
    sort_keys: np.ndarray,
    pattern_ids: np.ndarray | None = None,
    text_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Myers' bit-vector edit distance, batched (rows sorted by text length).

    The classic bit-parallel formulation: the DP column is held as two
    uint64 delta vectors (``vertical_pos``/``vertical_neg``) per pair, the
    in-column carry chain is performed by hardware addition, and the
    distance is the running score at the pattern's top bit.  Exact integer
    edit distance — identical to the array DP — with each step costing a
    handful of thin per-row uint64 ops instead of ``(rows, width)`` array
    passes.  Bits at and above each pattern's length are garbage but
    harmless: carries only propagate upward and nothing shifts down past
    the scored top bit.
    """
    n = len(pattern_lengths)
    table = _equality_bitmasks(pattern_codes, text_codes, pattern_ids, text_ids)
    one = np.uint64(1)
    lengths64 = pattern_lengths.astype(np.uint64)
    top_bit = one << (lengths64 - one)
    vertical_pos = (one << lengths64) - one
    vertical_neg = np.zeros(n, dtype=np.uint64)
    score = pattern_lengths.astype(np.int64).copy()
    for i in range(int(text_lengths[0]) if n else 0):
        active = np.searchsorted(sort_keys, -(i + 1), side="right")
        vp = vertical_pos[:active]
        vn = vertical_neg[:active]
        matches = table[:active, i] | vn
        diagonal = (((matches & vp) + vp) ^ vp) | matches
        horizontal_pos = vn | ~(diagonal | vp)
        horizontal_neg = diagonal & vp
        score[:active] += (horizontal_pos & top_bit[:active]) != 0
        score[:active] -= (horizontal_neg & top_bit[:active]) != 0
        shifted = (horizontal_pos << one) | one
        vertical_pos[:active] = (horizontal_neg << one) | ~(diagonal | shifted)
        vertical_neg[:active] = shifted & diagonal
    return score


def _levenshtein_wide(
    inner_codes: np.ndarray,
    pattern_lengths: np.ndarray,
    outer_codes: np.ndarray,
    outer_lengths: np.ndarray,
    sort_keys: np.ndarray,
    width: int,
) -> np.ndarray:
    """Array-DP fallback for strings too wide for 64-bit masks.

    DP in "tilted" coordinates q[j] = p[j] - j, which folds the column
    offset out of the loop: tmp'[j] = min(q[j] + 1, q[j-1] - equal_j) and
    new q[j] = min(running_min(tmp'), i).  Same exact integers as the
    scalar rolling row; int32 is ample (distances <= width).
    """
    n = len(pattern_lengths)
    tilted = np.zeros((n, width + 1), dtype=np.int32)
    insert = np.empty((n, width), dtype=np.int32)
    substitute = np.empty_like(insert)
    for i in range(1, int(outer_lengths.max()) + 1):
        active = np.searchsorted(sort_keys, -i, side="right")
        rows = tilted[:active]
        equal = inner_codes[:active] == outer_codes[:active, i - 1][:, None]
        up = insert[:active]
        diagonal = substitute[:active]
        np.add(rows[:, 1:], 1, out=up)
        np.subtract(rows[:, :-1], equal, out=diagonal)
        np.minimum(up, diagonal, out=up)
        np.minimum.accumulate(up, axis=1, out=up)
        np.minimum(up, i, out=rows[:, 1:])
        rows[:, 0] = i
    return tilted[np.arange(n), pattern_lengths].astype(np.int64) + pattern_lengths


def levenshtein_similarity_packed(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
    equal: np.ndarray,
    *,
    a_ids: np.ndarray | None = None,
    b_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Packed :func:`~repro.text.similarity.levenshtein_similarity`.

    ``equal`` marks pairs of identical strings (callers with interned ids
    know this without comparing characters).
    """
    out = np.empty(len(a_lengths), dtype=np.float64)
    out[equal] = 1.0
    todo = np.nonzero(~equal)[0]
    if todo.size:
        distances = levenshtein_distance_packed(
            a_codes[todo],
            a_lengths[todo],
            b_codes[todo],
            b_lengths[todo],
            a_ids=None if a_ids is None else a_ids[todo],
            b_ids=None if b_ids is None else b_ids[todo],
        )
        longest = np.maximum(a_lengths[todo], b_lengths[todo])
        # Same ops as the scalar `1.0 - distance / longest`.
        out[todo] = 1.0 - distances.astype(np.float64) / longest.astype(np.float64)
    return out


# -- longest common substring ------------------------------------------------


def longest_common_substring_packed(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
) -> np.ndarray:
    """Longest common contiguous substring lengths (int64, exact).

    Symmetric by definition, so the shorter string runs on the sequential
    axis; pairs are sorted by that length so each DP step touches only the
    dense prefix of still-active rows.
    """
    n = len(a_lengths)
    best = np.zeros(n, dtype=np.int64)
    if n == 0:
        return best
    swap = a_lengths > b_lengths
    outer_lengths = np.where(swap, b_lengths, a_lengths)
    inner_lengths = np.where(swap, a_lengths, b_lengths)
    width = int(inner_lengths.max()) if n else 0
    if width == 0 or int(outer_lengths.max()) == 0:
        return best
    a_wide = _gather_cores(a_codes, np.zeros(n, dtype=np.int64), a_lengths, width, PAD_LEFT)
    b_wide = _gather_cores(b_codes, np.zeros(n, dtype=np.int64), b_lengths, width, PAD_RIGHT)
    outer_codes = np.where(swap[:, None], b_wide, a_wide)
    inner_codes = np.where(swap[:, None], a_wide, b_wide)

    order, sort_keys = _by_descending(outer_lengths)
    outer_codes = outer_codes[order]
    inner_codes = inner_codes[order]

    previous = np.zeros((n, width + 1), dtype=np.int32)
    current = np.zeros_like(previous)
    best_sorted = np.zeros(n, dtype=np.int32)
    for i in range(1, int(outer_lengths.max()) + 1):
        active = np.searchsorted(sort_keys, -i, side="right")
        equal = inner_codes[:active] == outer_codes[:active, i - 1][:, None]
        # Run lengths extend where the characters match and reset to zero
        # where they do not — the multiply is the branchless `where`.
        runs = current[:active, 1:]
        np.add(previous[:active, :-1], 1, out=runs)
        np.multiply(runs, equal, out=runs)
        np.maximum(
            best_sorted[:active], runs.max(axis=1), out=best_sorted[:active]
        )
        # Rows that just went inactive keep stale DP rows; harmless, since
        # the active prefix only shrinks and `best` is already final.
        previous, current = current, previous
    best[order] = best_sorted.astype(np.int64)
    return best


def longest_common_substring_similarity_packed(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
    equal: np.ndarray,
) -> np.ndarray:
    """Packed :func:`~repro.text.similarity.longest_common_substring_similarity`."""
    out = np.empty(len(a_lengths), dtype=np.float64)
    out[equal] = 1.0
    either_empty = (a_lengths == 0) | (b_lengths == 0)
    out[either_empty & ~equal] = 0.0
    todo = np.nonzero(~equal & ~either_empty)[0]
    if todo.size:
        lcs = longest_common_substring_packed(
            a_codes[todo], a_lengths[todo], b_codes[todo], b_lengths[todo]
        )
        shortest = np.minimum(a_lengths[todo], b_lengths[todo])
        out[todo] = lcs.astype(np.float64) / shortest.astype(np.float64)
    return out


# -- Jaro / Jaro-Winkler -----------------------------------------------------


def _jaro_batch_core(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
    a_ids: np.ndarray | None = None,
    b_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Jaro similarity of packed non-equal, non-empty string pairs.

    Replays the scalar greedy matching loop with the ``i`` axis kept
    sequential (the ``b_matched`` state advances exactly as in the scalar
    code: one first-available window match per ``a`` character) and the
    pair axis vectorised.  Unlike the integer kernels the sides are *not*
    reoriented — the scalar function never swaps them — but rows are sorted
    by ``len(a)`` so each step runs on the dense still-active prefix.
    """
    n, b_width = b_codes.shape
    order, sort_keys = _by_descending(a_lengths)
    a_codes = a_codes[order]
    a_lengths_sorted = a_lengths[order]
    b_codes = b_codes[order]
    b_lengths_sorted = b_lengths[order]

    match_window = np.maximum(
        np.maximum(a_lengths_sorted, b_lengths_sorted) // 2 - 1, 0
    )
    b_positions = np.arange(b_width, dtype=np.int64)
    a_matched = np.zeros(a_codes.shape, dtype=np.bool_)
    iterations = int(a_lengths_sorted[0]) if n else 0
    if b_width <= _BIT_WIDTH:
        # Bit-parallel greedy: the window is a contiguous uint64 span, the
        # scalar loop's "first unmatched window position with this
        # character" is the lowest set candidate bit, and claiming it is
        # one OR.  Exactly the scalar matching, one thin op chain per step.
        table = _equality_bitmasks(
            b_codes,
            a_codes,
            None if b_ids is None else b_ids[order],
            None if a_ids is None else a_ids[order],
        )
        one = np.uint64(1)
        b_mask = np.zeros(n, dtype=np.uint64)
        # Step i's window is (1 << end) - (1 << start) with start =
        # max(0, i - match_window) and end = min(i + match_window + 1,
        # len(b)); both bounds move up one bit per step until they stop, so
        # the two powers are shifted along instead of recomputed.
        start_bit = np.ones(n, dtype=np.uint64)
        end_bit = one << np.minimum(match_window + 1, b_lengths_sorted).astype(np.uint64)
        end_stops = b_lengths_sorted - match_window - 1
        actives = np.searchsorted(
            sort_keys, -np.arange(1, iterations + 1), side="right"
        ).tolist()
        for i, active in enumerate(actives):
            window = end_bit[:active] - start_bit[:active]
            candidates = table[:active, i] & window & ~b_mask[:active]
            b_mask[:active] |= candidates & (~candidates + one)
            a_matched[:active, i] = candidates != 0
            start_bit[:active] <<= match_window[:active] <= i
            end_bit[:active] <<= end_stops[:active] > i
        b_matched = np.unpackbits(
            b_mask.astype("<u8").view(np.uint8).reshape(n, 8),
            axis=1,
            count=b_width,
            bitorder="little",
        ).view(np.bool_)
    else:
        b_matched = np.zeros(b_codes.shape, dtype=np.bool_)
        scratch = np.empty((n, b_width), dtype=np.bool_)
        for i in range(iterations):
            active = np.searchsorted(sort_keys, -(i + 1), side="right")
            start = np.maximum(0, i - match_window[:active])
            end = np.minimum(
                i + match_window[:active] + 1, b_lengths_sorted[:active]
            )
            candidates = scratch[:active]
            np.equal(b_codes[:active], a_codes[:active, i][:, None], out=candidates)
            candidates &= b_positions >= start[:, None]
            candidates &= b_positions < end[:, None]
            np.greater(candidates, b_matched[:active], out=candidates)
            first = candidates.argmax(axis=1)
            rows = np.arange(active)
            hit_rows = rows[candidates[rows, first]]
            b_matched[hit_rows, first[hit_rows]] = True
            a_matched[hit_rows, i] = True

    matches = b_matched.sum(axis=1)
    jaro_sorted = np.zeros(n, dtype=np.float64)
    scored = matches > 0
    jaro = np.zeros(n, dtype=np.float64)
    if not scored.any():
        return jaro

    # Transpositions: compare the matched characters of both sides in
    # order — exactly the scalar two-pointer walk.  Each match pairs one
    # character of each side, so both sides have ``matches`` of them per
    # pair, and the row-major masked reads line the k-th of one side up
    # with the k-th of the other.
    mismatched = a_codes[a_matched] != b_codes[b_matched]
    owners = np.repeat(np.arange(n), matches)
    transpositions = np.bincount(owners[mismatched], minlength=n) // 2

    m = matches[scored].astype(np.float64)
    t = transpositions[scored].astype(np.float64)
    la = a_lengths_sorted[scored].astype(np.float64)
    lb = b_lengths_sorted[scored].astype(np.float64)
    # Same left-associated expression as the scalar function.
    jaro_sorted[scored] = (m / la + m / lb + (m - t) / m) / 3.0
    jaro[order] = jaro_sorted
    return jaro


def jaro_winkler_similarity_packed(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
    equal: np.ndarray,
    prefix_weight: float = 0.1,
    *,
    a_ids: np.ndarray | None = None,
    b_ids: np.ndarray | None = None,
) -> np.ndarray:
    """Packed :func:`~repro.text.similarity.jaro_winkler_similarity`."""
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError("prefix_weight must be in [0, 0.25]")
    out = np.empty(len(a_lengths), dtype=np.float64)
    out[equal] = 1.0
    either_empty = (a_lengths == 0) | (b_lengths == 0)
    out[either_empty & ~equal] = 0.0
    todo = np.nonzero(~equal & ~either_empty)[0]
    if todo.size:
        a_sub, b_sub = a_codes[todo], b_codes[todo]
        jaro = _jaro_batch_core(
            a_sub,
            a_lengths[todo],
            b_sub,
            b_lengths[todo],
            None if a_ids is None else a_ids[todo],
            None if b_ids is None else b_ids[todo],
        )
        # Common prefix over the first four characters; the distinct pad
        # codes guarantee padding never compares equal, so the cumulative
        # product stops at min(len(a), len(b)) automatically.
        head = min(4, a_sub.shape[1], b_sub.shape[1])
        prefix = (
            np.cumprod(a_sub[:, :head] == b_sub[:, :head], axis=1).sum(axis=1)
            if head
            else np.zeros(todo.size, dtype=np.int64)
        )
        out[todo] = jaro + prefix.astype(np.float64) * prefix_weight * (1.0 - jaro)
    return out
