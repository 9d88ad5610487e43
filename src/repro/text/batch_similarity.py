"""Batched string-similarity kernels over a table of strings.

The columnar matching hot path (:mod:`repro.matching.features`) reduces an
extraction to its *distinct* string pairs and scores them all at once.
These kernels are the array counterparts of the scalar functions in
:mod:`repro.text.similarity`: :func:`pair_scores` and
:func:`pair_similarities` take row pairs of a :class:`StringTable` and
return Jaro–Winkler for every pair, plus the edit distance and the longest
common substring (LCS) of the pairs that ask for them.

The contract — pinned by a hypothesis suite
(``tests/text/test_batch_similarity.py``) — is **bitwise equality** with
the scalar functions.  That holds by construction:

* Levenshtein, LCS and the Jaro match/transposition counts are integer
  dynamic programs; any correct evaluation order produces the same exact
  integers, and every path below computes those integers exactly.
* The final float64 arithmetic replays the scalar expressions operation for
  operation (same divisions, same left-associated additions), and IEEE-754
  ops on equal inputs are deterministic.

**The tables.**  A :class:`StringTable` numbers the characters of its
strings from 1 in order of first appearance (0 is padding) and keeps, per
string, its length, its characters as those numbers in a zero-padded row,
and one uint64 *position mask* per character: bit ``p`` is set when the
string's ``p``-th character is that character.  The
:class:`~repro.matching.profiles.ProfileStore` holds one for its name and
stripped-name strings, built when it interns them, so no extraction packs
a string or builds a mask again.  The tests' string-list wrappers build
theirs with the same class.

**One equality table per slice.**  For a slice of pairs that all fit
``_BIT_WIDTH`` (63) codepoints, ``table[i, r]`` is the mask of right-string
positions equal to the left string's ``i``-th character: one gather from
the masks.  It is stored step-major, so each DP step reads one contiguous
row, and the pairs are sorted by left length, descending, so step ``i``
runs on the dense prefix of pairs still longer than ``i``.  All three
kernels read it:

* Jaro's greedy matching runs bit-parallel: the match window is a
  contiguous bit span, "first unmatched window position with this
  character" is the lowest set candidate bit, and claiming it is one XOR.
* Levenshtein runs Myers' bit-vector algorithm with the *right* string as
  the pattern and the left string as the text.  Edit distance is
  symmetric, so this reorientation yields the same exact integer as the
  scalar function's.
* LCS runs by levels: ``R1 = T`` and ``Rk[i] = T[i] & (R(k-1)[i-1] << 1)``,
  so bit ``j`` of ``Rk[i]`` is set exactly when the ``k`` characters
  ending at left position ``i`` equal those ending at right position
  ``j``.  The LCS length is the last ``k`` with a nonzero ``Rk``, an exact
  integer; pairs drop out at their first all-zero level, so most
  non-matches stop after a few levels.

**Slicing.**  :func:`pair_scores` sorts the pairs by the longer of their
two strings and cuts them into kernel slices of at most
:data:`KERNEL_SLICE_CELLS` pair-codepoints, which bounds every temporary.
Slices wider than 63 codepoints take exact array-DP fallbacks on padded
character rows: Levenshtein trims the common prefix/suffix, puts the
shorter core on the sequential axis and runs a tilted int32 DP; Jaro
replays the greedy matching on boolean matrices in scalar orientation; LCS
puts the shorter string on the sequential axis (symmetric by definition).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: Distinct out-of-range fill codes for left/right padding on the wide path,
#: which must never see the two sides compare equal on padding.
PAD_LEFT = -1
PAD_RIGHT = -2

#: Widest string a 64-bit position mask can cover.  Wider inputs take the
#: array-DP fallbacks; both paths compute the same exact integers.
_BIT_WIDTH = 63

#: Pair-codepoints per kernel slice: a slice holds pairs while their count
#: times the longest string among them stays within this budget.  The
#: equality table, its gather index and the LCS levels take 8 bytes per
#: cell, so a slice's temporaries stay near 0.5 MB each.  On ~1k-record
#: corpora (2-core VM) extracting ~8k training pairs took 25 ms at this
#: budget, 26.6 ms at 4x it (the traced peak rising from 4.0 to 8.9 MB:
#: fresh large temporaries cost page faults) and 37 ms at a quarter of it
#: (each slice pays a fixed cost per DP step).
KERNEL_SLICE_CELLS = 1 << 16

_ONE = np.uint64(1)


class StringTable:
    """The kernels' tables for a growing list of strings.

    Row ``k`` describes the ``k``-th string added: :attr:`lengths` holds
    its length in codepoints, :attr:`chars` its characters numbered from 1
    in order of first appearance (zero-padded to the longest string), and
    :attr:`masks` ``[k, c]`` the uint64 mask of its positions below 63
    holding character ``c`` (column 0, the padding, is always 0).  Growing
    the table never changes an existing row: new characters get new
    numbers, and the arrays grow by doubling, so :meth:`extend` costs
    amortised O(new strings).  Equal rows are identical strings only if the
    caller adds each string once, as the profile store does.
    """

    __slots__ = ("_count", "_lengths", "_chars", "_masks", "_alphabet")

    def __init__(self, strings: Sequence[str] = ()) -> None:
        self._count = 0
        self._lengths = np.zeros(0, dtype=np.int64)
        self._chars = np.zeros((0, 1), dtype=np.int32)
        self._masks = np.zeros((0, 1), dtype=np.uint64)
        #: codepoint -> character number
        self._alphabet: dict[int, int] = {}
        self.extend(strings)

    def __len__(self) -> int:
        return self._count

    @property
    def lengths(self) -> np.ndarray:
        return self._lengths[: self._count]

    @property
    def chars(self) -> np.ndarray:
        return self._chars[: self._count]

    @property
    def masks(self) -> np.ndarray:
        return self._masks[: self._count, : len(self._alphabet) + 1]

    def extend(self, strings: Sequence[str]) -> None:
        """Append one row per string."""
        if not strings:
            return
        codes = np.frombuffer(
            "".join(strings).encode("utf-32-le", "surrogatepass"), dtype=np.uint32
        )
        lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
        numbers = self._number(codes)
        first = self._count
        self._reserve(first + len(strings), int(lengths.max()), len(self._alphabet) + 1)
        rows = np.repeat(np.arange(first, first + len(strings)), lengths)
        positions = np.arange(len(codes)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        self._lengths[first : first + len(strings)] = lengths
        self._chars[rows, positions] = numbers
        bits = positions < _BIT_WIDTH
        np.bitwise_or.at(
            self._masks,
            (rows[bits], numbers[bits]),
            _ONE << positions[bits].astype(np.uint64),
        )
        self._count += len(strings)

    def _number(self, codes: np.ndarray) -> np.ndarray:
        """Character numbers of ``codes``; unseen ones get the next numbers
        in order of first appearance."""
        distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        alphabet = self._alphabet
        numbers = np.fromiter(
            (alphabet.get(code, 0) for code in distinct.tolist()),
            dtype=np.int32,
            count=len(distinct),
        )
        unseen = np.flatnonzero(numbers == 0)
        for index in unseen[np.argsort(first[unseen])].tolist():
            numbers[index] = alphabet[int(distinct[index])] = len(alphabet) + 1
        return numbers[inverse]

    def _reserve(self, rows: int, width: int, columns: int) -> None:
        """Grow the arrays, doubling each axis that is too small."""
        old_rows, old_width = self._chars.shape
        old_columns = self._masks.shape[1]
        grown = [
            old if need <= old else max(need, 2 * old)
            for need, old in ((rows, old_rows), (width, old_width), (columns, old_columns))
        ]
        if grown == [old_rows, old_width, old_columns]:
            return
        rows, width, columns = grown
        count = self._count
        lengths = np.zeros(rows, dtype=np.int64)
        lengths[:count] = self._lengths[:count]
        chars = np.zeros((rows, width), dtype=np.int32)
        chars[:count, :old_width] = self._chars[:count]
        masks = np.zeros((rows, columns), dtype=np.uint64)
        masks[:count, :old_columns] = self._masks[:count]
        self._lengths, self._chars, self._masks = lengths, chars, masks

    def equality_table(self, left_chars: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``table[i, r]``: mask of row ``right[r]``'s positions holding
        character ``left_chars[r, i]`` (0 for padding), step-major."""
        index = np.add(left_chars.T, right * self._masks.shape[1], order="C")
        return self._masks.ravel().take(index)


# -- entry points -------------------------------------------------------------


def pair_scores(
    strings: StringTable, left: np.ndarray, right: np.ndarray, edit: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jaro–Winkler, edit distance, LCS length) of row pairs of ``strings``.

    Every pair gets its Jaro–Winkler similarity (float64); the pairs
    ``edit`` marks also get their Levenshtein distance and longest common
    substring length (int64, -1 elsewhere).  Equal rows count as identical
    strings.
    """
    count = len(left)
    lengths = strings.lengths
    left_lengths, right_lengths = lengths[left], lengths[right]
    jaro_winkler = np.zeros(count, dtype=np.float64)
    distances = np.full(count, -1, dtype=np.int64)
    substrings = np.full(count, -1, dtype=np.int64)
    equal = left == right
    jaro_winkler[equal] = 1.0
    distances[equal & edit] = 0
    substrings[equal & edit] = left_lengths[equal & edit]
    # One side empty: Jaro–Winkler 0.0, the distance is the other length.
    empty = ~equal & ((left_lengths == 0) | (right_lengths == 0))
    distances[empty & edit] = np.maximum(left_lengths, right_lengths)[empty & edit]
    substrings[empty & edit] = 0

    todo = np.flatnonzero(~(equal | empty))
    widths = np.maximum(left_lengths[todo], right_lengths[todo])
    order = np.argsort(widths, kind="stable")
    todo, widths = todo[order], widths[order]
    for start, stop in kernel_slices(widths, KERNEL_SLICE_CELLS):
        rows = todo[start:stop]
        kernel = _bit_slice if widths[stop - 1] <= _BIT_WIDTH else _wide_slice
        slice_edit = edit[rows]
        jaro_winkler[rows], distances[rows[slice_edit]], substrings[rows[slice_edit]] = kernel(
            strings, left[rows], right[rows], slice_edit
        )
    return jaro_winkler, distances, substrings


def pair_similarities(
    strings: StringTable, left: np.ndarray, right: np.ndarray, edit: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair :func:`~repro.text.similarity.jaro_winkler_similarity`,
    :func:`~repro.text.similarity.levenshtein_similarity` and
    :func:`~repro.text.similarity.longest_common_substring_similarity`.

    The last two are computed for the ``edit`` pairs only (NaN elsewhere).
    """
    jaro_winkler, distances, substrings = pair_scores(strings, left, right, edit)
    lengths = strings.lengths
    left_lengths, right_lengths = lengths[left], lengths[right]
    levenshtein = np.full(len(left), np.nan)
    substring = np.full(len(left), np.nan)
    equal = edit & (left == right)
    levenshtein[equal] = 1.0
    substring[equal] = 1.0
    scored = edit & ~equal
    # Same ops as the scalar `1.0 - distance / longest`.
    levenshtein[scored] = 1.0 - distances[scored].astype(np.float64) / np.maximum(
        left_lengths, right_lengths
    )[scored].astype(np.float64)
    nonempty = scored & (left_lengths > 0) & (right_lengths > 0)
    substring[scored & ~nonempty] = 0.0
    substring[nonempty] = substrings[nonempty].astype(np.float64) / np.minimum(
        left_lengths, right_lengths
    )[nonempty].astype(np.float64)
    return jaro_winkler, levenshtein, substring


def kernel_slices(widths: np.ndarray, cells: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of each kernel slice over pair widths sorted ascending.

    Each slice is the longest run whose length times its widest pair stays
    within ``cells`` (one pair at least), and no slice mixes pairs that fit
    ``_BIT_WIDTH`` with wider ones.
    """
    bounds: list[tuple[int, int]] = []
    split = int(np.searchsorted(widths, _BIT_WIDTH, side="right"))
    for start, end in ((0, split), (split, len(widths))):
        while start < end:
            costs = np.arange(1, end - start + 1) * np.maximum(widths[start:end], 1)
            stop = start + max(int(np.searchsorted(costs, cells, side="right")), 1)
            bounds.append((start, stop))
            start = stop
    return bounds


def _by_descending(lengths: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(permutation sorting rows by length descending, active row counts).

    Sorting lets every DP step ``i`` run on the dense row prefix still
    longer than ``i`` (the ``i``-th active count) instead of masking the
    whole batch.
    """
    order = np.argsort(-lengths, kind="stable")
    steps = int(lengths[order[0]]) if len(order) else 0
    actives = np.searchsorted(-lengths[order], -np.arange(1, steps + 1), side="right")
    return order, actives.tolist()


# -- the bit path (every string fits a 64-bit mask) ---------------------------


def _bit_slice(
    strings: StringTable, left: np.ndarray, right: np.ndarray, edit: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jaro–Winkler of every pair, distance and LCS of the ``edit`` pairs,
    from one step-major equality table."""
    lengths = strings.lengths
    order, actives = _by_descending(lengths[left])
    left, right, edit = left[order], right[order], edit[order]
    left_lengths, right_lengths = lengths[left], lengths[right]
    steps = len(actives)
    left_chars = strings.chars[left, :steps]
    table = strings.equality_table(left_chars, right)

    jaro_winkler = np.empty(len(order), dtype=np.float64)
    jaro_winkler[order] = _jaro_winkler_bits(
        table,
        actives,
        left_chars,
        strings.chars[right, : int(right_lengths.max())],
        left_lengths,
        right_lengths,
    )
    picked = np.flatnonzero(edit)
    if not picked.size:
        return jaro_winkler, picked, picked
    if picked.size < len(order):
        table = table.take(picked, axis=1)
    actives = np.searchsorted(
        -left_lengths[picked], -np.arange(1, steps + 1), side="right"
    ).tolist()
    # Back from left-length order to the order of the slice's edit pairs.
    ranks = np.argsort(order[picked])
    distances = _levenshtein_bits(table, actives, right_lengths[picked])
    return jaro_winkler, distances[ranks], _lcs_levels(table)[ranks]


def _jaro_winkler_bits(
    table: np.ndarray,
    actives: list[int],
    left_chars: np.ndarray,
    right_chars: np.ndarray,
    left_lengths: np.ndarray,
    right_lengths: np.ndarray,
) -> np.ndarray:
    """Jaro–Winkler of non-equal, non-empty pairs sorted by left length.

    Replays the scalar greedy matching with the left axis sequential: step
    ``i`` claims, for every pair still longer than ``i``, the lowest free
    right position inside its window that holds the left ``i``-th
    character — the scalar loop's first match — in a handful of thin
    uint64 ops.
    """
    n = len(left_lengths)
    radius = np.maximum(np.maximum(left_lengths, right_lengths) // 2 - 1, 0)
    free = np.full(n, np.iinfo(np.uint64).max, dtype=np.uint64)
    left_matched = np.zeros(table.shape, dtype=np.bool_)
    # Step i's window is (1 << end) - (1 << start) with start =
    # max(0, i - radius) and end = min(i + radius + 1, len(right)); both
    # bounds move up one bit per step until they stop, so the two powers
    # are shifted along instead of recomputed.
    start_bit = np.ones(n, dtype=np.uint64)
    end_bit = _ONE << np.minimum(radius + 1, right_lengths).astype(np.uint64)
    end_stops = right_lengths - radius - 1
    for i, active in enumerate(actives):
        candidates = table[i, :active] & (end_bit[:active] - start_bit[:active])
        candidates &= free[:active]
        candidates &= -candidates
        free[:active] ^= candidates
        np.not_equal(candidates, 0, out=left_matched[i, :active])
        start_bit[:active] <<= radius[:active] <= i
        end_bit[:active] <<= end_stops[:active] > i
    matched = ~free
    right_matched = np.unpackbits(
        matched.astype("<u8").view(np.uint8).reshape(n, 8),
        axis=1,
        count=right_chars.shape[1],
        bitorder="little",
    ).view(np.bool_)
    return _jaro_winkler_from_matches(
        left_chars,
        left_matched.T,
        right_chars,
        right_matched,
        np.bitwise_count(matched).astype(np.int64),
        left_lengths,
        right_lengths,
    )


def _levenshtein_bits(
    table: np.ndarray, actives: list[int], pattern_lengths: np.ndarray
) -> np.ndarray:
    """Myers' bit-vector edit distance, the right strings as the patterns.

    The classic bit-parallel formulation: the DP column over the pattern is
    held as two uint64 delta vectors (``vertical_pos``/``vertical_neg``)
    per pair, the in-column carry chain is performed by hardware addition,
    and the distance is the running score at the pattern's top bit.  Step
    ``i`` reads the text's (left string's) ``i``-th row of the equality
    table.  Bits at and above each pattern's length are garbage but
    harmless: carries only propagate upward and nothing shifts down past
    the scored top bit.
    """
    n = len(pattern_lengths)
    lengths = pattern_lengths.astype(np.uint64)
    top_bit = _ONE << (lengths - _ONE)
    vertical_pos = (_ONE << lengths) - _ONE
    vertical_neg = np.zeros(n, dtype=np.uint64)
    # The score moves by one whenever a horizontal delta has the top bit
    # set.  Adding and subtracting the masked top bits themselves counts
    # those moves in fewer ops than comparing; the sums are multiples of a
    # power of two below 2**63 by at most 2 * 63, exact in float64.
    moves = np.zeros(n, dtype=np.float64)
    matches = np.empty(n, dtype=np.uint64)
    diagonal = np.empty(n, dtype=np.uint64)
    horizontal = np.empty(n, dtype=np.uint64)
    for i, active in enumerate(actives):
        if not active:
            break
        vp, vn, top = vertical_pos[:active], vertical_neg[:active], top_bit[:active]
        eq, d, h = matches[:active], diagonal[:active], horizontal[:active]
        np.bitwise_or(table[i, :active], vn, out=eq)
        np.bitwise_and(eq, vp, out=d)
        d += vp
        d ^= vp
        d |= eq
        np.bitwise_or(d, vp, out=h)
        np.invert(h, out=h)
        h |= vn  # the positive horizontal delta
        np.bitwise_and(d, vp, out=eq)  # the negative one
        step = moves[:active]
        step += h & top
        step -= eq & top
        h <<= _ONE
        h |= _ONE
        np.bitwise_and(h, d, out=vn)
        d |= h
        np.invert(d, out=d)
        eq <<= _ONE
        np.bitwise_or(eq, d, out=vp)
    return pattern_lengths + (moves / top_bit.astype(np.float64)).astype(np.int64)


def _lcs_levels(table: np.ndarray) -> np.ndarray:
    """Longest common substring lengths from the equality table, by levels.

    Level ``k`` holds, per left position ``i``, the mask of right positions
    ``j`` where the ``k`` characters ending at ``i`` and at ``j`` agree; it
    is the table row ``i`` AND level ``k - 1``'s row ``i - 1`` shifted up
    one bit.  A pair's LCS is its last level with a set bit.  Pairs whose
    level is all zero stay zero, so once half the columns have died they
    are dropped.
    """
    best = np.zeros(table.shape[1], dtype=np.int64)
    columns = np.arange(table.shape[1])
    level = table
    k = 0
    while level.shape[0]:
        live = np.flatnonzero(np.bitwise_or.reduce(level, axis=0))
        if not live.size:
            break
        k += 1
        best[columns[live]] = k
        if 2 * live.size <= len(columns):
            columns, level, table = columns[live], level[:, live], table[:, live]
        level = table[k:] & (level[:-1] << _ONE)
    return best


# -- the wide path (array DPs) ------------------------------------------------


def _wide_slice(
    strings: StringTable, left: np.ndarray, right: np.ndarray, edit: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The array-DP counterparts of :func:`_bit_slice`, for any width."""
    lengths = strings.lengths
    left_lengths, right_lengths = lengths[left], lengths[right]
    width = int(max(left_lengths.max(), right_lengths.max()))
    left_codes = strings.chars[left, :width]
    right_codes = strings.chars[right, :width]
    left_codes[left_codes == 0] = PAD_LEFT
    right_codes[right_codes == 0] = PAD_RIGHT
    jaro_winkler = _jaro_winkler_wide(left_codes, left_lengths, right_codes, right_lengths)
    args = (left_codes[edit], left_lengths[edit], right_codes[edit], right_lengths[edit])
    return jaro_winkler, _levenshtein_trimmed(*args), _lcs_wide(*args)


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


def _levenshtein_trimmed(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
) -> np.ndarray:
    """Edit distances of padded non-empty string pairs (int64, exact).

    The scalar function's work reductions: common affixes trimmed, the
    shorter core on the sequential axis — licensed because the distance is
    the same exact integer either way.
    """
    out = np.zeros(len(a_lengths), dtype=np.int64)
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
    todo = np.flatnonzero(~one_empty)
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

    order, actives = _by_descending(outer_lengths)
    out[todo[order]] = _levenshtein_wide(
        inner_codes[order], inner_lengths[order], outer_codes[order], actives, width
    )
    return out


def _levenshtein_wide(
    inner_codes: np.ndarray,
    pattern_lengths: np.ndarray,
    outer_codes: np.ndarray,
    actives: list[int],
    width: int,
) -> np.ndarray:
    """Array-DP edit distance for strings too wide for 64-bit masks.

    DP in "tilted" coordinates q[j] = p[j] - j, which folds the column
    offset out of the loop: tmp'[j] = min(q[j] + 1, q[j-1] - equal_j) and
    new q[j] = min(running_min(tmp'), i).  Same exact integers as the
    scalar rolling row; int32 is ample (distances <= width).
    """
    n = len(pattern_lengths)
    tilted = np.zeros((n, width + 1), dtype=np.int32)
    insert = np.empty((n, width), dtype=np.int32)
    substitute = np.empty_like(insert)
    for i, active in enumerate(actives, start=1):
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


def _lcs_wide(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
) -> np.ndarray:
    """Longest common substring lengths of padded non-empty pairs (exact).

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
    width = int(inner_lengths.max())
    zeros = np.zeros(n, dtype=np.int64)
    a_wide = _gather_cores(a_codes, zeros, a_lengths, width, PAD_LEFT)
    b_wide = _gather_cores(b_codes, zeros, b_lengths, width, PAD_RIGHT)
    order, actives = _by_descending(outer_lengths)
    outer_codes = np.where(swap[:, None], b_wide, a_wide)[order]
    inner_codes = np.where(swap[:, None], a_wide, b_wide)[order]

    previous = np.zeros((n, width + 1), dtype=np.int32)
    current = np.zeros_like(previous)
    best_sorted = np.zeros(n, dtype=np.int32)
    for i, active in enumerate(actives, start=1):
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


def _jaro_winkler_wide(
    a_codes: np.ndarray,
    a_lengths: np.ndarray,
    b_codes: np.ndarray,
    b_lengths: np.ndarray,
) -> np.ndarray:
    """Jaro–Winkler of padded non-equal, non-empty pairs on boolean matrices.

    Replays the scalar greedy matching loop with the ``i`` axis kept
    sequential (the ``b_matched`` state advances exactly as in the scalar
    code: one first-available window match per ``a`` character) and the
    pair axis vectorised, in scalar orientation; rows are sorted by
    ``len(a)`` so each step runs on the dense still-active prefix.
    """
    n, b_width = b_codes.shape
    order, actives = _by_descending(a_lengths)
    a_codes, a_lengths = a_codes[order], a_lengths[order]
    b_codes, b_lengths = b_codes[order], b_lengths[order]
    radius = np.maximum(np.maximum(a_lengths, b_lengths) // 2 - 1, 0)
    b_positions = np.arange(b_width, dtype=np.int64)
    a_matched = np.zeros(a_codes.shape, dtype=np.bool_)
    b_matched = np.zeros(b_codes.shape, dtype=np.bool_)
    scratch = np.empty((n, b_width), dtype=np.bool_)
    for i, active in enumerate(actives):
        start = np.maximum(0, i - radius[:active])
        end = np.minimum(i + radius[:active] + 1, b_lengths[:active])
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
    jaro_winkler = np.empty(n, dtype=np.float64)
    jaro_winkler[order] = _jaro_winkler_from_matches(
        a_codes,
        a_matched,
        b_codes,
        b_matched,
        np.count_nonzero(b_matched, axis=1),
        a_lengths,
        b_lengths,
    )
    return jaro_winkler


def _jaro_winkler_from_matches(
    a_codes: np.ndarray,
    a_matched: np.ndarray,
    b_codes: np.ndarray,
    b_matched: np.ndarray,
    matches: np.ndarray,
    a_lengths: np.ndarray,
    b_lengths: np.ndarray,
) -> np.ndarray:
    """Jaro–Winkler of non-equal, non-empty pairs from their matched
    positions and match counts (prefix weight 0.1, the scalar default)."""
    # Transpositions: compare the matched characters of both sides in
    # order — exactly the scalar two-pointer walk.  Each match pairs one
    # character of each side, so both sides have ``matches`` of them per
    # pair, and the row-major reads line the k-th of one side up with the
    # k-th of the other.  (Both code matrices are C-contiguous, so their
    # flat order is that row-major order.)
    mismatched = a_codes.ravel().take(np.flatnonzero(a_matched)) != b_codes.ravel().take(
        np.flatnonzero(b_matched)
    )
    running = np.concatenate(([0], np.cumsum(mismatched)))
    ends = np.cumsum(matches)
    m = matches.astype(np.float64)
    t = ((running[ends] - running[ends - matches]) // 2).astype(np.float64)
    # Same left-associated expression as the scalar function.  A pair
    # without matches has m = t = 0, and the guarded divisor makes its
    # Jaro 0.0, the scalar's value.
    jaro = (
        m / a_lengths.astype(np.float64)
        + m / b_lengths.astype(np.float64)
        + (m - t) / np.maximum(m, 1.0)
    ) / 3.0
    # Common prefix over the first four characters.  Padding never extends
    # it: two non-equal strings differ at or before the shorter one's end.
    prefix = np.zeros(len(matches), dtype=np.int64)
    run = np.ones(len(matches), dtype=np.bool_)
    for k in range(min(4, a_codes.shape[1], b_codes.shape[1])):
        run &= a_codes[:, k] == b_codes[:, k]
        prefix += run
    return jaro + prefix.astype(np.float64) * 0.1 * (1.0 - jaro)
