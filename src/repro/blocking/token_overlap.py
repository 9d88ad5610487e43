"""Token Overlap blocking.

"Considers each record as the list of tokens resulting from its tokenization
and selects as candidate pairs those involving the record and the top-n
records with most overlapping tokens across different data sources"
(Section 5.3.1).

The implementation builds an inverted token index over the records' textual
attributes, scores co-occurring records by the number of shared tokens
(weighted by inverse token frequency so that ubiquitous corporate terms do
not dominate) and keeps the top-n per record.  This is the blocking that
creates the hard look-alike candidates (Crowdstrike vs Crowdstreet) that the
GraLMatch clean-up later has to deal with.

The index is integer arrays (:class:`TokenIndex`).
:meth:`TokenOverlapBlocking.prepare` builds it once, and
:meth:`TokenOverlapBlocking.delta_update` appends a batch of records to it
as its last rows, tokenising only the batch.  Scoring is set-at-a-time:
:meth:`TokenOverlapBlocking.owned_candidates` reads the index in place,
expands chunks of query records into (query, candidate, weight) entries and
sums, ranks and cuts them with numpy.  Each score is the same sequence of
float additions as a per-record dictionary walk over the postings, so the
candidates do not depend on how the records are chunked.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields, replace
from itertools import chain, count, repeat

import numpy as np

from repro.blocking.base import Blocking, BlockingDelta, CandidatePair
from repro.datagen.records import Dataset, Record
from repro.registry import register_blocking
from repro.text.tokenize import word_tokenize

#: Most (query, posting) entries one scoring chunk expands.  Each entry
#: costs a few int64/float64 temporaries plus ``np.unique``'s sort buffers,
#: so a chunk's working set stays near 1 MB.  Four times this bound raised
#: an ingest's peak RSS by 5–8 MB on a ~60 MB process.  A record whose own
#: postings exceed the bound is scored as a chunk by itself.
SCORE_CHUNK_ENTRIES = 16_384

#: Float slack of a raised ceiling, in rounding units per surviving token of
#: the record (see :meth:`TokenOverlapBlocking.delta_update`).
CEILING_SLACK_ULPS = 16

#: The float64 unit roundoff, 2**-53.
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class TopNMemo:
    """What the ingest path remembers of each record's last scoring.

    Row-aligned with :attr:`TokenIndex.ids`.  ``tops[row]`` holds the rows
    of the record's owned candidates in rank order, padded with -1 when it
    has fewer than ``top_n``.  ``ceilings[row]`` bounds from above the score
    of every lower-ranked candidate whose shared-token set differs from the
    n-th candidate's: ``-inf`` when there is none, NaN when the record was
    never scored on the ingest path.

    ``shared`` holds, for each cell of ``tops``, the record's surviving
    tokens that the candidate carries, in sorted-token order: the sets
    whose weights rule (b) of :meth:`TokenOverlapBlocking.delta_update`
    adds up.  It is ``(starts, lengths, pool)``: cell ``(r, k)``'s tokens
    are ``pool[starts[r, k]:starts[r, k] + lengths[r, k]]``, so a rescored
    row's cells are appended to the pool rather than spliced in.  A
    function of ``tops`` and the index, it is never pickled, and None until
    a ``delta_update`` computes it.
    """

    tops: np.ndarray
    ceilings: np.ndarray
    shared: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def __getstate__(self) -> dict:
        return {"tops": self.tops, "ceilings": self.ceilings}


@dataclass(frozen=True, eq=False)
class TokenIndex:
    """Prepared state: every record's tokens and every token's postings, as
    integer arrays.

    :meth:`TokenOverlapBlocking.prepare` builds it, and
    :meth:`TokenOverlapBlocking.delta_update` appends a batch as its last
    rows; scoring spans read it without touching the dataset again.  Global
    on purpose: document frequencies and the frequency cutoff computed per
    span would differ from the serial run and change per-record top-n
    selections.

    Rows follow dataset order.  Tokens are numbered in order of first
    appearance (rows in order, each row's tokens in sorted order), so an
    index grown batch by batch equals ``prepare`` of the same records array
    for array.  No field depends on the iteration order of a set: the index
    is the same in the parent and in spawn-started pool workers, whose hash
    seed differs, and so is the order each score adds its weights in (a
    1-ULP difference there could flip a top-n boundary candidate).

    Two indexes are equal when their arrays are bitwise equal and their
    other fields equal; the memo and the lookups are not compared.  A batch
    never writes to an array of the index it extends, so that index stays
    valid.
    """

    #: row -> record id.
    ids: list[str]
    #: source name -> code, codes in order of first appearance.
    source_codes: dict[str, int]
    #: row -> source code.
    source: np.ndarray
    #: row -> rank of its id in ``sorted()`` order, so comparing ranks
    #: compares ids the way Python compares ``str``.
    rank: np.ndarray
    #: token number -> token.
    tokens: list[str]
    #: Each row's token numbers as CSR: row ``r``'s are
    #: ``token_ids[token_offsets[r]:token_offsets[r + 1]]``, in sorted token
    #: order, which is the order a query's score adds its weights in.
    token_offsets: np.ndarray
    token_ids: np.ndarray
    #: token -> number of rows carrying it.
    frequency: np.ndarray
    #: Each token's rows as CSR over every token, surviving or not: token
    #: ``t``'s are ``postings[posting_offsets[t]:posting_offsets[t + 1]]``,
    #: ascending (dataset order).
    posting_offsets: np.ndarray
    postings: np.ndarray
    #: IDF denominator: rows with at least one token, and at least 1.
    #: Token-less records can never be candidates, so counting them would
    #: only dilute the IDF weights and inflate the frequency cutoff.
    num_tokenised: int
    #: token -> whether its frequency is within the cutoff
    #: ``max_token_frequency * num_tokenised``; only surviving tokens score.
    survives: np.ndarray
    #: token -> IDF weight ``1 + log(num_tokenised / frequency)``.
    weights: np.ndarray
    #: Lookups derived from the fields above, never pickled: record id ->
    #: row, token -> number, and the ids in sorted order.
    row_of: dict[str, int] = field(repr=False)
    token_of: dict[str, int] = field(repr=False)
    sorted_ids: list[str] = field(repr=False)
    #: The ingest path's per-record top-n memo; None on a prepared index and
    #: on one saved before the memo existed.
    memo: TopNMemo | None = field(default=None, repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenIndex):
            return NotImplemented
        return all(
            _equal(getattr(self, name), getattr(other, name)) for name in _COMPARED_FIELDS
        )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in _LOOKUP_FIELDS:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.update(_lookups(state["ids"], state["tokens"], state["rank"]))


_LOOKUP_FIELDS = ("row_of", "token_of", "sorted_ids")
_COMPARED_FIELDS = tuple(
    spec.name
    for spec in fields(TokenIndex)
    if spec.name not in _LOOKUP_FIELDS and spec.name != "memo"
)


def _equal(ours: object, theirs: object) -> bool:
    """Field equality; arrays compare bitwise, dtype and shape included."""
    if isinstance(ours, np.ndarray):
        return (
            isinstance(theirs, np.ndarray)
            and ours.dtype == theirs.dtype
            and ours.shape == theirs.shape
            and ours.tobytes() == theirs.tobytes()
        )
    return ours == theirs


def _lookups(ids: list[str], tokens: list[str], rank: np.ndarray) -> dict:
    """The lookup fields of an index, from its ids, tokens and ranks."""
    return {
        "row_of": dict(zip(ids, range(len(ids)))),
        "token_of": dict(zip(tokens, range(len(tokens)))),
        "sorted_ids": list(map(ids.__getitem__, np.argsort(rank).tolist())),
    }


def _empty_index() -> TokenIndex:
    """The index of no records: what :meth:`TokenOverlapBlocking.prepare`
    appends a dataset to."""
    empty = np.zeros(0, dtype=np.int64)
    return TokenIndex(
        ids=[],
        source_codes={},
        source=empty,
        rank=empty,
        tokens=[],
        token_offsets=np.zeros(1, dtype=np.int64),
        token_ids=empty,
        frequency=empty,
        posting_offsets=np.zeros(1, dtype=np.int64),
        postings=empty,
        num_tokenised=1,
        survives=np.zeros(0, dtype=bool),
        weights=np.zeros(0, dtype=np.float64),
        row_of={},
        token_of={},
        sorted_ids=[],
    )


def _append(
    index: TokenIndex,
    ids: Sequence[str],
    sources: Sequence[str],
    token_lists: Sequence[Sequence[str]],
    max_token_frequency: float,
) -> TokenIndex:
    """``index`` with one row appended per record: ``ids``, their
    ``sources`` and their sorted ``token_lists``.

    Works on the batch and on whole arrays, never per record or per token
    of the index.  ``index`` is left valid: the arrays a batch changes are
    new, and the lists and dicts it extends are copied first.
    """
    num_old, num_new = len(index.ids), len(ids)
    num_rows = num_old + num_new

    source_codes = index.source_codes
    fresh = [name for name in dict.fromkeys(sources) if name not in source_codes]
    if fresh:
        source_codes = {**source_codes, **dict(zip(fresh, count(len(source_codes))))}
    source = np.fromiter(map(source_codes.__getitem__, sources), np.int64, num_new)

    tokens, token_of = index.tokens, index.token_of
    fresh = [
        token for token in dict.fromkeys(chain.from_iterable(token_lists))
        if token not in token_of
    ]
    if fresh:
        token_of = {**token_of, **dict(zip(fresh, count(len(tokens))))}
        tokens = tokens + fresh
    num_tokens = len(tokens)

    counts = np.fromiter(map(len, token_lists), np.int64, num_new)
    token_offsets = np.concatenate([index.token_offsets, index.token_offsets[-1] + np.cumsum(counts)])
    batch_tokens = np.fromiter(
        map(token_of.__getitem__, chain.from_iterable(token_lists)),
        np.int64,
        int(token_offsets[-1] - index.token_offsets[-1]),
    )
    added = np.bincount(batch_tokens, minlength=num_tokens)
    old_counts = _padded(index.frequency, num_tokens)
    frequency = old_counts + added

    # Each token's old rows keep their order, and the batch's rows follow
    # them: they are the largest, so every posting list stays ascending.
    posting_offsets = _offsets(frequency)
    postings = np.empty(posting_offsets[-1], dtype=np.int64)
    postings[_gather(posting_offsets[: len(index.tokens)], index.frequency)] = index.postings
    by_token = np.argsort(batch_tokens, kind="stable")
    grouped = batch_tokens[by_token]
    postings[
        posting_offsets[grouped]
        + old_counts[grouped]
        + np.arange(len(grouped))
        - _offsets(added)[grouped]
    ] = np.repeat(np.arange(num_old, num_rows), counts)[by_token]

    num_tokenised = max(int(np.count_nonzero(np.diff(token_offsets))), 1)
    sorted_ids, rank = _merged_ranks(index.sorted_ids, index.rank, ids)
    return TokenIndex(
        ids=index.ids + list(ids),
        source_codes=source_codes,
        source=np.concatenate([index.source, source]),
        rank=rank,
        tokens=tokens,
        token_offsets=token_offsets,
        token_ids=np.concatenate([index.token_ids, batch_tokens]),
        frequency=frequency,
        posting_offsets=posting_offsets,
        postings=postings,
        num_tokenised=num_tokenised,
        survives=frequency <= max_token_frequency * num_tokenised,
        weights=_weights(frequency, num_tokenised),
        row_of={**index.row_of, **dict(zip(ids, range(num_old, num_rows)))},
        token_of=token_of,
        sorted_ids=sorted_ids,
    )


def _weights(frequency: np.ndarray, num_tokenised: int) -> np.ndarray:
    """Each token's IDF weight ``1 + log(num_tokenised / frequency)``.

    ``math.log``, not ``np.log``: the two differ in the last bit on some
    inputs, and the weights must equal the per-record walk's.  It runs once
    per distinct frequency, and the tokens gather from that table.
    """
    present = np.bincount(frequency)
    table = np.zeros(len(present), dtype=np.float64)
    distinct = np.flatnonzero(present)
    table[distinct] = [1.0 + math.log(num_tokenised / count) for count in distinct.tolist()]
    return table[frequency]


def _merged_ranks(
    sorted_ids: list[str], rank: np.ndarray, new_ids: Sequence[str]
) -> tuple[list[str], np.ndarray]:
    """The ids in sorted order and every row's rank once ``new_ids`` are
    appended as the last rows (ids are unique)."""
    order = sorted(range(len(new_ids)), key=new_ids.__getitem__)
    batch_sorted = [new_ids[position] for position in order]
    # How many earlier ids sort before each new one, in sorted batch order.
    before = np.fromiter(
        map(bisect_left, repeat(sorted_ids), batch_sorted), np.int64, len(batch_sorted)
    )
    new_rank = np.empty(len(new_ids), dtype=np.int64)
    new_rank[order] = before + np.arange(len(new_ids))
    return (
        # Two sorted runs: sorting merges them in linear time.
        sorted(sorted_ids + batch_sorted),
        np.concatenate([rank + np.searchsorted(before, rank, side="right"), new_rank]),
    )


def _padded(values: np.ndarray, length: int) -> np.ndarray:
    """``values`` followed by zeros, ``length`` rows long."""
    padded = np.zeros((length, *values.shape[1:]), dtype=values.dtype)
    padded[: len(values)] = values
    return padded


def _offsets(counts: Sequence[int] | np.ndarray) -> np.ndarray:
    """CSR offsets: 0, then the running totals of ``counts``."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=offsets[1:])
    return offsets


def _gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions ``starts[i]`` to ``starts[i] + counts[i] - 1`` for every
    ``i``, concatenated: where a set of CSR slices lies."""
    ends = _offsets(counts)
    return np.repeat(starts - ends[:-1], counts) + np.arange(ends[-1])


def _surviving_tokens(index: TokenIndex, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The surviving token numbers of ``rows``, concatenated in each row's
    sorted-token order, and how many each row has."""
    starts = index.token_offsets[rows]
    counts = index.token_offsets[rows + 1] - starts
    tokens = index.token_ids[_gather(starts, counts)]
    surviving = index.survives[tokens]
    per_row = np.bincount(
        np.repeat(np.arange(len(rows)), counts)[surviving], minlength=len(rows)
    )
    return tokens[surviving], per_row


def _chunk_bounds(costs: list[int]) -> list[int]:
    """Split queries into consecutive chunks of at most
    :data:`SCORE_CHUNK_ENTRIES` expanded postings; a query costlier than
    the bound gets a chunk of its own.  Returns the chunk boundaries."""
    bounds = [0]
    load = 0
    for index, cost in enumerate(costs):
        if load and load + cost > SCORE_CHUNK_ENTRIES:
            bounds.append(index)
            load = 0
        load += cost
    bounds.append(len(costs))
    return bounds


def _query_chunks(
    index: TokenIndex, record_ids: Sequence[str]
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Split queries into scoring chunks of at most
    :data:`SCORE_CHUNK_ENTRIES` expanded postings.

    Yields ``(start, stop, rows, tokens, tokens_per_query)`` per chunk:
    the chunk's slice of ``record_ids``, their row numbers, and their
    concatenated surviving token numbers in each query's sorted-token order.
    """
    rows = np.fromiter(map(index.row_of.__getitem__, record_ids), np.int64, len(record_ids))
    token_ids, tokens_per_query = _surviving_tokens(index, rows)
    tokens_at = _offsets(tokens_per_query)
    entries_at = _offsets(index.frequency[token_ids])
    costs = entries_at[tokens_at[1:]] - entries_at[tokens_at[:-1]]
    bounds = _chunk_bounds(costs.tolist())
    for start, stop in zip(bounds, bounds[1:]):
        yield (
            start,
            stop,
            rows[start:stop],
            token_ids[tokens_at[start]:tokens_at[stop]],
            tokens_per_query[start:stop],
        )


def _pair_scores(
    index: TokenIndex,
    rows: np.ndarray,
    tokens: np.ndarray,
    tokens_per_query: np.ndarray,
    entries: bool = False,
) -> tuple[np.ndarray, ...]:
    """Overlap scores of one chunk of queries against every other source.

    ``rows`` are the queries' row numbers and ``tokens`` their concatenated
    surviving token numbers, ``tokens_per_query`` each, in sorted-token
    order.  Returns ``(query, candidate, score)`` sorted by (query position,
    candidate row), one entry per pair with at least one shared token.
    With ``entries``, also returns each shared (pair, token) entry as the
    pair's index in those arrays and the token number, in the order the
    scores add them.
    """
    # Expand to (query, candidate, weight) in (query, sorted token, posting)
    # order.
    counts = index.frequency[tokens]
    query = np.repeat(np.repeat(np.arange(len(rows)), tokens_per_query), counts)
    weight = np.repeat(index.weights[tokens], counts)
    candidate = index.postings[_gather(index.posting_offsets[tokens], counts)]
    # A query shares its own source, so this drops self pairs too.
    keep = index.source[candidate] != index.source[rows[query]]
    query, candidate, weight = query[keep], candidate[keep], weight[keep]

    # np.bincount adds each pair's weights in input order, starting from 0.0:
    # the running sum of a per-record walk.  Segment reductions
    # (np.add.reduceat, np.sum) add pairwise and can differ in the last bit.
    num_rows = len(index.ids)
    keys, inverse = np.unique(query * num_rows + candidate, return_inverse=True)
    scores = np.bincount(inverse, weights=weight, minlength=len(keys))
    query, candidate = np.divmod(keys, num_rows)
    if entries:
        return query, candidate, scores, inverse, np.repeat(tokens, counts)[keep]
    return query, candidate, scores


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of ``keys`` occurs in the sorted array ``sorted_keys``."""
    found = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[found] == keys


def _memo_rows(
    memo: TopNMemo | None, num_rows: int, top_n: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """Writable copies of ``memo``'s tops and ceilings over ``num_rows``
    rows, and of its shared-token cells if it has them; rows the memo lacks
    get no entry (-1 tops, NaN ceiling, empty cells)."""
    tops = np.full((num_rows, top_n), -1, dtype=np.int32)
    ceilings = np.full(num_rows, np.nan)
    cells = None
    if memo is not None:
        kept = min(len(memo.ceilings), num_rows)
        tops[:kept] = memo.tops[:kept]
        ceilings[:kept] = memo.ceilings[:kept]
        if memo.shared is not None:
            starts, lengths, pool = memo.shared
            cells = (_padded(starts[:kept], num_rows), _padded(lengths[:kept], num_rows), pool)
    return tops, ceilings, cells


def _carried(index: TokenIndex) -> np.ndarray:
    """Which rows carry which tokens, as sorted ``row * len(tokens) +
    token`` keys: a memo cell's probes then fall among one row's few keys."""
    rows = np.repeat(np.arange(len(index.ids)), np.diff(index.token_offsets))
    return np.sort(rows * len(index.tokens) + index.token_ids)


def _cell_tokens(
    index: TokenIndex, rows: np.ndarray, tops: np.ndarray, carried: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The shared tokens of each cell of the memo rows ``tops`` of ``rows``
    (see :attr:`TopNMemo.shared`): their number per cell, shaped like
    ``tops``, and the tokens, cell after cell in row-major order.
    ``carried`` is :func:`_carried` of ``index``."""
    tokens, per_row = _surviving_tokens(index, rows)
    cell_row, cell_rank = np.nonzero(tops >= 0)
    lengths = per_row[cell_row]
    token = tokens[_gather(_offsets(per_row)[cell_row], lengths)]
    candidate = np.repeat(tops[cell_row, cell_rank].astype(np.int64), lengths)
    carries = _contains(carried, candidate * len(index.tokens) + token)
    cell = np.repeat(cell_row * tops.shape[1] + cell_rank, lengths)[carries]
    return np.bincount(cell, minlength=tops.size).reshape(tops.shape), token[carries]


def _contiguous_cells(
    lengths: np.ndarray, tokens: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:attr:`TopNMemo.shared` of cells laid out one after another."""
    return _offsets(lengths.ravel())[:-1].reshape(lengths.shape), lengths, tokens


def _sets_differ(
    pair_query: np.ndarray,
    inverse: np.ndarray,
    entry_token: np.ndarray,
    nth: np.ndarray,
    tied: np.ndarray,
    num_tokens: int,
) -> np.ndarray:
    """Whether each ``tied`` pair's shared-token set differs from the set
    of its query's ``nth`` pair.

    Pairs are indices into ``pair_query``; ``inverse`` and ``entry_token``
    are the (pair, token) entries :func:`_pair_scores` returns.  A tied
    pair scores the same as the n-th, so its set differs exactly when one
    of its tokens is missing from the n-th pair's set: a proper subset
    would score less, every weight being at least 1.
    """
    is_nth = np.zeros(len(pair_query), dtype=bool)
    is_nth[nth] = True
    is_tied = np.zeros(len(pair_query), dtype=bool)
    is_tied[tied] = True
    entry_key = pair_query[inverse] * num_tokens + entry_token
    in_tied = is_tied[inverse]
    nth_keys = np.sort(entry_key[is_nth[inverse]])
    outside = ~_contains(nth_keys, entry_key[in_tied])
    missing = np.bincount(inverse[in_tied][outside], minlength=len(pair_query))
    return missing[tied] > 0


@register_blocking("token_overlap")
class TokenOverlapBlocking(Blocking):
    """Top-n most token-overlapping records across different sources."""

    name = "token_overlap"

    def __init__(
        self,
        top_n: int = 5,
        attributes: Sequence[str] = ("name", "title"),
        min_token_length: int = 2,
        max_token_frequency: float = 0.25,
    ) -> None:
        if isinstance(top_n, bool) or not isinstance(top_n, int):
            raise ValueError(f"top_n must be an integer, got {top_n!r}")
        if top_n < 1:
            raise ValueError("top_n must be at least 1")
        if isinstance(attributes, str):
            # A bare string would be iterated character by character and
            # silently tokenise no real attribute at all.
            raise ValueError(
                f"attributes must be a sequence of attribute names, not the "
                f"string {attributes!r}; write [{attributes!r}]"
            )
        if (
            isinstance(min_token_length, bool)
            or not isinstance(min_token_length, int)
            or min_token_length < 1
        ):
            raise ValueError(
                f"min_token_length must be an integer >= 1, got {min_token_length!r}"
            )
        if isinstance(max_token_frequency, bool) or not isinstance(
            max_token_frequency, numbers.Real
        ):
            raise ValueError(
                f"max_token_frequency must be a real number, got {max_token_frequency!r}"
            )
        if not 0.0 < max_token_frequency <= 1.0:
            raise ValueError(
                f"max_token_frequency must be in (0, 1], got {max_token_frequency!r}"
            )
        self.top_n = top_n
        self.attributes = tuple(attributes)
        self.min_token_length = min_token_length
        #: Tokens appearing in more than this share of records are ignored —
        #: they would otherwise produce quadratic blow-ups ("inc", "corp").
        self.max_token_frequency = max_token_frequency

    def prepare(self, dataset: Dataset) -> TokenIndex:
        """Build the index of every record: the empty index with the
        dataset appended."""
        return self._extend(_empty_index(), dataset.records)

    def _extend(self, index: TokenIndex, records: Sequence[Record]) -> TokenIndex:
        """``index`` with ``records`` appended, tokenising only them; the
        result carries no memo."""
        return _append(
            index,
            [record.record_id for record in records],
            [record.source for record in records],
            [sorted(self._tokens(record)) for record in records],
            self.max_token_frequency,
        )

    def extend_index(
        self, shared: TokenIndex, dataset: Dataset, new_records: Sequence[Record]
    ) -> TokenIndex:
        """The index :meth:`delta_update` returns, without its dirty rules
        or a memo (:meth:`note_rescored` puts one back)."""
        return self._extend(shared, new_records)

    def delta_update(
        self, shared: TokenIndex, dataset: Dataset, new_records: Sequence[Record]
    ) -> BlockingDelta:
        """Fold new records in; dirty only the records whose top n can change.

        Tokenisation runs for the new records only, and they are appended
        to the index as its last rows: their postings go to the end of each
        token's list and their tokens' frequencies rise.  The IDF
        denominator and the frequency cutoff move whenever tokenised records
        arrive, so every weight and every token's survival is recomputed,
        as one vector operation each over the tokens.

        Any tokenised arrival moves every IDF weight ``1 + log(N / df)``, so
        any record's top n could reorder.  The :class:`TopNMemo` that
        :meth:`rescore` leaves on the index narrows that down.  For each
        scored record it keeps the top-n candidates and a *ceiling*: the best
        score among the lower-ranked candidates whose shared-token set
        differs from the n-th candidate's.  (A candidate sharing the n-th's
        set scores bitwise the same under any weights, and its larger id
        keeps it below.)  A pre-existing record is dirty if any of these
        holds:

        (a) one of its tokens crossed the frequency cutoff, either way;
        (b) its top-n scores, recomputed under the new weights, change
            order (score descending, then id).  Each shared-token set is
            the record's surviving tokens that the candidate carries, and
            its weights are added from 0.0 in sorted-token order, the
            scorer's own additions, so the scores are bitwise a rescore's.
            The sets change only when one of the record's own tokens
            crosses the cutoff, which (a) catches, so the memo keeps them
            (:attr:`TopNMemo.shared`);
        (c) its raised ceiling reaches the recomputed n-th score, where
            ``raised = (ceiling + spread) * (1 + CEILING_SLACK_ULPS * (m + 2)
            * 2**-53)``, ``spread`` sums ``max(w' - w, 0)`` over its ``m``
            surviving tokens and ``w``, ``w'`` are the old and new float
            weights;
        (d) a new record ranks above its n-th candidate (score descending,
            then id), or it has fewer than ``top_n`` candidates and any new
            record scores it.  Scoring a pair adds the same weights in the
            same global token order from either side, so these scores are
            the ones a rescore of the record sees.

        Why the slack suffices: every weight is at least 1, so a score is a
        sum of at most ``m`` positive terms and is within ``gamma_(m-1)`` =
        ``(m - 1) u / (1 - (m - 1) u)`` (u = 2**-53) of its exact value.
        The exact score of a lower candidate moves by at most the exact
        spread, which the computed ``spread`` underestimates by at most a
        factor ``1 - gamma_m``.  Together a lower candidate's new score is
        at most ``(1 + 3 gamma_(m+1)) (ceiling + spread)``.  The two
        roundings of ``raised`` itself cost at most ``2u``, and ``(16 (m + 2)
        - 2) u`` exceeds ``3 gamma_(m+1)`` with room to spare (``m`` far below
        2**40).  The raised value
        is what a clean record keeps as its ceiling, so each batch pays for
        its own rounding and the bound holds across any number of batches.
        A new record that ranks below the n-th candidate raises the ceiling
        to its score, unless its shared-token set is the n-th candidate's:
        then it ties the n-th for good and its id keeps it below, like the
        lower candidates the scorer leaves out of the ceiling.  Rescoring a
        record resets its memo.

        Records without a memo entry (a state saved before the memo
        existed, or a freshly prepared index) fall back to the plain rule:
        every tokenised record is dirty once.  Token-less records never
        are, and a batch of token-less records dirties nothing.
        """
        updated = self._extend(shared, new_records)
        if updated.token_offsets[-1] == shared.token_offsets[-1]:
            # No weight, frequency or cutoff moves and no record gains a
            # candidate: nothing is dirty and the memo stays exact.
            return BlockingDelta(shared=replace(updated, memo=shared.memo))
        dirty, memo = self._dirty_rows(shared, updated)
        return BlockingDelta(
            shared=replace(updated, memo=memo),
            dirty_record_ids=frozenset(map(shared.ids.__getitem__, np.flatnonzero(dirty).tolist())),
        )

    def _dirty_rows(self, old: TokenIndex, new: TokenIndex) -> tuple[np.ndarray, TopNMemo]:
        """Rules (a)-(d) of :meth:`delta_update` over the pre-existing rows.

        ``new`` is ``old`` with the batch appended.  Returns the dirty mask
        of the rows of ``old`` and the memo of those rows under the new
        weights: clean rows keep their tops and get the raised ceiling,
        dirty rows get NaN until their rescore.
        """
        num_old = len(old.ids)
        tops, ceilings, cells = _memo_rows(old.memo, num_old, self.top_n)

        # Each pre-existing record's tokens as (row, token number), in its
        # sorted-token order.
        token_counts = np.diff(old.token_offsets)
        entry_row = np.repeat(np.arange(num_old), token_counts)
        entry_token = old.token_ids

        # The old weight of every token that survived before; NaN where it
        # did not (the batch's new tokens did not exist).
        num_tokens = len(new.tokens)
        survived = _padded(old.survives, num_tokens)
        old_weights = np.where(survived, _padded(old.weights, num_tokens), np.nan)
        rise = np.where(
            survived & new.survives, np.maximum(new.weights - old_weights, 0.0), 0.0
        )

        # (a) Cutoff crossings: a token cut from now on, or surviving from
        # now on.  No pre-existing record carries a new token.
        dirty = np.zeros(num_old, dtype=bool)
        dirty[entry_row[(survived != new.survives)[entry_token]]] = True
        surviving = new.survives[entry_token]
        row_of_surviving = entry_row[surviving]
        token_of_surviving = entry_token[surviving]

        # Each record's surviving tokens: count m and spread.
        survivors = np.bincount(row_of_surviving, minlength=num_old)
        spread = np.bincount(
            row_of_surviving, weights=rise[token_of_surviving], minlength=num_old
        )

        # (b) Recompute every stored top candidate's score: the weights of
        # the record's surviving tokens the candidate also carries, added in
        # sorted-token order.  Those sets change only with a cutoff crossing
        # of the record's own tokens, which dirties it by (a), so the memo
        # keeps them; a memo that lost them (to a pickle) computes them.
        carried = _carried(new)
        if cells is None:
            cells = _contiguous_cells(*_cell_tokens(new, np.arange(num_old), tops, carried))
        starts, lengths, pool = cells
        sums = np.bincount(
            np.repeat(np.arange(tops.size), lengths.ravel()),
            weights=new.weights[pool[_gather(starts.ravel(), lengths.ravel())]],
            minlength=tops.size,
        )
        scores = np.where(tops >= 0, sums.reshape(tops.shape), np.nan)
        ranks = new.rank[np.maximum(tops, 0)]
        upper, lower = scores[:, :-1], scores[:, 1:]
        in_order = (upper > lower) | ((upper == lower) & (ranks[:, :-1] < ranks[:, 1:]))
        dirty |= ((tops[:, 1:] >= 0) & ~in_order).any(axis=1)

        # (c) The raised ceiling against the recomputed n-th score.
        full = tops[:, -1] >= 0
        nth = scores[:, -1]
        raised = (ceilings + spread) * (
            1.0 + CEILING_SLACK_ULPS * (survivors + 2) * _UNIT_ROUNDOFF
        )
        dirty |= full & (raised >= nth)

        # (d) Where each new record ranks among a pre-existing record's
        # candidates.  Below the n-th it raises the ceiling, unless it shares
        # exactly the n-th candidate's token set: then it ties the n-th for
        # good and its id keeps it below.
        nth_candidate = np.maximum(tops[:, -1], 0)
        best_new = np.full(num_old, -np.inf)
        for _, _, rows, tokens, tokens_per_query in _query_chunks(new, new.ids[num_old:]):
            query, row, score, inverse, pair_token = _pair_scores(
                new, rows, tokens, tokens_per_query, entries=True
            )
            existing = row < num_old
            row = np.where(existing, row, 0)
            above = (score > nth[row]) | (
                (score == nth[row])
                & (new.rank[rows[query]] < new.rank[nth_candidate[row]])
            )
            dirty[row[existing & (above | ~full[row])]] = True
            below = existing & full[row] & ~above
            tied = below & (score == nth[row])
            if tied.any():
                # Same set: the n-th candidate carries every shared token (a
                # proper subset would score less, every weight being >= 1).
                in_tied = tied[inverse]
                carries = _contains(
                    carried,
                    nth_candidate[row[inverse[in_tied]]] * num_tokens + pair_token[in_tied],
                )
                missing = np.bincount(inverse[in_tied][~carries], minlength=len(score))
                below &= ~(tied & (missing == 0))
            np.maximum.at(best_new, row[below], score[below])

        # Fallback: tokenised records without a memo entry.
        dirty |= np.isnan(ceilings) & (token_counts > 0)
        ceilings = np.where(dirty, np.nan, np.maximum(raised, best_new))
        return dirty, TopNMemo(tops=tops, ceilings=ceilings, shared=cells)

    def note_rescored(
        self, shared: TokenIndex, notes: Sequence[tuple[np.ndarray | slice, TopNMemo] | None]
    ) -> TokenIndex:
        """The index with the memo entries of :meth:`rescore` folded in.

        Rows the notes do not cover keep their entry; rows new to the index
        and not covered get none (NaN), so they fall back to the plain rule.
        The memo's shared-token cells, when it has them, are recomputed for
        the covered rows.
        """
        tops, ceilings, cells = _memo_rows(shared.memo, len(shared.ids), self.top_n)
        covered = np.zeros(len(shared.ids), dtype=bool)
        for note in notes:
            if note is not None:
                rows, memo = note
                tops[rows] = memo.tops
                ceilings[rows] = memo.ceilings
                covered[rows] = True
        if cells is not None and covered.any():
            starts, lengths, pool = cells
            rows = np.flatnonzero(covered)
            fresh_lengths, fresh = _cell_tokens(shared, rows, tops[rows], _carried(shared))
            starts[rows] = len(pool) + _contiguous_cells(fresh_lengths, fresh)[0]
            lengths[rows] = fresh_lengths
            pool = np.concatenate([pool, fresh])
            cells = (starts, lengths, pool)
            if len(pool) > 2 * lengths.sum():
                # Drop what the replaced cells left in the pool.
                cells = _contiguous_cells(lengths, pool[_gather(starts.ravel(), lengths.ravel())])
        return replace(shared, memo=TopNMemo(tops=tops, ceilings=ceilings, shared=cells))

    def saved_notes(self, shared: TokenIndex) -> tuple[slice, TopNMemo] | None:
        """The top-n memo, as a :meth:`rescore` note covering every row.

        Rows follow dataset order in every index of the same records, so
        :meth:`note_rescored` puts each row back.
        """
        memo = shared.memo
        return None if memo is None else (slice(0, len(memo.ceilings)), memo)

    def candidates_for(
        self, shared: TokenIndex, records: Sequence[Record]
    ) -> list[CandidatePair]:
        """Score one span of records against the global index.

        A pair is owned by the record whose top-n selection produced it, so
        every span emits exactly the pairs the serial per-record loop emits
        for its records — span concatenation reproduces the serial stream.
        This is the flattening of :meth:`owned_candidates`: the batch path
        and the delta path share one scorer.
        """
        return [
            pair
            for owned in self.owned_candidates(shared, records)
            for pair in owned
        ]

    def owned_candidates(
        self, shared: TokenIndex, records: Sequence[Record]
    ) -> list[tuple[CandidatePair, ...]]:
        """Each record's top-n candidate pairs, scored set-at-a-time.

        A record's score for another record is the sum of the IDF weights of
        their shared surviving tokens, added in the record's sorted-token
        order and each token's posting order — the order a per-record
        ``scores[other] += weight`` walk uses, so every float sum is equal.
        Records from the query's own source (the query included) score
        nothing; ties break on the candidate id.  Queries are scored in
        chunks of at most :data:`SCORE_CHUNK_ENTRIES` expanded postings.
        """
        return self._score(shared, records, memo=False)[0]

    def rescore(
        self, shared: TokenIndex, records: Sequence[Record]
    ) -> tuple[list[tuple[CandidatePair, ...]], tuple[np.ndarray, TopNMemo] | None]:
        """:meth:`owned_candidates` plus the records' :class:`TopNMemo` rows.

        The same scoring pass: the ceilings come from each record's full
        score list, which the scorer holds anyway.  Returns the owned tuples
        and ``(rows, memo)`` for :meth:`note_rescored`.
        """
        return self._score(shared, records, memo=True)

    def _score(
        self, shared: TokenIndex, records: Sequence[Record], memo: bool
    ) -> tuple[list[tuple[CandidatePair, ...]], tuple[np.ndarray, TopNMemo] | None]:
        if not records:
            return [], None
        record_ids = [record.record_id for record in records]
        owned: list[tuple[CandidatePair, ...]] = []
        pieces: list[tuple[np.ndarray, TopNMemo]] = []
        for start, stop, rows, tokens, tokens_per_query in _query_chunks(shared, record_ids):
            chunk_owned, piece = self._score_chunk(
                shared, record_ids[start:stop], rows, tokens, tokens_per_query, memo
            )
            owned.extend(chunk_owned)
            if piece is not None:
                pieces.append((rows, piece))
        if not memo:
            return owned, None
        return owned, (
            np.concatenate([rows for rows, _ in pieces]),
            TopNMemo(
                tops=np.concatenate([piece.tops for _, piece in pieces]),
                ceilings=np.concatenate([piece.ceilings for _, piece in pieces]),
            ),
        )

    def _score_chunk(
        self,
        index: TokenIndex,
        record_ids: list[str],
        rows: np.ndarray,
        tokens: np.ndarray,
        tokens_per_query: np.ndarray,
        memo: bool,
    ) -> tuple[list[tuple[CandidatePair, ...]], TopNMemo | None]:
        """Owned candidates of one chunk of queries, and their memo rows if
        ``memo``."""
        scored = _pair_scores(index, rows, tokens, tokens_per_query, entries=memo)
        order = np.lexsort((index.rank[scored[1]], -scored[2], scored[0]))
        query, candidate, scores = scored[0][order], scored[1][order], scored[2][order]
        position = np.arange(len(query)) - np.searchsorted(query, query)
        top = position < self.top_n
        owner, other = query[top], candidate[top]

        # canonical_edge order: the candidate comes first iff its id sorts
        # before the query's.
        candidate_first = index.rank[other] < index.rank[rows[owner]]
        ids = index.ids
        name = self.name
        pairs = [
            CandidatePair(ids[other_row], record_ids[owner_row], name)
            if first
            else CandidatePair(record_ids[owner_row], ids[other_row], name)
            for owner_row, other_row, first in zip(
                owner.tolist(), other.tolist(), candidate_first.tolist()
            )
        ]
        ends = _offsets(np.bincount(owner, minlength=len(rows))).tolist()
        owned = [tuple(pairs[begin:end]) for begin, end in zip(ends, ends[1:])]
        if not memo:
            return owned, None

        tops = np.full((len(rows), self.top_n), -1, dtype=np.int32)
        tops[owner, position[top]] = other
        nth = np.full(len(rows), np.nan)
        at_nth = np.flatnonzero(position == self.top_n - 1)
        nth[query[at_nth]] = scores[at_nth]
        below = np.flatnonzero(~top)
        differs = scores[below] != nth[query[below]]
        if not differs.all():
            # Lower candidates tied with the n-th: compare shared-token sets.
            inverse, entry_token = scored[3], scored[4]
            tied = order[below[~differs]]
            differs[~differs] = _sets_differ(
                scored[0], inverse, entry_token, order[at_nth], tied, len(index.tokens)
            )
        ceilings = np.full(len(rows), -np.inf)
        kept = below[differs]
        np.maximum.at(ceilings, query[kept], scores[kept])
        return owned, TopNMemo(tops=tops, ceilings=ceilings)

    def _tokens(self, record: Record) -> set[str]:
        tokens: set[str] = set()
        for attribute in self.attributes:
            value = getattr(record, attribute, None)
            if not value:
                continue
            tokens.update(
                token
                for token in word_tokenize(str(value))
                if len(token) >= self.min_token_length
            )
        return tokens
