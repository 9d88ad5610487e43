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

Scoring is set-at-a-time: :meth:`TokenOverlapBlocking.owned_candidates`
turns the index into integer arrays once per call, expands chunks of query
records into (query, candidate, weight) entries and sums, ranks and cuts
them with numpy.  Each score is the same sequence of float additions as a
per-record dictionary walk over the postings, so the candidates do not
depend on how the records are chunked.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter, defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from itertools import chain, repeat

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

    Row-aligned with :attr:`TokenIndex.record_tokens`.  ``tops[row]`` holds
    the rows of the record's owned candidates in rank order, padded with -1
    when it has fewer than ``top_n``.  ``ceilings[row]`` bounds from above
    the score of every lower-ranked candidate whose shared-token set differs
    from the n-th candidate's: ``-inf`` when there is none, NaN when the
    record was never scored on the ingest path.
    """

    tops: np.ndarray
    ceilings: np.ndarray


@dataclass(frozen=True)
class TokenIndex:
    """Prepared state: one global pass over the data.

    Built once by :meth:`TokenOverlapBlocking.prepare`; scoring spans read
    it without touching the dataset again.  Global on purpose: document
    frequencies and the frequency cutoff computed per span would differ
    from the serial run and change per-record top-n selections.
    """

    #: record id -> sorted token tuple, in dataset order.  Sorted (not a
    #: set) so iteration — and therefore the order IDF weights are summed
    #: in — is identical in the parent and in spawn-started pool workers,
    #: where an unpickled set would iterate under a different hash seed and
    #: 1-ULP summation differences could flip top-n boundary candidates.
    record_tokens: dict[str, tuple[str, ...]]
    #: token -> number of tokenised records containing it.
    document_frequency: Counter
    #: token -> record ids containing it (frequency-cutoff survivors only),
    #: in dataset order.
    token_index: dict[str, list[str]]
    #: record id -> source name.
    sources: dict[str, str]
    #: IDF denominator: records with at least one token.  Token-less records
    #: can never be candidates, so counting them would only dilute the IDF
    #: weights and inflate the frequency cutoff.
    num_tokenised: int
    #: The ingest path's per-record top-n memo; None on a prepared index and
    #: on one saved before the memo existed.  Not compared: an index equals
    #: ``prepare(dataset)`` whatever memo it carries.
    memo: TopNMemo | None = field(default=None, compare=False, repr=False)
    #: The index's scoring arrays when :meth:`TokenOverlapBlocking.
    #: delta_update` built them already, so the rescoring that follows does
    #: not build them again.  Never pickled, and dropped by ``replace``.
    arrays: _ScoringArrays | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("arrays", None)
        return state


@dataclass(frozen=True)
class _ScoringArrays:
    """The integer-array form of a :class:`TokenIndex`, built per call.

    Rows follow ``record_tokens`` order, tokens follow ``token_index``
    order; postings are CSR row numbers (token ``t``'s records are
    ``postings[offsets[t]:offsets[t + 1]]``, in dataset order).
    """

    ids: list[str]
    row_of: dict[str, int]
    #: row -> source code.
    source: np.ndarray
    #: row -> rank of its id in ``sorted()`` order, so comparing ranks
    #: compares ids the way Python compares ``str``.
    rank: np.ndarray
    token_of: dict[str, int]
    offsets: np.ndarray
    postings: np.ndarray
    #: token -> IDF weight.
    weights: np.ndarray

    @classmethod
    def build(cls, shared: TokenIndex) -> "_ScoringArrays":
        ids = list(shared.record_tokens)
        row_of = {record_id: row for row, record_id in enumerate(ids)}
        source_codes: dict[str, int] = {}
        source = np.array(
            [
                source_codes.setdefault(shared.sources[record_id], len(source_codes))
                for record_id in ids
            ],
            dtype=np.int64,
        )
        rank = np.empty(len(ids), dtype=np.int64)
        rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))

        token_of: dict[str, int] = {}
        lengths: list[int] = []
        rows: list[int] = []
        weights: list[float] = []
        for token, record_ids in shared.token_index.items():  # repro-lint: disable=unordered-iteration -- insertion-ordered (dataset order); numbers the tokens only, scores follow each query's sorted tokens
            token_of[token] = len(token_of)
            lengths.append(len(record_ids))
            rows.extend(row_of[record_id] for record_id in record_ids)
            # math.log, not np.log: the two differ in the last bit on some
            # inputs, and the weights must equal the per-record walk's.
            weights.append(
                1.0
                + math.log(shared.num_tokenised / shared.document_frequency[token])
            )
        return cls(
            ids=ids,
            row_of=row_of,
            source=source,
            rank=rank,
            token_of=token_of,
            offsets=_offsets(lengths),
            postings=np.array(rows, dtype=np.int64),
            weights=np.array(weights, dtype=np.float64),
        )


def _offsets(counts: Sequence[int] | np.ndarray) -> np.ndarray:
    """CSR offsets: 0, then the running totals of ``counts``."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=offsets[1:])
    return offsets


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
    arrays: _ScoringArrays, shared: TokenIndex, record_ids: Sequence[str]
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, list[int]]]:
    """Split queries into scoring chunks of at most
    :data:`SCORE_CHUNK_ENTRIES` expanded postings.

    Yields ``(start, stop, rows, tokens, tokens_per_query)`` per chunk:
    the chunk's slice of ``record_ids``, their row numbers, and their
    concatenated surviving token numbers in each query's sorted-token order.
    """
    token_of = arrays.token_of
    rows = np.array(
        [arrays.row_of[record_id] for record_id in record_ids], dtype=np.int64
    )
    tokens: list[int] = []
    tokens_per_query: list[int] = []
    for record_id in record_ids:
        before = len(tokens)
        tokens.extend(
            token_of[token]
            for token in shared.record_tokens[record_id]
            if token in token_of
        )
        tokens_per_query.append(len(tokens) - before)
    token_ids = np.array(tokens, dtype=np.int64)
    tokens_at = _offsets(tokens_per_query)
    entries_at = _offsets(np.diff(arrays.offsets)[token_ids])
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
    arrays: _ScoringArrays,
    rows: np.ndarray,
    tokens: np.ndarray,
    tokens_per_query: Sequence[int],
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
    counts = arrays.offsets[tokens + 1] - arrays.offsets[tokens]
    token_query = np.repeat(np.arange(len(rows)), tokens_per_query)
    query = np.repeat(token_query, counts)
    weight = np.repeat(arrays.weights[tokens], counts)
    candidate = arrays.postings[
        np.repeat(arrays.offsets[tokens] - _offsets(counts)[:-1], counts)
        + np.arange(len(query))
    ]
    # A query shares its own source, so this drops self pairs too.
    keep = arrays.source[candidate] != arrays.source[rows[query]]
    query, candidate, weight = query[keep], candidate[keep], weight[keep]

    # np.bincount adds each pair's weights in input order, starting from 0.0:
    # the running sum of a per-record walk.  Segment reductions
    # (np.add.reduceat, np.sum) add pairwise and can differ in the last bit.
    num_rows = len(arrays.ids)
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
) -> tuple[np.ndarray, np.ndarray]:
    """Writable copies of ``memo``'s tops and ceilings over ``num_rows``
    rows; rows the memo lacks get no entry (-1 tops, NaN ceiling)."""
    tops = np.full((num_rows, top_n), -1, dtype=np.int32)
    ceilings = np.full(num_rows, np.nan)
    if memo is not None:
        kept = min(len(memo.ceilings), num_rows)
        tops[:kept] = memo.tops[:kept]
        ceilings[:kept] = memo.ceilings[:kept]
    return tops, ceilings


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
        """Build the inverted token index and document frequencies once."""
        record_tokens = {
            record.record_id: tuple(sorted(self._tokens(record)))
            for record in dataset
        }
        document_frequency: Counter[str] = Counter()
        for tokens in record_tokens.values():  # repro-lint: disable=unordered-iteration -- insertion-ordered (dataset order); counting is order-free
            document_frequency.update(tokens)
        sources = {record.record_id: record.source for record in dataset}
        return self._assemble(record_tokens, document_frequency, sources)

    def _assemble(
        self,
        record_tokens: dict[str, tuple[str, ...]],
        document_frequency: Counter,
        sources: dict[str, str],
    ) -> TokenIndex:
        """Assemble the shared state from per-record tokenisations.

        Shared by :meth:`prepare` and :meth:`delta_update`: everything after
        tokenisation — the IDF denominator, the frequency cutoff and the
        inverted index — is a pure function of ``record_tokens`` (in dataset
        order), so building it here from cached tokenisations is identical
        to a full :meth:`prepare` by construction.
        """
        num_tokenised = sum(1 for tokens in record_tokens.values() if tokens)  # repro-lint: disable=unordered-iteration -- integer count; order-free
        num_tokenised = max(num_tokenised, 1)

        frequency_cutoff = self.max_token_frequency * num_tokenised
        token_index: dict[str, list[str]] = defaultdict(list)
        for record_id, tokens in record_tokens.items():  # repro-lint: disable=unordered-iteration -- insertion-ordered: dataset order, then appended new records
            for token in tokens:
                if document_frequency[token] <= frequency_cutoff:
                    token_index[token].append(record_id)

        return TokenIndex(
            record_tokens=record_tokens,
            document_frequency=document_frequency,
            token_index=dict(token_index),
            sources=sources,
            num_tokenised=num_tokenised,
        )

    def delta_update(
        self, shared: TokenIndex, dataset: Dataset, new_records: Sequence[Record]
    ) -> BlockingDelta:
        """Fold new records in; dirty only the records whose top n can change.

        Tokenisation runs for the new records only; document frequencies
        update incrementally and the inverted index is re-assembled from the
        cached token tuples (a linear pass that cannot be skipped: the IDF
        denominator and the frequency cutoff both move whenever tokenised
        records arrive, which can flip any token's cutoff status).

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
            scorer's own additions, so the scores are bitwise a rescore's;
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
        new_tokens = {
            record.record_id: tuple(sorted(self._tokens(record)))
            for record in new_records
        }
        record_tokens = {**shared.record_tokens, **new_tokens}
        document_frequency: Counter[str] = Counter(shared.document_frequency)
        for tokens in new_tokens.values():  # repro-lint: disable=unordered-iteration -- insertion-ordered (new_records order); counting is order-free
            document_frequency.update(tokens)
        sources = dict(shared.sources)
        for record in new_records:
            sources[record.record_id] = record.source
        updated = self._assemble(record_tokens, document_frequency, sources)

        if not any(new_tokens.values()):
            # No weight, frequency or cutoff moves and no record gains a
            # candidate: nothing is dirty and the memo stays exact.
            return BlockingDelta(shared=replace(updated, memo=shared.memo))
        arrays = _ScoringArrays.build(updated)
        dirty, memo = self._dirty_rows(shared, updated, arrays)
        result = replace(updated, memo=memo)
        object.__setattr__(result, "arrays", arrays)
        old_ids = list(shared.record_tokens)
        return BlockingDelta(
            shared=result,
            dirty_record_ids=frozenset(old_ids[row] for row in np.flatnonzero(dirty)),
        )

    def _dirty_rows(
        self, old: TokenIndex, new: TokenIndex, arrays: _ScoringArrays
    ) -> tuple[np.ndarray, TopNMemo]:
        """Rules (a)-(d) of :meth:`delta_update` over the pre-existing rows.

        Returns the dirty mask of the rows of ``old`` and the memo of those
        rows under the new weights: clean rows keep their tops and get the
        raised ceiling, dirty rows get NaN until their rescore.
        """
        num_old = len(old.record_tokens)
        tops, ceilings = _memo_rows(old.memo, num_old, self.top_n)

        # Each pre-existing record's tokens as (row, token number), in its
        # sorted-token order; -1 marks a token that does not survive now.
        token_lists = old.record_tokens
        token_counts = np.fromiter(map(len, token_lists.values()), np.int64, num_old)
        entry_row = np.repeat(np.arange(num_old), token_counts)
        entry_token = np.fromiter(
            map(arrays.token_of.get, chain.from_iterable(token_lists.values()), repeat(-1)),
            np.int64,
            len(entry_row),
        )

        # The old weight of every token surviving now (NaN where it did not
        # survive before: its records are dirty by rule (a)).
        old_weights = np.array(
            [
                1.0 + math.log(old.num_tokenised / old.document_frequency[token])
                if token in old.token_index
                else np.nan
                for token in arrays.token_of
            ],
            dtype=np.float64,
        )
        survived = ~np.isnan(old_weights)
        rise = np.where(survived, np.maximum(arrays.weights - old_weights, 0.0), 0.0)

        # (a) Cutoff crossings: a token cut from now on, or surviving from now on.
        dirty = np.zeros(num_old, dtype=bool)
        for token in old.token_index:
            if token not in new.token_index:
                dirty[[arrays.row_of[record_id] for record_id in old.token_index[token]]] = True
        surviving = entry_token >= 0
        row_of_surviving = entry_row[surviving]
        token_of_surviving = entry_token[surviving]
        dirty[row_of_surviving[~survived[token_of_surviving]]] = True

        # Each record's surviving tokens: count m and spread.
        survivors = np.bincount(row_of_surviving, minlength=num_old)
        spread = np.bincount(
            row_of_surviving, weights=rise[token_of_surviving], minlength=num_old
        )

        # (b) Recompute every stored top candidate's score: the record's
        # surviving tokens the candidate also carries, in sorted-token order.
        slot_row, slot_rank = np.nonzero(tops >= 0)
        slot_candidate = tops[slot_row, slot_rank].astype(np.int64)
        num_tokens = len(arrays.weights)
        carried = np.sort(row_of_surviving * num_tokens + token_of_surviving)
        lengths = survivors[slot_row]
        starts = _offsets(survivors)[slot_row]
        slot_of_entry = np.repeat(np.arange(len(slot_row)), lengths)
        token = token_of_surviving[
            np.repeat(starts - _offsets(lengths)[:-1], lengths)
            + np.arange(len(slot_of_entry))
        ]
        shared_token = _contains(carried, slot_candidate[slot_of_entry] * num_tokens + token)
        scores = np.full(tops.shape, np.nan)
        scores[slot_row, slot_rank] = np.bincount(
            slot_of_entry[shared_token],
            weights=arrays.weights[token[shared_token]],
            minlength=len(slot_row),
        )
        ranks = arrays.rank[np.maximum(tops, 0)]
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
        new_ids = list(new.record_tokens)[num_old:]
        for _, _, rows, tokens, tokens_per_query in _query_chunks(arrays, new, new_ids):
            query, row, score, inverse, pair_token = _pair_scores(
                arrays, rows, tokens, tokens_per_query, entries=True
            )
            existing = row < num_old
            row = np.where(existing, row, 0)
            above = (score > nth[row]) | (
                (score == nth[row])
                & (arrays.rank[rows[query]] < arrays.rank[nth_candidate[row]])
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
        return dirty, TopNMemo(tops=tops, ceilings=ceilings)

    def note_rescored(
        self, shared: TokenIndex, notes: Sequence[tuple[np.ndarray, TopNMemo] | None]
    ) -> TokenIndex:
        """The index with the memo entries of :meth:`rescore` folded in.

        Rows the notes do not cover keep their entry; rows new to the index
        and not covered get none (NaN), so they fall back to the plain rule.
        """
        tops, ceilings = _memo_rows(shared.memo, len(shared.record_tokens), self.top_n)
        for note in notes:
            if note is not None:
                rows, memo = note
                tops[rows] = memo.tops
                ceilings[rows] = memo.ceilings
        return replace(shared, memo=TopNMemo(tops=tops, ceilings=ceilings))

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
        arrays = shared.arrays or _ScoringArrays.build(shared)
        record_ids = [record.record_id for record in records]
        owned: list[tuple[CandidatePair, ...]] = []
        pieces: list[tuple[np.ndarray, TopNMemo]] = []
        for start, stop, rows, tokens, tokens_per_query in _query_chunks(
            arrays, shared, record_ids
        ):
            chunk_owned, piece = self._score_chunk(
                arrays, record_ids[start:stop], rows, tokens, tokens_per_query, memo
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
        arrays: _ScoringArrays,
        record_ids: list[str],
        rows: np.ndarray,
        tokens: np.ndarray,
        tokens_per_query: list[int],
        memo: bool,
    ) -> tuple[list[tuple[CandidatePair, ...]], TopNMemo | None]:
        """Owned candidates of one chunk of queries, and their memo rows if
        ``memo``."""
        scored = _pair_scores(arrays, rows, tokens, tokens_per_query, entries=memo)
        order = np.lexsort((arrays.rank[scored[1]], -scored[2], scored[0]))
        query, candidate, scores = scored[0][order], scored[1][order], scored[2][order]
        position = np.arange(len(query)) - np.searchsorted(query, query)
        top = position < self.top_n
        owner, other = query[top], candidate[top]

        # canonical_edge order: the candidate comes first iff its id sorts
        # before the query's.
        candidate_first = arrays.rank[other] < arrays.rank[rows[owner]]
        ids = arrays.ids
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
                scored[0], inverse, entry_token, order[at_nth], tied, len(arrays.weights)
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
