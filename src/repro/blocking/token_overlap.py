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
from collections import Counter, defaultdict
from dataclasses import dataclass
from collections.abc import Sequence

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


def _pair_scores(
    arrays: _ScoringArrays,
    rows: np.ndarray,
    tokens: np.ndarray,
    tokens_per_query: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overlap scores of one chunk of queries against every other source.

    ``rows`` are the queries' row numbers and ``tokens`` their concatenated
    surviving token numbers, ``tokens_per_query`` each, in sorted-token
    order.  Returns ``(query, candidate, score)`` sorted by (query position,
    candidate row), one entry per pair with at least one shared token.
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
    return query, candidate, scores


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
        if not 0.0 < max_token_frequency <= 1.0:
            raise ValueError("max_token_frequency must be in (0, 1]")
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
        """Fold new records in, reusing every existing tokenisation.

        The expensive per-record work — attribute tokenisation — runs only
        for the new records; document frequencies update incrementally and
        the inverted index is re-assembled from the cached token tuples (a
        cheap linear pass that cannot be skipped: the IDF denominator and
        the frequency cutoff both move whenever tokenised records arrive,
        which can flip any token's cutoff status).

        Dirtiness is honest about the same global coupling: IDF weights are
        ``1 + log(N / df)``, so adding *any* tokenised record shifts every
        weight non-uniformly and may reorder any record's top-n selection —
        all previously tokenised records are therefore dirty.  Token-less
        new records touch nothing and dirty nothing.
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

        if any(new_tokens.values()):
            dirty = frozenset(
                record_id
                for record_id, tokens in shared.record_tokens.items()
                if tokens
            )
        else:
            dirty = frozenset()
        return BlockingDelta(
            shared=self._assemble(record_tokens, document_frequency, sources),
            dirty_record_ids=dirty,
        )

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
        if not records:
            return []
        arrays = _ScoringArrays.build(shared)
        token_of = arrays.token_of
        record_ids = [record.record_id for record in records]
        rows = np.array(
            [arrays.row_of[record_id] for record_id in record_ids], dtype=np.int64
        )
        # Each query's surviving tokens, in its sorted-token order.
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

        owned: list[tuple[CandidatePair, ...]] = []
        bounds = _chunk_bounds(costs.tolist())
        for start, stop in zip(bounds, bounds[1:]):
            owned.extend(
                self._score_chunk(
                    arrays,
                    record_ids[start:stop],
                    rows[start:stop],
                    token_ids[tokens_at[start]:tokens_at[stop]],
                    tokens_per_query[start:stop],
                )
            )
        return owned

    def _score_chunk(
        self,
        arrays: _ScoringArrays,
        record_ids: list[str],
        rows: np.ndarray,
        tokens: np.ndarray,
        tokens_per_query: list[int],
    ) -> list[tuple[CandidatePair, ...]]:
        """Owned candidates of one chunk of queries."""
        query, candidate, scores = _pair_scores(arrays, rows, tokens, tokens_per_query)
        order = np.lexsort((arrays.rank[candidate], -scores, query))
        query, candidate = query[order], candidate[order]
        top = np.arange(len(query)) - np.searchsorted(query, query) < self.top_n
        query, candidate = query[top], candidate[top]

        # canonical_edge order: the candidate comes first iff its id sorts
        # before the query's.
        candidate_first = arrays.rank[candidate] < arrays.rank[rows[query]]
        ids = arrays.ids
        name = self.name
        pairs = [
            CandidatePair(ids[other], record_ids[owner], name)
            if first
            else CandidatePair(record_ids[owner], ids[other], name)
            for owner, other, first in zip(
                query.tolist(), candidate.tolist(), candidate_first.tolist()
            )
        ]
        ends = _offsets(np.bincount(query, minlength=len(rows))).tolist()
        return [tuple(pairs[begin:end]) for begin, end in zip(ends, ends[1:])]

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
