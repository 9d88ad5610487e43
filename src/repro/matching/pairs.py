"""Labelled pair construction for fine-tuning.

Section 5.1.3: models are fine-tuned "with all the positive pairs of each
split" plus "randomly sampled negative pairs with a ratio of 5:1 negative
pairs for each positive one".  Splitting happens along record groups (see
:mod:`repro.evaluation.splits`); this module turns a split's records into the
actual labelled pair list.

The protocol, written as the per-pair loop it was first implemented as:

* positives: every pair ``(a, b)``, ``a`` before ``b``, of each entity's
  record ids sorted, entities in order of first appearance;
* negatives: ``random.Random(seed)``; while fewer than ``len(positives) *
  negative_ratio`` negatives were kept and fewer than ``num_negatives * 20
  + 100`` attempts were made, draw ``left, right = rng.sample(records, 2)``
  and keep the pair unless both records share an entity or the pair (in
  either orientation) was kept before;
* ``random.Random(seed + 1).shuffle(positives + negatives)``.

:class:`PairSampler` computes exactly that sequence on record-row arrays
(:class:`SampledPairs`), with no Python object per pair.  It reads the
draws of CPython's ``random`` as a stream of 32-bit Mersenne Twister words:
``_randbelow(n)`` is ``getrandbits(n.bit_length())`` redrawn while it is at
least ``n``, and each such call of width at most 32 takes the top bits of
one word, while ``getrandbits(32 * k)`` returns ``k`` consecutive words,
least significant first.  So words are drawn in blocks and the calls are
replayed as array operations.  The per-pair loop lives on as the oracle in
``tests/matching/test_sampler_oracle.py``, which pins the two equal.

The reduced "15K"-style training sets of the sensitivity analysis are
obtained with :func:`filter_easy_pairs`, which mirrors the paper: keep only
pairs whose records were not involved in an acquisition and which can be
matched via identifier overlaps, then truncate to a budget.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.datagen.identifiers import identifier_overlap
from repro.datagen.records import CompanyRecord, Dataset, Record, SecurityRecord

#: Largest population ``random.sample(population, 2)`` draws from with its
#: pool branch (``setsize`` for two picks in CPython's ``Random.sample``);
#: larger populations take the set branch this module replays on words.
SAMPLE_POOL_LIMIT = 21

#: Most negative-sampling attempts replayed at once (see ``_negative_draws``).
ATTEMPT_BLOCK = 1 << 20


@dataclass(frozen=True)
class LabeledPair:
    """A training pair: two records and the ground-truth label."""

    left: Record
    right: Record
    label: int  # 1 = match, 0 = non-match

    @property
    def key(self) -> tuple[str, str]:
        left_id, right_id = self.left.record_id, self.right.record_id
        return (left_id, right_id) if left_id <= right_id else (right_id, left_id)


@dataclass(frozen=True, eq=False)
class SampledPairs:
    """Labelled pairs as row arrays into one record list.

    Pair ``i`` is ``(records[left[i]], records[right[i]])`` with label
    ``labels[i]`` (1 = match, 0 = non-match).  ``records`` is a dataset's
    record list, so the rows are also the rows of a
    :class:`~repro.matching.profiles.ProfileStore` prepared from it.
    """

    records: Sequence[Record]
    left: np.ndarray
    right: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, positions: np.ndarray | slice) -> "SampledPairs":
        """The pairs at ``positions``, in that order."""
        return SampledPairs(
            self.records, self.left[positions], self.right[positions], self.labels[positions]
        )

    def id_pairs(self) -> list[tuple[str, str]]:
        ids = np.array([record.record_id for record in self.records], dtype=object)
        return list(zip(ids[self.left].tolist(), ids[self.right].tolist()))

    def labeled_pairs(self) -> list[LabeledPair]:
        records = self.records
        return [
            LabeledPair(records[left], records[right], label)
            for (left, right), label in zip(self._rows(), self.labels.tolist())
        ]

    def filter_easy(self, max_pairs: int | None = None) -> "SampledPairs":
        """The pairs :func:`filter_easy_pairs` keeps, in order."""
        records = self.records
        kept = _easy_positions(
            (
                (records[left], records[right], label)
                for (left, right), label in zip(self._rows(), self.labels.tolist())
            ),
            max_pairs,
        )
        return self.take(np.asarray(kept, dtype=np.int64))

    def _rows(self) -> Iterator[tuple[int, int]]:
        return zip(self.left.tolist(), self.right.tolist())


class PairSampler:
    """Builds positive pairs and samples negatives at a fixed ratio."""

    def __init__(self, negative_ratio: int = 5, seed: int = 0) -> None:
        if negative_ratio < 0:
            raise ValueError("negative_ratio must be non-negative")
        self.negative_ratio = negative_ratio
        self.seed = seed

    def sample(
        self, dataset: Dataset, entity_ids: Iterable[str] | None = None
    ) -> SampledPairs:
        """Positive pairs plus ``negative_ratio`` negatives per positive,
        shuffled, over the records of ``entity_ids`` (all when ``None``).

        The pairs, their orientation and their order are exactly those of
        the loop in the module docstring.
        """
        records = dataset.records
        entity_codes: dict[str, int] = {}
        entities = np.fromiter(
            (entity_codes.setdefault(record.entity_id, len(entity_codes)) for record in records),
            dtype=np.int64,
            count=len(records),
        )
        if entity_ids is None:
            rows = np.arange(len(records), dtype=np.int64)
        else:
            keep = set(entity_ids)
            rows = np.flatnonzero(
                np.fromiter(
                    (record.entity_id in keep for record in records),
                    dtype=np.bool_,
                    count=len(records),
                )
            )

        positive_left, positive_right = _positive_rows(records, entities, rows)
        num_negatives = len(positive_left) * self.negative_ratio
        negative_left = negative_right = np.zeros(0, dtype=np.int64)
        if len(rows) >= 2 and num_negatives:
            first, second = _negative_draws(
                random.Random(self.seed), entities[rows], num_negatives
            )
            negative_left, negative_right = rows[first], rows[second]

        labels = np.zeros(len(positive_left) + len(negative_left), dtype=np.int64)
        labels[: len(positive_left)] = 1
        order = shuffled_order(random.Random(self.seed + 1), len(labels))
        return SampledPairs(
            records,
            np.concatenate((positive_left, negative_left))[order],
            np.concatenate((positive_right, negative_right))[order],
            labels[order],
        )

    def build(self, dataset: Dataset, entity_ids: Iterable[str] | None = None) -> list[LabeledPair]:
        """:meth:`sample` as :class:`LabeledPair` objects."""
        return self.sample(dataset, entity_ids).labeled_pairs()


def _positive_rows(
    records: Sequence[Record], entities: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every within-entity pair of ``rows``: entities in order of first
    appearance, each entity's records by id, pairs in lexicographic order."""
    ids = [record.record_id for record in records]
    id_rank = np.empty(len(ids), dtype=np.int64)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    grouped = rows[np.lexsort((id_rank[rows], entities[rows]))]
    _, sizes = np.unique(entities[grouped], return_counts=True)
    # Each member of a group pairs with every later member of it.
    ends = np.repeat(np.cumsum(sizes), sizes)
    partners = ends - np.arange(len(grouped)) - 1
    first = np.repeat(np.arange(len(grouped)), partners)
    run_starts = np.repeat(np.cumsum(partners) - partners, partners)
    second = first + 1 + (np.arange(len(first)) - run_starts)
    return grouped[first], grouped[second]


def _negative_draws(
    rng: random.Random, entities: np.ndarray, num_negatives: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the kept negatives among ``entities``' records, in order.

    Replays the attempts of the negative-sampling loop: an attempt is kept
    when its records' entities differ and its unordered position pair is
    new among the kept ones, and the loop ends at ``num_negatives`` kept
    pairs or ``num_negatives * 20 + 100`` attempts.  (A dataset's record
    ids are unique, so position pairs stand for the loop's sorted-id keys.)
    Attempts are replayed in blocks that double up to
    :data:`ATTEMPT_BLOCK`, so memory stays bounded when the attempt cap,
    not the count, ends sampling.
    """
    population = len(entities)
    attempts_left = num_negatives * 20 + 100
    draws = _SampleTwoDraws(rng, population)
    firsts: list[np.ndarray] = []
    seconds: list[np.ndarray] = []
    kept_keys = np.zeros(0, dtype=np.int64)
    block = num_negatives + num_negatives // 8 + 64
    while len(kept_keys) < num_negatives and attempts_left:
        count = min(block, attempts_left, ATTEMPT_BLOCK)
        attempts_left -= count
        block *= 2
        first, second = draws.take(count)
        cross = np.flatnonzero(entities[first] != entities[second])
        keys = np.minimum(first, second)[cross] * population + np.maximum(first, second)[cross]
        _, first_seen = np.unique(keys, return_index=True)
        first_seen.sort()
        new = first_seen[~np.isin(keys[first_seen], kept_keys, assume_unique=True)]
        new = new[: num_negatives - len(kept_keys)]
        firsts.append(first[cross[new]])
        seconds.append(second[cross[new]])
        kept_keys = np.concatenate((kept_keys, keys[new]))
    return np.concatenate(firsts), np.concatenate(seconds)


class _SampleTwoDraws:
    """The results of successive ``rng.sample(range(population), 2)`` calls.

    :meth:`take` returns the next ``count`` calls' picks as two position
    arrays.  Populations of at most :data:`SAMPLE_POOL_LIMIT` take the
    pool branch, which this calls directly.  Larger ones take the set
    branch: ``j1 = _randbelow(n)``, then ``j2 = _randbelow(n)`` redrawn
    while it equals ``j1``.  All its draws share one bound, so they are the
    stream of words' top ``n.bit_length()`` bits with values ``>= n``
    dropped, and the calls parse that stream two values at a time; the
    values after the last whole call wait for the next words.
    """

    def __init__(self, rng: random.Random, population: int) -> None:
        self.rng = rng
        self.population = population
        self.first = np.zeros(0, dtype=np.int64)
        self.second = np.zeros(0, dtype=np.int64)
        self.tail = np.zeros(0, dtype=np.int64)

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        while len(self.first) < count:
            missing = count - len(self.first)
            if self.population <= SAMPLE_POOL_LIMIT:
                picks = np.fromiter(
                    chain.from_iterable(
                        self.rng.sample(range(self.population), 2) for _ in range(missing)
                    ),
                    dtype=np.int64,
                    count=2 * missing,
                )
                first, second = picks[0::2], picks[1::2]
            else:
                first, second = self._parse_words(missing)
            self.first = np.concatenate((self.first, first))
            self.second = np.concatenate((self.second, second))
        taken = self.first[:count], self.second[:count]
        self.first, self.second = self.first[count:], self.second[count:]
        return taken

    def _parse_words(self, missing: int) -> tuple[np.ndarray, np.ndarray]:
        population = self.population
        width = population.bit_length()
        # ~2 values per call, 2**width / population words per value.
        words = _words(self.rng, (2 * missing + 16) * (1 << width) // population + 64)
        values = (words >> (32 - width)).astype(np.int64)
        stream = np.concatenate((self.tail, values[values < population]))
        first, second, rest = _two_distinct(stream)
        self.tail = stream[rest:]
        return stream[first], stream[second]


def _two_distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Where each call's two picks sit in a stream of accepted draws, and
    where the first call the stream does not finish starts.

    A call takes ``values[s]`` and then the first later value that differs
    from it; the next call starts after that.  A stream without two equal
    neighbours is read in pairs; each equal neighbour pair found at the
    start of a call shifts the pairing of the rest.
    """
    length = len(values)
    firsts: list[np.ndarray] = []
    seconds: list[np.ndarray] = []
    start = 0
    for repeat in np.flatnonzero(values[1:] == values[:-1]).tolist():
        if repeat < start:
            continue
        clean = np.arange(start, repeat, 2)
        firsts.append(clean)
        seconds.append(clean + 1)
        if (repeat - start) % 2:
            # ``repeat`` is the last clean call's second pick; the equal
            # value after it starts the next call.
            start = repeat + 1
            continue
        redraw = repeat + 1
        while redraw < length and values[redraw] == values[repeat]:
            redraw += 1
        if redraw == length:
            return np.concatenate(firsts), np.concatenate(seconds), repeat
        firsts.append(np.array([repeat]))
        seconds.append(np.array([redraw]))
        start = redraw + 1
    clean = np.arange(start, length - 1, 2)
    firsts.append(clean)
    seconds.append(clean + 1)
    return np.concatenate(firsts), np.concatenate(seconds), start + 2 * len(clean)


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit Mersenne Twister words of ``rng``."""
    return np.frombuffer(
        rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4"
    )


def shuffled_order(rng: random.Random, count: int) -> np.ndarray:
    """The permutation ``rng.shuffle`` applies to a ``count``-item list.

    ``random.Random(s).shuffle(items)`` leaves ``items`` equal to
    ``[items[i] for i in shuffled_order(random.Random(s), len(items))]``.
    ``shuffle`` swaps item ``i`` with item ``_randbelow(i + 1)`` for ``i``
    from the top down, and this replays those draws from word blocks.
    """
    order = list(range(count))
    take = _word_stream(rng, count + count // 2 + 64).__next__
    for i in range(count - 1, 0, -1):
        bound = i + 1
        shift = 32 - bound.bit_length()
        j = take() >> shift
        while j >= bound:
            j = take() >> shift
        order[i], order[j] = order[j], order[i]
    return np.asarray(order, dtype=np.int64)


def _word_stream(rng: random.Random, block: int) -> Iterator[int]:
    while True:
        yield from _words(rng, block).tolist()


def build_labeled_pairs(
    dataset: Dataset,
    entity_ids: Iterable[str] | None = None,
    negative_ratio: int = 5,
    seed: int = 0,
) -> list[LabeledPair]:
    """Convenience wrapper around :class:`PairSampler`."""
    return PairSampler(negative_ratio=negative_ratio, seed=seed).build(dataset, entity_ids)


def filter_easy_pairs(
    pairs: Sequence[LabeledPair],
    max_pairs: int | None = None,
) -> list[LabeledPair]:
    """Keep only "cheaply labelable" pairs, as for DistilBERT (128)-15K.

    A pair is kept when it is a negative, or when it is a positive whose two
    records share at least one identifier (securities) or at least one
    security ISIN (companies) — i.e. pairs that a human labeller could have
    confirmed via identifier codes without reading the text.  Positives whose
    records were involved in data-drift events generally fail this test and
    are discarded, exactly like in the paper's 15K setup.
    """
    return [
        pairs[position]
        for position in _easy_positions(
            ((pair.left, pair.right, pair.label) for pair in pairs), max_pairs
        )
    ]


def _easy_positions(
    pairs: Iterable[tuple[Record, Record, int]], max_pairs: int | None = None
) -> list[int]:
    """Positions of the pairs :func:`filter_easy_pairs` keeps, in order."""
    selected: list[int] = []
    for position, (left, right, label) in enumerate(pairs):
        if label == 0 or _pair_matchable_via_identifiers(left, right):
            selected.append(position)
            if max_pairs is not None and len(selected) >= max_pairs:
                break
    return selected


def _pair_matchable_via_identifiers(left: Record, right: Record) -> bool:
    if isinstance(left, SecurityRecord) and isinstance(right, SecurityRecord):
        return bool(identifier_overlap(left.identifier_values(), right.identifier_values()))
    if isinstance(left, CompanyRecord) and isinstance(right, CompanyRecord):
        return bool(set(left.security_isins) & set(right.security_isins))
    return False


def as_record_pairs(pairs: Sequence[LabeledPair]) -> tuple[list[tuple[Record, Record]], list[int]]:
    """Split labelled pairs into the (pairs, labels) form used by matchers."""
    record_pairs = [(pair.left, pair.right) for pair in pairs]
    labels = [pair.label for pair in pairs]
    return record_pairs, labels
