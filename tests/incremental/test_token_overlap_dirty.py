"""Token-overlap dirty sets against full rescoring.

``TokenOverlapBlocking.delta_update`` dirties only the pre-existing records
whose top n can change, using the :class:`TopNMemo` that ``rescore`` leaves
on the index.  The oracle is the rule it replaced: every tokenised record is
dirty whenever a tokenised record arrives, which is full rescoring.  After
every batch of a stream, every stored owned tuple must equal full
rescoring under the updated index.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import TokenOverlapBlocking
from repro.blocking.token_overlap import _carried, _cell_tokens, _contiguous_cells
from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.records import CompanyRecord, Dataset


def company(record_id, source, name):
    return CompanyRecord(
        record_id=record_id, source=source, entity_id=record_id, name=name
    )


def oracle_dirty(blocking, shared, new_records):
    """The rule the memo replaced: every tokenised record, on any
    tokenised arrival."""
    if not any(blocking._tokens(record) for record in new_records):
        return frozenset()
    return frozenset(
        record_id
        for record_id, num_tokens in zip(shared.ids, np.diff(shared.token_offsets))
        if num_tokens
    )


def ingest_stream(blocking, batches, reload_after=(), spans=1):
    """Drive the blocking the way the incremental matcher does.

    Yields ``(dataset, shared, owned, dirty, old_shared)`` after each batch:
    the full dataset so far, the part state after folding the rescore notes
    in, the stored record -> owned tuple map, the batch's dirty ids and the
    part state before the batch.  After the batches in ``reload_after`` the
    part state goes through a pickle round trip, as a saved state does.
    """
    records = []
    shared = None
    owned = {}
    for index, batch in enumerate(batches):
        records.extend(batch)
        dataset = Dataset("stream", list(records))
        old_shared = shared
        if shared is None:
            shared = blocking.prepare(dataset)
            dirty = frozenset()
            rescore = list(records)
        else:
            delta = blocking.delta_update(shared, dataset, batch)
            shared, dirty = delta.shared, delta.dirty_record_ids
            new_ids = {record.record_id for record in batch}
            rescore = [
                record
                for record in records
                if record.record_id in dirty or record.record_id in new_ids
            ]
        notes = []
        size = max(1, -(-len(rescore) // spans))
        for start in range(0, len(rescore), size):
            span = rescore[start:start + size]
            lists, note = blocking.rescore(shared, span)
            owned.update(zip((record.record_id for record in span), lists))
            notes.append(note)
        shared = blocking.note_rescored(shared, notes)
        if index in reload_after:
            shared = pickle.loads(pickle.dumps(shared))
        yield dataset, shared, owned, dirty, old_shared


def assert_equals_full_rescoring(blocking, dataset, shared, owned):
    assert shared == blocking.prepare(dataset)
    expected = blocking.owned_candidates(shared, dataset.records)
    stored = [owned[record.record_id] for record in dataset.records]
    assert stored == expected


WORDS = ("acme", "beta", "crowd", "strike", "nova", "inc")


@st.composite
def streams(draw):
    """Small corpora with heavy token reuse, cut into batches.

    Names draw from six words, so equal scores between different shared
    token sets are common; some records are token-less; ids sort
    independently of arrival order.
    """
    num_sources = draw(st.integers(min_value=2, max_value=4))
    ids = draw(
        st.lists(
            st.text(alphabet="abAB#19", min_size=1, max_size=4),
            min_size=2,
            max_size=40,
            unique=True,
        )
    )
    records = []
    for record_id in ids:
        words = draw(st.lists(st.sampled_from(WORDS), max_size=4))
        if draw(st.booleans()) and not words:
            words = ["x"]  # shorter than min_token_length: no tokens
        source = f"S{draw(st.integers(min_value=0, max_value=num_sources - 1))}"
        records.append(company(record_id, source, " ".join(words)))
    cuts = sorted(
        draw(st.sets(st.integers(min_value=1, max_value=len(records) - 1), max_size=12))
    )
    bounds = [0, *cuts, len(records)]
    batches = [records[start:stop] for start, stop in zip(bounds, bounds[1:])]
    reload_after = draw(st.sets(st.integers(min_value=0, max_value=len(batches) - 1)))
    return batches, reload_after


@settings(max_examples=300, deadline=None)
@given(
    stream=streams(),
    top_n=st.integers(min_value=1, max_value=5),
    max_token_frequency=st.sampled_from((0.2, 0.3, 0.45, 1.0)),
    spans=st.sampled_from((1, 3)),
)
def test_every_batch_equals_full_rescoring(stream, top_n, max_token_frequency, spans):
    batches, reload_after = stream
    blocking = TokenOverlapBlocking(top_n=top_n, max_token_frequency=max_token_frequency)
    for dataset, shared, owned, dirty, old_shared in ingest_stream(
        blocking, batches, reload_after, spans
    ):
        assert_equals_full_rescoring(blocking, dataset, shared, owned)
        if old_shared is not None:
            new_ids = {record.record_id for record in dataset.records} - set(
                old_shared.ids
            )
            batch = [record for record in dataset.records if record.record_id in new_ids]
            assert dirty <= oracle_dirty(blocking, old_shared, batch)


def cell_lists(cells):
    """Each memo cell's shared tokens, as lists."""
    starts, lengths, pool = cells
    return [pool[start:start + length].tolist() for start, length in zip(
        starts.ravel().tolist(), lengths.ravel().tolist()
    )]


def assert_cells_are_fresh(shared):
    """The memo's kept cells equal cells computed afresh from the index."""
    fresh = _contiguous_cells(*_cell_tokens(
        shared, np.arange(len(shared.ids)), shared.memo.tops, _carried(shared)
    ))
    assert cell_lists(shared.memo.shared) == cell_lists(fresh)


@settings(max_examples=200, deadline=None)
@given(
    stream=streams(),
    top_n=st.integers(min_value=1, max_value=5),
    max_token_frequency=st.sampled_from((0.2, 0.3, 0.45, 1.0)),
    spans=st.sampled_from((1, 3)),
)
def test_the_memo_cells_carried_between_batches_are_recomputed_ones(
    stream, top_n, max_token_frequency, spans
):
    # The memo keeps each top candidate's shared tokens from batch to batch;
    # a pickle drops them and the next batch recomputes them.  Both must
    # give the same dirty sets and memos, and the kept cells must equal
    # cells computed afresh.
    batches, _ = stream
    blocking = TokenOverlapBlocking(top_n=top_n, max_token_frequency=max_token_frequency)
    kept = ingest_stream(blocking, batches, spans=spans)
    dropped = ingest_stream(blocking, batches, reload_after=range(len(batches)), spans=spans)
    for (_, ours, _, our_dirty, _), (_, theirs, _, their_dirty, _) in zip(kept, dropped):
        assert our_dirty == their_dirty
        assert np.array_equal(ours.memo.tops, theirs.memo.tops)
        assert np.array_equal(ours.memo.ceilings, theirs.memo.ceilings, equal_nan=True)
        if ours.memo.shared is not None:
            assert_cells_are_fresh(ours)


def test_the_memo_cells_stay_exact_through_pool_compaction():
    # One record per batch into a small corpus: each batch appends the
    # rescored rows' cells to the pool, which compacts now and then.
    records = generate_benchmark(
        GenerationConfig(num_entities=20, num_sources=4, seed=13)
    ).companies.records
    batches = [records[:10]] + [[record] for record in records[10:]]
    blocking = TokenOverlapBlocking(top_n=3)
    pools = []
    for dataset, shared, owned, _, _ in ingest_stream(blocking, batches):
        assert_equals_full_rescoring(blocking, dataset, shared, owned)
        if shared.memo.shared is not None:
            assert_cells_are_fresh(shared)
            pools.append(len(shared.memo.shared[2]))
    assert any(later < earlier for earlier, later in zip(pools, pools[1:]))


def flip_without_a_candidate_case():
    """``r``'s best candidate is ``a`` until three S1 "alpha" records make
    "alpha" common; by then ``x``, which arrived one batch earlier below
    ``a``, outscores it.  The second batch brings ``r`` no candidate (S1 is
    ``r``'s own source): only the ceiling that ``x`` raised catches it."""
    prefix = [
        company("r", "S1", "alpha beta gamma"),
        company("a", "S2", "alpha"),
        *(company(f"f{index:02d}", "S1", "beta gamma") for index in range(24)),
    ]
    letters = "abcdefghijklmnopqrstuvwxyz"
    prefix += [
        company(f"p{index:02d}", "S3", f"pad{letters[index // 26]}{letters[index % 26]}")
        for index in range(100 - len(prefix))
    ]
    first = [company("x", "S2", "beta gamma")]
    second = [company(f"s{index}", "S1", "alpha") for index in range(3)]
    return [prefix, first, second]


def test_owned_pair_flips_in_a_batch_that_brings_no_candidate():
    blocking = TokenOverlapBlocking(top_n=1, max_token_frequency=1.0, attributes=("name",))
    owned_by_r = []
    dirty_sets = []
    for dataset, shared, owned, dirty, _ in ingest_stream(
        blocking, flip_without_a_candidate_case()
    ):
        assert_equals_full_rescoring(blocking, dataset, shared, owned)
        owned_by_r.append([pair.key for pair in owned["r"]])
        dirty_sets.append(dirty)
        if len(dirty_sets) == 2:
            # x scored r below a, so it raised r's ceiling instead.
            row = shared.row_of["r"]
            assert np.isfinite(shared.memo.ceilings[row])
    assert owned_by_r == [[("a", "r")], [("a", "r")], [("r", "x")]]
    assert "r" not in dirty_sets[1]
    assert "r" in dirty_sets[2]


class TestMemoFallback:
    def test_an_index_without_a_memo_dirties_every_tokenised_record(self):
        batches = flip_without_a_candidate_case()
        blocking = TokenOverlapBlocking(top_n=1, max_token_frequency=1.0)
        prefix = Dataset("prefix", batches[0])
        full = Dataset("full", [*batches[0], *batches[1]])
        delta = blocking.delta_update(blocking.prepare(prefix), full, batches[1])
        assert delta.dirty_record_ids == oracle_dirty(
            blocking, blocking.prepare(prefix), batches[1]
        )

    def test_a_stream_narrows_the_dirty_set(self):
        blocking = TokenOverlapBlocking(top_n=1, max_token_frequency=1.0)
        steps = list(ingest_stream(blocking, flip_without_a_candidate_case()))
        _, _, _, first_dirty, old_shared = steps[1]
        oracle = oracle_dirty(blocking, old_shared, flip_without_a_candidate_case()[1])
        assert len(first_dirty) < len(oracle)


@pytest.mark.parametrize("top_n", [1, 3, 5])
def test_generated_stream_equals_full_rescoring(top_n):
    records = generate_benchmark(
        GenerationConfig(num_entities=80, num_sources=4, seed=13)
    ).companies.records
    batches = [records[:150]] + [
        records[start:start + 7] for start in range(150, len(records), 7)
    ]
    blocking = TokenOverlapBlocking(top_n=top_n)
    rescored = 0
    for dataset, shared, owned, dirty, _ in ingest_stream(
        blocking, batches, reload_after={3, 10}
    ):
        assert_equals_full_rescoring(blocking, dataset, shared, owned)
        rescored += len(dirty)
    assert rescored < (len(batches) - 1) * 150 // 2
