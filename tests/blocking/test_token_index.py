"""The token-overlap index grown batch by batch equals a fresh ``prepare``.

``delta_update`` and ``extend_index`` append each batch to the integer
arrays of :class:`~repro.blocking.token_overlap.TokenIndex`.  After every
batch the result must equal ``prepare`` of the records so far array for
array (weights bitwise), before and after a pickle round trip, and the
index the batch was appended to must still equal ``prepare`` of the records
before it.  A tiny ``max_token_frequency`` makes tokens cross the cutoff
both ways; token-less records and all-token-less batches are drawn too.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import TokenOverlapBlocking
from repro.blocking.token_overlap import TokenIndex
from repro.datagen.records import CompanyRecord, Dataset
from tests.blocking.reference import dict_index


def company(record_id, source, name):
    return CompanyRecord(record_id=record_id, source=source, entity_id=record_id, name=name)


WORDS = ("acme", "beta", "crowd", "strike", "nova", "inc", "holdings")


@st.composite
def streams(draw):
    """Records cut into batches; some records, and some whole batches,
    carry no token."""
    ids = draw(
        st.lists(st.text(alphabet="abAB#19", min_size=1, max_size=4), min_size=1,
                 max_size=30, unique=True)
    )
    records = []
    for record_id in ids:
        words = draw(st.lists(st.sampled_from(WORDS), max_size=4))
        source = draw(st.sampled_from(("S0", "S1", "S2")))
        records.append(company(record_id, source, " ".join(words) or draw(st.sampled_from(("", "x")))))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=len(records)), max_size=8)))
    bounds = [0, *cuts, len(records)]
    batches = [records[start:stop] for start, stop in zip(bounds, bounds[1:])]
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(batches)))
        batches.insert(at, [company(f"#{at}-{n}", "S1", "x") for n in range(3)])
    return batches


def assert_same_index(ours: TokenIndex, theirs: TokenIndex) -> None:
    """Field for field; arrays bitwise, dtype included; lookups too."""
    assert ours == theirs
    for spec in fields(TokenIndex):
        if spec.name == "memo":
            continue
        mine, other = getattr(ours, spec.name), getattr(theirs, spec.name)
        if isinstance(mine, np.ndarray):
            assert mine.dtype == other.dtype and mine.tobytes() == other.tobytes(), spec.name
        else:
            assert mine == other, spec.name


def assert_matches_dict_index(index: TokenIndex, blocking, dataset) -> None:
    """The arrays say what the dictionary index of the oracle says."""
    reference = dict_index(blocking, dataset)
    assert index.ids == list(reference.record_tokens)
    assert index.num_tokenised == reference.num_tokenised
    for row, (record_id, tokens) in enumerate(reference.record_tokens.items()):
        start, stop = index.token_offsets[row], index.token_offsets[row + 1]
        assert [index.tokens[t] for t in index.token_ids[start:stop]] == list(tokens)
        assert index.row_of[record_id] == row
    for number, token in enumerate(index.tokens):
        assert index.frequency[number] == reference.document_frequency[token]
        assert bool(index.survives[number]) == (token in reference.token_index)
        postings = index.postings[index.posting_offsets[number]:index.posting_offsets[number + 1]]
        carriers = [rid for rid, tokens in reference.record_tokens.items() if token in tokens]
        assert [index.ids[row] for row in postings] == carriers
        assert index.weights[number] == 1.0 + math.log(
            reference.num_tokenised / reference.document_frequency[token]
        )
    assert [index.ids[row] for row in np.argsort(index.rank)] == sorted(index.ids)


@settings(max_examples=300, deadline=None)
@given(
    batches=streams(),
    max_token_frequency=st.sampled_from((0.05, 0.2, 0.45, 1.0)),
    index_only=st.booleans(),
)
def test_every_batch_equals_a_fresh_prepare(batches, max_token_frequency, index_only):
    blocking = TokenOverlapBlocking(top_n=2, max_token_frequency=max_token_frequency)
    records = list(batches[0])
    shared = blocking.prepare(Dataset("stream", records))
    for batch in batches[1:]:
        before = Dataset("before", list(records))
        records.extend(batch)
        dataset = Dataset("stream", list(records))
        if index_only:
            grown = blocking.extend_index(shared, dataset, batch)
        else:
            grown = blocking.delta_update(shared, dataset, batch).shared
        fresh = blocking.prepare(dataset)
        assert_same_index(grown, fresh)
        assert_same_index(pickle.loads(pickle.dumps(grown)), fresh)
        # The index the batch was appended to is still the earlier one.
        assert_same_index(shared, blocking.prepare(before))
        shared = grown
    assert_matches_dict_index(shared, blocking, Dataset("stream", records))


def test_tokens_cross_the_cutoff_both_ways():
    # At a 0.5 cutoff "acme" (2 of 3 records) is cut, survives once three
    # records carrying other tokens arrive (2 of 6), and is cut again when
    # three more carry it (5 of 9).
    blocking = TokenOverlapBlocking(top_n=1, max_token_frequency=0.5)
    batches = [
        [company("a", "S0", "acme one"), company("b", "S1", "acme two"),
         company("c", "S2", "three")],
        [company(f"d{n}", "S2", "other") for n in range(3)],
        [company(f"e{n}", "S1", "acme") for n in range(3)],
    ]
    records = list(batches[0])
    shared = blocking.prepare(Dataset("cut", records))
    survival = [bool(shared.survives[shared.token_of["acme"]])]
    for batch in batches[1:]:
        records.extend(batch)
        dataset = Dataset("cut", list(records))
        shared = blocking.delta_update(shared, dataset, batch).shared
        assert_same_index(shared, blocking.prepare(dataset))
        survival.append(bool(shared.survives[shared.token_of["acme"]]))
    assert survival == [False, True, False]

