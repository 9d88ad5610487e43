"""The token-overlap array scorer against the per-record loop it replaced.

``reference_candidates_for`` is that loop, kept verbatim as the oracle: one
``scores[other_id] += weight`` dictionary walk over every posting of every
token of every record, in the dictionary index the arrays replaced
(:func:`~tests.blocking.reference.dict_index`).  The array scorer must
reproduce it pair for pair, order for order and tag for tag, both per
record (``owned_candidates``) and flattened (``candidates_for``) — at any
chunking.
"""

from __future__ import annotations

import math
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import IdOverlapBlocking, IssuerMatchBlocking, TokenOverlapBlocking
from repro.blocking import token_overlap
from repro.blocking.token_overlap import _chunk_bounds, _pair_scores
from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.records import CompanyRecord, Dataset
from repro.specs import PipelineSpec
from tests.blocking.reference import dict_index


def reference_candidates_for(blocking, shared, records):
    """The per-record dictionary walk (the scorer before arrays)."""
    pairs = []
    for record in records:
        record_id = record.record_id
        tokens = shared.record_tokens[record_id]
        scores: dict[str, float] = defaultdict(float)
        for token in tokens:
            candidates = shared.token_index.get(token, ())
            if not candidates:
                continue
            weight = 1.0 + math.log(
                shared.num_tokenised / shared.document_frequency[token]
            )
            for other_id in candidates:
                if other_id == record_id:
                    continue
                if shared.sources[other_id] == shared.sources[record_id]:
                    continue
                scores[other_id] += weight
        best = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[: blocking.top_n]
        for other_id, _ in best:
            pairs.append(blocking._make_pair(record_id, other_id))
    return pairs


def assert_matches_oracle(blocking, dataset):
    shared = blocking.prepare(dataset)
    reference = dict_index(blocking, dataset)
    records = dataset.records
    expected = [
        tuple(reference_candidates_for(blocking, reference, [record]))
        for record in records
    ]
    assert blocking.owned_candidates(shared, records) == expected
    flat = [pair for owned in expected for pair in owned]
    assert blocking.candidates_for(shared, records) == flat
    return expected


def company(record_id, source, name):
    return CompanyRecord(
        record_id=record_id, source=source, entity_id=record_id, name=name
    )


@pytest.mark.parametrize("seed", [3, 17, 29])
@pytest.mark.parametrize("top_n", [1, 5])
def test_generated_corpora_match_the_oracle(seed, top_n):
    companies = generate_benchmark(
        GenerationConfig(num_entities=300, num_sources=4, seed=seed)
    ).companies
    assert len(companies) > 1000
    expected = assert_matches_oracle(TokenOverlapBlocking(top_n=top_n), companies)
    assert sum(len(owned) for owned in expected) > len(companies) // 2


def test_generated_corpus_chunked_calls_concatenate():
    # The sharded path: consecutive record chunks, one call each.
    companies = generate_benchmark(
        GenerationConfig(num_entities=120, num_sources=3, seed=5)
    ).companies
    blocking = TokenOverlapBlocking(top_n=3)
    shared = blocking.prepare(companies)
    records = companies.records
    expected = reference_candidates_for(blocking, dict_index(blocking, companies), records)
    for size in (1, 7, 64):
        chunked = []
        for start in range(0, len(records), size):
            chunked.extend(blocking.candidates_for(shared, records[start:start + size]))
        assert chunked == expected


WORDS = ("acme", "beta", "crowd", "strike", "street", "holdings", "nova", "inc")


@st.composite
def tied_corpora(draw):
    """Small corpora with heavy ties: names repeat across sources, so equal
    scores are common and the id tie-break decides the top n.  Ids sort
    independently of insertion order."""
    ids = draw(
        st.lists(
            st.text(alphabet="abAB#19", min_size=1, max_size=4),
            min_size=1,
            max_size=24,
            unique=True,
        )
    )
    records = []
    for record_id in ids:
        words = draw(st.lists(st.sampled_from(WORDS), max_size=4))
        source = draw(st.sampled_from(("S0", "S1", "S2")))
        records.append(company(record_id, source, " ".join(words)))
    return Dataset("tied", records)


@settings(max_examples=200, deadline=None)
@given(
    dataset=tied_corpora(),
    top_n=st.integers(min_value=1, max_value=4),
    max_token_frequency=st.sampled_from((0.25, 0.5, 1.0)),
    chunk_entries=st.sampled_from((1, 3, 8, token_overlap.SCORE_CHUNK_ENTRIES)),
)
def test_tied_corpora_match_the_oracle(dataset, top_n, max_token_frequency, chunk_entries):
    blocking = TokenOverlapBlocking(top_n=top_n, max_token_frequency=max_token_frequency)
    with mock.patch.object(token_overlap, "SCORE_CHUNK_ENTRIES", chunk_entries):
        assert_matches_oracle(blocking, dataset)


class TestEdgeCases:
    def test_tokenless_records_own_nothing_and_are_never_candidates(self):
        dataset = Dataset("tokenless", [
            company("a", "S0", "Crowdstrike Holdings"),
            company("b", "S1", ""),
            company("c", "S1", "Crowdstrike"),
            company("d", "S2", "x"),  # below min_token_length: no tokens
        ])
        expected = assert_matches_oracle(
            TokenOverlapBlocking(max_token_frequency=1.0), dataset
        )
        assert expected[1] == () and expected[3] == ()
        assert all(
            "b" not in pair.key and "d" not in pair.key
            for owned in expected
            for pair in owned
        )

    def test_one_source_corpus_has_no_candidates(self):
        dataset = Dataset("one-source", [
            company(f"r{i}", "S0", "Crowdstrike Holdings") for i in range(5)
        ])
        expected = assert_matches_oracle(
            TokenOverlapBlocking(max_token_frequency=1.0), dataset
        )
        assert expected == [()] * 5

    def test_top_n_larger_than_the_candidates(self):
        dataset = Dataset("few", [
            company("a", "S0", "Crowdstrike Holdings"),
            company("b", "S1", "Crowdstrike"),
            company("c", "S2", "Holdings"),
        ])
        expected = assert_matches_oracle(
            TokenOverlapBlocking(top_n=50, max_token_frequency=1.0), dataset
        )
        assert [len(owned) for owned in expected] == [2, 1, 1]

    def test_empty_record_list(self):
        blocking = TokenOverlapBlocking()
        shared = blocking.prepare(Dataset("one", [company("a", "S0", "Acme")]))
        assert blocking.owned_candidates(shared, []) == []
        assert blocking.candidates_for(shared, []) == []

    def test_many_shared_tokens_sum_in_the_loop_order(self):
        # "q" and "a" share twelve tokens whose document frequencies (set by
        # filler records) make the running sum differ in the last bit from
        # numpy's pairwise sum of the same weights.  The scorer must produce
        # the running sum.
        frequencies = [6, 7, 7, 5, 12, 6, 9, 6, 6, 12, 4, 8]
        tokens = [f"tok{letter}{letter}" for letter in "abcdefghijkl"]
        records = [
            company("q", "S0", " ".join(tokens)),
            company("a", "S1", " ".join(tokens)),
        ]
        for filler in range(10):
            carried = [
                token
                for token, frequency in zip(tokens, frequencies)
                if filler < frequency - 2
            ]
            records.append(company(f"f{filler}", "S2", " ".join(carried)))
        dataset = Dataset("long-overlap", records)
        blocking = TokenOverlapBlocking(top_n=3, max_token_frequency=1.0)
        shared = blocking.prepare(dataset)
        reference = dict_index(blocking, dataset)
        weights = [
            1.0 + math.log(reference.num_tokenised / reference.document_frequency[token])
            for token in reference.record_tokens["q"]
        ]
        running = 0.0
        for weight in weights:
            running += weight
        assert running != float(np.sum(np.array(weights)))  # the order matters here

        query_tokens = [shared.token_of[token] for token in reference.record_tokens["q"]]
        query, candidate, scores = _pair_scores(
            shared,
            np.array([shared.row_of["q"]]),
            np.array(query_tokens),
            np.array([len(query_tokens)]),
        )
        (match,) = np.flatnonzero(candidate == shared.row_of["a"])
        assert scores[match] == running
        assert_matches_oracle(blocking, dataset)

    def test_weights_are_math_log_bitwise(self):
        # 21 tokenised records, one token in 20 of them: on common numpy
        # builds 1 + np.log(21 / 20) is one ulp away from 1 + math.log(21 /
        # 20).  The weights must be the per-record walk's math.log values.
        records = [
            company(f"r{i:02d}", f"S{i % 2}", f"common u{chr(97 + i)}x")
            for i in range(20)
        ]
        records.append(company("r20", "S2", "lonely"))
        dataset = Dataset("weights", records)
        blocking = TokenOverlapBlocking(max_token_frequency=1.0)
        shared = blocking.prepare(dataset)
        reference = dict_index(blocking, dataset)
        assert (reference.num_tokenised, reference.document_frequency["common"]) == (21, 20)
        assert (shared.num_tokenised, shared.frequency[shared.token_of["common"]]) == (21, 20)
        expected = [
            1.0 + math.log(reference.num_tokenised / reference.document_frequency[token])
            for token in shared.tokens
        ]
        assert shared.weights.tolist() == expected
        assert_matches_oracle(blocking, dataset)


class TestChunkBounds:
    def test_greedy_bounds(self, monkeypatch):
        monkeypatch.setattr(token_overlap, "SCORE_CHUNK_ENTRIES", 8)
        # 3 + 4 fit; 20 exceeds the bound alone; 1 then 8 would overflow.
        assert _chunk_bounds([3, 4, 20, 1, 8]) == [0, 2, 3, 4, 5]
        assert _chunk_bounds([20, 1]) == [0, 1, 2]
        assert _chunk_bounds([0, 0, 8, 0]) == [0, 4]
        assert _chunk_bounds([]) == [0, 0]

    def test_chunk_boundaries_with_an_oversized_record(self, monkeypatch):
        # "big" carries more postings than the patched bound on its own.
        monkeypatch.setattr(token_overlap, "SCORE_CHUNK_ENTRIES", 8)
        names = ["Acme Beta Nova Crowd Strike", "Acme Beta", "Nova Crowd",
                 "Strike Acme", "Beta Nova", "Crowd Strike Acme"]
        records = [company("big", "S0", names[0])]
        records += [
            company(f"r{i}", f"S{1 + i % 2}", name)
            for i, name in enumerate(names[1:])
        ]
        records += [company("tail", "S1", "Acme")]
        dataset = Dataset("chunks", records)
        blocking = TokenOverlapBlocking(top_n=2, max_token_frequency=1.0)
        reference = dict_index(blocking, dataset)
        big = reference.record_tokens["big"]
        assert sum(len(reference.token_index[token]) for token in big) > 8
        assert_matches_oracle(blocking, dataset)


@pytest.fixture(scope="module")
def small_benchmark():
    return generate_benchmark(
        GenerationConfig(num_entities=60, num_sources=4, seed=41,
                         acquisition_rate=0.04, merger_rate=0.04)
    )


@pytest.mark.parametrize("name, corpus", [
    ("id_overlap", "companies"),
    ("id_overlap", "securities"),
    ("issuer_match", "securities"),
])
def test_default_owned_candidates_is_the_per_record_loop(small_benchmark, name, corpus):
    if name == "issuer_match":
        blocking = IssuerMatchBlocking.from_ground_truth(small_benchmark.companies)
    else:
        blocking = IdOverlapBlocking()
    dataset = getattr(small_benchmark, corpus)
    shared = blocking.prepare(dataset)
    owned = blocking.owned_candidates(shared, dataset.records)
    expected = [
        tuple(blocking.candidates_for(shared, [record])) for record in dataset.records
    ]
    assert owned == expected
    assert any(owned)


class TestParameterValidation:
    def test_bare_string_attributes_rejected(self):
        with pytest.raises(ValueError, match="attributes"):
            TokenOverlapBlocking(attributes="name")

    def test_bare_string_attributes_rejected_from_a_spec(self):
        spec = PipelineSpec.from_dict({
            "blocking": [{"name": "token_overlap", "params": {"attributes": "name"}}],
        })
        with pytest.raises(ValueError, match="attributes"):
            spec.build_blocking()

    def test_attribute_list_from_a_spec_is_stored_as_a_tuple(self, small_benchmark):
        spec = PipelineSpec.from_dict({
            "blocking": [{"name": "token_overlap", "params": {"attributes": ["name"]}}],
        })
        blocking = spec.build_blocking()
        assert blocking.attributes == ("name",)
        companies = small_benchmark.companies
        expected = TokenOverlapBlocking(attributes=("name",)).candidate_pairs(companies)
        assert blocking.candidate_pairs(companies) == expected
        assert expected

    def test_default_attributes_unchanged(self):
        assert TokenOverlapBlocking().attributes == ("name", "title")

    @pytest.mark.parametrize("top_n", [2.5, 3.0, "3", True, False, None])
    def test_non_integer_top_n_rejected(self, top_n):
        with pytest.raises(ValueError, match="top_n"):
            TokenOverlapBlocking(top_n=top_n)

    def test_non_integer_top_n_rejected_from_a_spec(self):
        spec = PipelineSpec.from_dict({
            "blocking": [{"name": "token_overlap", "params": {"top_n": 2.5}}],
        })
        with pytest.raises(ValueError, match="top_n"):
            spec.build_blocking()

    @pytest.mark.parametrize(
        "max_token_frequency", [True, False, "0.3", None, [0.3], complex(0.3)]
    )
    def test_non_real_max_token_frequency_rejected(self, max_token_frequency):
        with pytest.raises(ValueError, match="max_token_frequency must be a real number"):
            TokenOverlapBlocking(max_token_frequency=max_token_frequency)

    @pytest.mark.parametrize("max_token_frequency", [0, 0.0, -0.5, 1.5, float("nan")])
    def test_out_of_range_max_token_frequency_rejected(self, max_token_frequency):
        with pytest.raises(ValueError, match=r"max_token_frequency must be in \(0, 1\]"):
            TokenOverlapBlocking(max_token_frequency=max_token_frequency)

    @pytest.mark.parametrize("max_token_frequency", [1, 0.25, np.float64(0.5)])
    def test_real_max_token_frequency_accepted(self, max_token_frequency):
        blocking = TokenOverlapBlocking(max_token_frequency=max_token_frequency)
        assert blocking.max_token_frequency == max_token_frequency

    @pytest.mark.parametrize("max_token_frequency", [True, "0.3"])
    def test_non_real_max_token_frequency_rejected_from_a_spec(self, max_token_frequency):
        spec = PipelineSpec.from_dict({
            "blocking": [{
                "name": "token_overlap",
                "params": {"max_token_frequency": max_token_frequency},
            }],
        })
        with pytest.raises(ValueError, match="max_token_frequency"):
            spec.build_blocking()
