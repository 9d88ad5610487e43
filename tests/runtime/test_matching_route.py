"""Pairwise matching has one route: every matcher, every engine, one oracle.

``PipelineRuntime.run_matching`` prepares the matcher's profiles once,
scores ``batch_size`` chunks of id pairs through ``score_profiled`` and
returns a lazy :class:`~repro.matching.decisions.DecisionVector`.  Whatever
the matcher (vectorised over a profile store, or riding the base-class
record adapter) and whatever the engine, the result must equal
``matcher.decide`` on the candidates' record pairs byte for byte — the
record-pair API is the differential-test oracle for the single route.
"""

import pickle

import numpy as np
import pytest

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.core.cleanup import CleanupConfig
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.core.precleanup import PreCleanupConfig
from repro.core.stages import apply_pre_cleanup
from repro.datagen import GenerationConfig, generate_benchmark
from repro.matching import (
    IdOverlapMatcher,
    LogisticRegressionMatcher,
    ThresholdNameMatcher,
    TransformerPairClassifier,
)
from repro.matching.base import PairwiseMatcher
from repro.matching.decisions import DecisionVector
from repro.matching.pairs import as_record_pairs, build_labeled_pairs
from repro.runtime import PipelineRuntime, RuntimeConfig, StageProfiler, chunked

#: Engine chunk size; a multiple of the transformer's internal batch size, so
#: the transformer sees the same forward-pass shapes as one whole-list call.
BATCH_SIZE = 32


@pytest.fixture(scope="module")
def setup():
    benchmark = generate_benchmark(
        GenerationConfig(num_entities=40, num_sources=4, seed=7,
                         acquisition_rate=0.05, merger_rate=0.05)
    )
    companies = benchmark.companies
    pairs = build_labeled_pairs(companies, negative_ratio=3, seed=0)
    record_pairs, labels = as_record_pairs(pairs)
    matcher = LogisticRegressionMatcher(num_iterations=80).fit(record_pairs, labels)
    blocking = CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)])
    candidates = blocking.candidate_pairs(companies)
    return companies, matcher, blocking, candidates, (record_pairs, labels)


@pytest.fixture(scope="module")
def matchers(setup):
    """Every registered matcher kind: two vectorised over a profile store,
    two on the base-class record adapter."""
    _, logistic, _, _, (record_pairs, labels) = setup
    transformer = TransformerPairClassifier(
        attributes=["name", "city", "country_code"],
        max_tokens=32,
        embedding_dim=8,
        hidden_dim=16,
        num_blocks=1,
        num_epochs=1,
        batch_size=16,
        vocab_size=500,
        seed=0,
    ).fit(record_pairs, labels)
    return {
        "logistic": logistic,
        "threshold": ThresholdNameMatcher(similarity_threshold=0.9),
        "id-overlap": IdOverlapMatcher(),
        "transformer": transformer,
    }


KINDS = ["logistic", "threshold", "id-overlap", "transformer"]

#: Matchers whose probabilities do not depend on how the pairs are batched
#: (row-local arithmetic); the transformer's forward passes see the batch
#: shape and are excluded.
SHAPE_FREE_KINDS = ["logistic", "threshold", "id-overlap"]


def run_matching(companies, matcher, candidates, batch_size=BATCH_SIZE, **config):
    with PipelineRuntime(RuntimeConfig(batch_size=batch_size, **config)) as runtime:
        return runtime.run_matching(matcher, companies, candidates)


def record_pairs_of(companies, candidates):
    return [
        (companies.record(c.left_id), companies.record(c.right_id)) for c in candidates
    ]


def oracle(companies, matcher, candidates):
    return matcher.decide(record_pairs_of(companies, candidates))


def chunked_oracle(companies, matcher, candidates, batch_size):
    """``decide`` on each engine chunk in turn: the oracle at the exact batch
    shapes the engine scores with."""
    return [
        decision
        for chunk in chunked(record_pairs_of(companies, candidates), batch_size)
        for decision in matcher.decide(chunk)
    ]


CONFIGS = [
    pytest.param({"workers": 1}, id="serial"),
    pytest.param({"workers": 2, "executor": "thread"}, id="thread"),
    pytest.param({"workers": 2, "executor": "process"}, id="process"),
]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("kind", KINDS)
def test_run_matching_equals_decide(setup, matchers, kind, config):
    companies, _, _, candidates, _ = setup
    matcher = matchers[kind]
    decisions = run_matching(companies, matcher, candidates, **config)
    expected = oracle(companies, matcher, candidates)
    assert isinstance(decisions, DecisionVector)
    # Element-wise dataclass equality covers ids, verdicts and exact
    # probabilities; the explicit lists make a failure readable.
    assert decisions == expected
    assert [d.probability for d in decisions] == [d.probability for d in expected]
    assert [d.is_match for d in decisions] == [d.is_match for d in expected]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("batch_size", [1, 5, 10_000])
@pytest.mark.parametrize("kind", KINDS)
def test_run_matching_equals_decide_per_chunk(setup, matchers, kind, batch_size, config):
    # One pair per task, an odd chunk size with a ragged tail, and one chunk
    # holding every candidate: the engine's output is the concatenation of
    # decide() over its own chunks, whatever the engine.
    companies, _, _, candidates, _ = setup
    matcher = matchers[kind]
    decisions = run_matching(companies, matcher, candidates, batch_size, **config)
    assert isinstance(decisions, DecisionVector)
    assert decisions == chunked_oracle(companies, matcher, candidates, batch_size)


@pytest.mark.parametrize("kind", SHAPE_FREE_KINDS)
def test_probabilities_do_not_depend_on_the_chunk_size(setup, matchers, kind):
    companies, _, _, candidates, _ = setup
    matcher = matchers[kind]
    expected = oracle(companies, matcher, candidates)
    for batch_size in (1, 7, BATCH_SIZE, 10_000):
        assert run_matching(companies, matcher, candidates, batch_size) == expected


@pytest.mark.parametrize("kind", KINDS)
class TestTwoPhaseContract:
    """``score_profiled(prepare_profiles(records), ids)`` is ``predict_proba``
    on the same pairs, for overriding matchers and the base adapter alike."""

    def test_score_profiled_equals_predict_proba(self, setup, matchers, kind):
        companies, _, _, candidates, _ = setup
        matcher = matchers[kind]
        profiles = matcher.prepare_profiles(companies.records)
        id_pairs = [(c.left_id, c.right_id) for c in candidates]
        scores = matcher.score_profiled(profiles, id_pairs)
        assert scores.dtype == np.float64
        assert scores.shape == (len(candidates),)
        assert scores.tolist() == matcher.predict_proba(
            record_pairs_of(companies, candidates)
        )

    def test_empty_chunk_scores_to_an_empty_vector(self, setup, matchers, kind):
        companies, _, _, _, _ = setup
        matcher = matchers[kind]
        scores = matcher.score_profiled(matcher.prepare_profiles(companies.records), [])
        assert scores.dtype == np.float64
        assert scores.shape == (0,)

    def test_profiles_score_identically_after_pickling(self, setup, matchers, kind):
        # Process workers receive the profiles pickled; shipping them must
        # not change a single bit.
        companies, _, _, candidates, _ = setup
        matcher = matchers[kind]
        profiles = matcher.prepare_profiles(companies.records)
        shipped = pickle.loads(pickle.dumps(profiles))
        id_pairs = [(c.left_id, c.right_id) for c in candidates]
        assert np.array_equal(
            matcher.score_profiled(shipped, id_pairs),
            matcher.score_profiled(profiles, id_pairs),
        )


def test_pre_cleanup_mask_fast_path_equals_list_path(setup):
    companies, matcher, _, candidates, _ = setup
    pre_config = PreCleanupConfig(max_component_size=30)
    vector = run_matching(companies, matcher, candidates)
    assert (
        apply_pre_cleanup(vector, candidates, pre_config)
        == apply_pre_cleanup(oracle(companies, matcher, candidates), candidates, pre_config)
    )


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("kind", KINDS)
def test_pipeline_decisions_equal_decide(setup, matchers, kind, config):
    companies, _, blocking, _, _ = setup
    matcher = matchers[kind]
    pipeline = EntityGroupMatchingPipeline(
        matcher=matcher,
        blocking=blocking,
        cleanup_config=CleanupConfig.for_num_sources(4),
        pre_cleanup_config=PreCleanupConfig(max_component_size=30),
        # A multiple of the transformer's internal batch size, like BATCH_SIZE.
        runtime=RuntimeConfig(batch_size=64, **config),
    )
    with pipeline:
        result = pipeline.run(companies)
    assert isinstance(result.decisions, DecisionVector)
    assert result.decisions == oracle(companies, matcher, result.candidates)


class TestDecisionVector:
    def make(self):
        pairs = [("a", "b"), ("c", "d"), ("e", "f")]
        probabilities = np.array([0.9, 0.2, 0.5], dtype=np.float64)
        return DecisionVector(pairs, probabilities, threshold=0.5)

    def test_sequence_protocol(self):
        vector = self.make()
        assert len(vector) == 3
        assert vector[0].pair == ("a", "b")
        assert vector[0].probability == 0.9
        assert vector[0].is_match is True
        assert vector[1].is_match is False
        assert vector[2].is_match is True  # >= threshold, like decide()
        assert vector[-1] == vector[2]
        assert vector[1:] == [vector[1], vector[2]]
        assert [d.left_id for d in vector] == ["a", "c", "e"]

    def test_equality_against_lists_both_directions(self):
        vector = self.make()
        materialised = list(vector)
        assert vector == materialised
        assert materialised == vector
        assert vector != materialised[:2]
        assert vector != [*materialised[:2], vector[0]]

    def test_positive_pairs_matches_object_filter(self):
        vector = self.make()
        assert vector.positive_pairs() == [
            decision.pair for decision in vector if decision.is_match
        ]

    def test_explicit_mask_overrides_threshold(self):
        vector = DecisionVector(
            [("a", "b")], np.array([0.9]), is_match=np.array([False])
        )
        assert vector[0].is_match is False
        assert vector.positive_pairs() == []

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(ValueError):
            DecisionVector([("a", "b")], np.zeros(2), threshold=0.5)
        with pytest.raises(ValueError):
            DecisionVector([("a", "b")], np.zeros(1))  # no threshold, no mask

    def test_empty_vector(self):
        vector = DecisionVector([], np.zeros(0), threshold=0.5)
        assert len(vector) == 0
        assert vector == []
        assert list(vector) == []
        assert vector.positive_pairs() == []
        assert vector.is_match_mask.shape == (0,)

    def test_mask_is_probability_at_or_above_threshold(self):
        mask = self.make().is_match_mask
        assert mask.dtype == bool
        assert mask.tolist() == [True, False, True]

    def test_probabilities_are_coerced_to_float64(self):
        vector = DecisionVector([("a", "b"), ("c", "d")], [1, 0], threshold=0.5)
        assert vector.probabilities.dtype == np.float64
        assert vector[0].probability == 1.0
        assert vector[1].is_match is False

    def test_materialised_fields_are_plain_python_types(self):
        decision = self.make()[0]
        assert type(decision.probability) is float
        assert type(decision.is_match) is bool

    def test_vectors_compare_by_pairs_probabilities_and_verdicts(self):
        vector = self.make()
        assert vector == self.make()
        shifted = DecisionVector(vector.pairs, vector.probabilities + 1e-12, threshold=0.5)
        assert vector != shifted
        renamed = DecisionVector(
            [("a", "b"), ("c", "d"), ("e", "g")], vector.probabilities, threshold=0.5
        )
        assert vector != renamed
        stricter = DecisionVector(vector.pairs, vector.probabilities, threshold=0.6)
        assert vector != stricter

    def test_equality_against_tuples(self):
        vector = self.make()
        assert vector == tuple(vector)
        assert vector != tuple(vector)[:1]

    def test_unrelated_objects_are_not_equal(self):
        vector = self.make()
        assert vector != 3
        assert vector != "decisions"
        assert vector != {"pairs": vector.pairs}

    def test_stepped_slice(self):
        vector = self.make()
        assert vector[::2] == [vector[0], vector[2]]
        assert vector[::-1] == [vector[2], vector[1], vector[0]]

    def test_out_of_range_index_raises(self):
        vector = self.make()
        with pytest.raises(IndexError):
            vector[3]
        with pytest.raises(IndexError):
            vector[-4]


class TestMechanics:
    def test_chunk_items_record_pair_counts(self, setup):
        companies, matcher, _, candidates, _ = setup
        profiler = StageProfiler()
        with PipelineRuntime(RuntimeConfig(batch_size=BATCH_SIZE)) as runtime:
            runtime.run_matching(matcher, companies, candidates, profiler)
        items = profiler.chunk_items("pairwise_matching")
        assert sum(items) == len(candidates)
        assert all(count <= BATCH_SIZE for count in items)
        throughput = profiler.chunk_throughput("pairwise_matching")
        assert len(throughput) == len(items)
        assert all(t is None or t > 0 for t in throughput)
        assert profiler.stage_throughput("pairwise_matching") > 0

    def test_precomputed_id_pairs_short_circuit(self, setup):
        companies, matcher, _, candidates, _ = setup
        id_pairs = [(c.left_id, c.right_id) for c in candidates]
        with PipelineRuntime(RuntimeConfig(batch_size=BATCH_SIZE)) as runtime:
            direct = runtime.run_matching(matcher, companies, candidates)
            precomputed = runtime.run_matching(
                matcher, companies, candidates, id_pairs=id_pairs
            )
        assert direct == precomputed

    def test_misaligned_id_pairs_rejected(self, setup):
        companies, matcher, _, candidates, _ = setup
        with PipelineRuntime(RuntimeConfig(batch_size=BATCH_SIZE)) as runtime:
            with pytest.raises(ValueError):
                runtime.run_matching(
                    matcher, companies, candidates, id_pairs=[("a", "b")]
                )

    def test_empty_candidates_return_an_empty_vector(self, setup):
        companies, matcher, _, _, _ = setup
        decisions = run_matching(companies, matcher, [])
        assert isinstance(decisions, DecisionVector)
        assert decisions == []

    def test_prepare_profiles_called_once_per_run(self, setup):
        companies, _, _, candidates, _ = setup

        class CountingMatcher(ThresholdNameMatcher):
            prepare_calls = 0

            def prepare_profiles(self, records):
                type(self).prepare_calls += 1
                return super().prepare_profiles(records)

        matcher = CountingMatcher(similarity_threshold=0.9)
        decisions = run_matching(companies, matcher, candidates)
        assert len(decisions) == len(candidates)
        # batch_size=32 means many chunks, but the store is prepared once.
        assert CountingMatcher.prepare_calls == 1

    def test_base_adapter_maps_ids_to_records(self, setup):
        companies, _, _, _, _ = setup

        class Plain(PairwiseMatcher):
            def predict_proba(self, pairs):
                return [0.25 for _ in pairs]

        records = companies.records[:3]
        profiles = Plain().prepare_profiles(records)
        assert profiles == {record.record_id: record for record in records}
        scores = Plain().score_profiled(
            profiles, [(records[0].record_id, records[1].record_id)]
        )
        assert scores.dtype == np.float64
        assert scores.tolist() == [0.25]
