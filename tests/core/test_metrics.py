"""Tests for pairwise / group scores and the Cluster Purity Score."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.groups import EntityGroups
from repro.core.metrics import (
    CanonicalEdges,
    canonical_edges,
    cluster_purity,
    group_matching_scores,
    pairwise_scores,
)


class TestPairwiseScores:
    def test_perfect_prediction(self):
        truth = [("a", "b"), ("c", "d")]
        scores = pairwise_scores(truth, truth)
        assert scores.precision == 1.0
        assert scores.recall == 1.0
        assert scores.f1 == 1.0

    def test_orientation_is_ignored(self):
        scores = pairwise_scores([("b", "a")], [("a", "b")])
        assert scores.f1 == 1.0

    def test_partial_prediction(self):
        truth = [("a", "b"), ("c", "d"), ("e", "f")]
        predicted = [("a", "b"), ("x", "y")]
        scores = pairwise_scores(predicted, truth)
        assert scores.precision == pytest.approx(0.5)
        assert scores.recall == pytest.approx(1 / 3)
        assert scores.true_positives == 1
        assert scores.false_positives == 1
        assert scores.false_negatives == 2

    def test_empty_prediction(self):
        scores = pairwise_scores([], [("a", "b")])
        assert scores.precision == 0.0
        assert scores.recall == 0.0
        assert scores.f1 == 0.0

    def test_empty_truth_and_prediction(self):
        scores = pairwise_scores([], [])
        assert scores.precision == 1.0
        assert scores.recall == 1.0

    def test_as_row_percentages(self):
        row = pairwise_scores([("a", "b")], [("a", "b")]).as_row()
        assert row == {"precision": 100.0, "recall": 100.0, "f1": 100.0}

    @given(
        st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda e: e[0] != e[1]), max_size=15),
        st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda e: e[0] != e[1]), max_size=15),
    )
    @settings(max_examples=60, deadline=None)
    def test_scores_bounded(self, predicted, truth):
        scores = pairwise_scores(predicted, truth)
        assert 0.0 <= scores.precision <= 1.0
        assert 0.0 <= scores.recall <= 1.0
        assert 0.0 <= scores.f1 <= 1.0
        assert min(scores.precision, scores.recall) <= scores.f1 <= max(
            scores.precision, scores.recall
        ) + 1e-9


class TestClusterPurity:
    def test_pure_groups(self):
        groups = EntityGroups([["a", "b"], ["c", "d"]])
        truth = [("a", "b"), ("c", "d")]
        assert cluster_purity(groups, truth) == pytest.approx(1.0)

    def test_singletons_count_as_pure(self):
        groups = EntityGroups([["a"], ["b"]])
        assert cluster_purity(groups, []) == pytest.approx(1.0)

    def test_mixed_group_penalised(self):
        # One group wrongly merging two entities of two records each:
        # 6 pairs, 2 true -> purity 1/3, weighted by all 4 records.
        groups = EntityGroups([["a1", "a2", "b1", "b2"]])
        truth = [("a1", "a2"), ("b1", "b2")]
        assert cluster_purity(groups, truth) == pytest.approx(1 / 3)

    def test_weighting_by_group_size(self):
        groups = EntityGroups([["a1", "a2"], ["b1", "b2", "c1", "c2"]])
        truth = [("a1", "a2"), ("b1", "b2"), ("c1", "c2")]
        # group 1: purity 1 weight 2; group 2: purity 2/6 weight 4.
        expected = (2 * 1.0 + 4 * (2 / 6)) / 6
        assert cluster_purity(groups, truth) == pytest.approx(expected)

    def test_empty_groups(self):
        assert cluster_purity(EntityGroups([]), []) == 1.0


class TestGroupMatchingScores:
    def test_perfect_grouping(self):
        groups = EntityGroups([["a", "b", "c"]])
        truth = [("a", "b"), ("a", "c"), ("b", "c")]
        scores = group_matching_scores(groups, truth)
        assert scores.f1 == 1.0
        assert scores.cluster_purity == 1.0
        assert scores.num_groups == 1
        assert scores.largest_group == 3

    def test_false_merge_hurts_precision_not_recall(self):
        groups = EntityGroups([["a", "b", "x", "y"]])
        truth = [("a", "b"), ("x", "y")]
        scores = group_matching_scores(groups, truth)
        assert scores.recall == 1.0
        assert scores.precision == pytest.approx(2 / 6)

    def test_split_group_hurts_recall_not_precision(self):
        groups = EntityGroups([["a", "b"], ["c"]])
        truth = [("a", "b"), ("a", "c"), ("b", "c")]
        scores = group_matching_scores(groups, truth)
        assert scores.precision == 1.0
        assert scores.recall == pytest.approx(1 / 3)

    def test_as_row_contains_purity(self):
        groups = EntityGroups([["a", "b"]])
        row = group_matching_scores(groups, [("a", "b")]).as_row()
        assert row["cluster_purity"] == 1.0


def _reference_group_scores(groups, truth):
    """The scores as every pair of every group, oriented one at a time."""
    from repro.graphs.graph import canonical_edge

    truth = {canonical_edge(left, right) for left, right in truth}
    predicted = set()
    weighted, total = 0.0, 0
    for group in groups:
        members = list(group)
        pairs = {
            canonical_edge(left, right)
            for i, left in enumerate(members)
            for right in members[i + 1:]
        }
        predicted |= pairs
        total += len(group)
        weighted += len(group) * (len(pairs & truth) / len(pairs) if pairs else 1.0)
    return predicted, (weighted / total if total else 1.0)


class TestLabels:
    """Groups of any hashable labels score; string scores are unchanged."""

    labels = st.one_of(st.integers(0, 9), st.sampled_from(["a", "b", "c", "10", "2"]))

    @given(
        st.lists(st.sets(labels, min_size=1, max_size=5), max_size=5),
        st.lists(st.tuples(labels, labels), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_mixed_labels_score_like_the_reference(self, raw_groups, raw_truth):
        seen: set = set()
        groups = []
        for group in raw_groups:
            group = group - seen
            seen |= group
            groups.append(group)
        groups = EntityGroups(groups)
        truth = [(left, right) for left, right in raw_truth if left != right]
        predicted, purity = _reference_group_scores(groups, truth)
        assert groups.match_edges() == predicted
        scores = group_matching_scores(groups, truth)
        assert scores.cluster_purity == purity
        assert cluster_purity(groups, truth) == purity
        assert scores == group_matching_scores(groups, canonical_edges(truth))

    def test_a_mixed_group_from_the_cleanup_scores(self):
        from repro.core.cleanup import gralmatch_cleanup

        components, _ = gralmatch_cleanup([(1, "a"), ("a", "b")])
        assert components == [{"a", "b", 1}]
        groups = EntityGroups(components)
        # Mixed pairs are oriented by repr: "'a'" sorts before "1".
        assert groups.match_edges() == {("a", 1), ("b", 1), ("a", "b")}
        scores = group_matching_scores(groups, [("b", "a"), ("a", 1)])
        assert scores.precision == pytest.approx(2 / 3)
        assert scores.recall == 1.0
        assert scores.cluster_purity == pytest.approx(2 / 3)

    def test_string_scores_are_unchanged(self):
        from repro.datagen.config import GenerationConfig
        from repro.datagen.generator import generate_benchmark

        companies = generate_benchmark(
            GenerationConfig(num_entities=60, num_sources=4, seed=3)
        ).companies
        truth = companies.true_matches()
        ids = [record.record_id for record in companies.records]
        groups = EntityGroups([ids[start:start + 3] for start in range(0, len(ids), 3)])
        predicted, purity = _reference_group_scores(groups, truth)
        assert groups.match_edges() == predicted
        scores = group_matching_scores(groups, canonical_edges(truth))
        assert scores.cluster_purity == purity
        assert scores == group_matching_scores(groups, truth)
        assert pairwise_scores(predicted, canonical_edges(truth)) == pairwise_scores(
            predicted, truth
        )

    def test_canonical_edges_orients_once(self):
        edges = canonical_edges([("b", "a"), ("a", "c")])
        assert isinstance(edges, CanonicalEdges)
        assert edges == {("a", "b"), ("a", "c")}
        assert canonical_edges(edges) is edges
