"""Tests for labelled pair construction and negative sampling."""

import pytest

from repro.matching.pairs import (
    PairSampler,
    as_record_pairs,
    build_labeled_pairs,
    filter_easy_pairs,
)


def _split(pairs):
    return (
        [pair for pair in pairs if pair.label == 1],
        [pair for pair in pairs if pair.label == 0],
    )


class TestPositivePairs:
    def test_all_positive_pairs_are_true_matches(self, companies):
        positives, _ = _split(PairSampler().build(companies))
        assert positives
        assert all(
            companies.is_true_match(pair.left.record_id, pair.right.record_id)
            for pair in positives
        )

    def test_positive_count_matches_ground_truth(self, companies):
        positives, _ = _split(PairSampler().build(companies))
        assert len(positives) == len(companies.true_matches())

    def test_entity_restriction(self, companies):
        entity = next(iter(companies.entity_groups()))
        pairs = PairSampler().build(companies, entity_ids=[entity])
        assert pairs
        assert all(pair.left.entity_id == entity for pair in pairs)


class TestNegativePairs:
    def test_negatives_are_non_matches(self, companies):
        positives, negatives = _split(PairSampler(seed=1).build(companies))
        assert len(negatives) == 5 * len(positives)
        assert all(
            not companies.is_true_match(pair.left.record_id, pair.right.record_id)
            for pair in negatives
        )

    def test_negatives_are_unique(self, companies):
        _, negatives = _split(PairSampler(seed=2).build(companies))
        keys = [pair.key for pair in negatives]
        assert len(keys) == len(set(keys))

    def test_negative_sampling_deterministic(self, companies):
        first = PairSampler(seed=3).sample(companies)
        second = PairSampler(seed=3).sample(companies)
        for name in ("left", "right", "labels"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()

    def test_tiny_dataset_returns_empty(self, companies):
        subset = companies.subset_by_records(companies.records[0].record_id)
        assert len(PairSampler().sample(subset)) == 0
        assert PairSampler().build(subset) == []


class TestBuild:
    def test_ratio_respected(self, companies):
        sampler = PairSampler(negative_ratio=5, seed=0)
        pairs = sampler.build(companies)
        positives = sum(1 for pair in pairs if pair.label == 1)
        negatives = sum(1 for pair in pairs if pair.label == 0)
        assert negatives == pytest.approx(5 * positives, rel=0.05)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            PairSampler(negative_ratio=-1)

    def test_build_labeled_pairs_wrapper(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=2, seed=5)
        assert pairs
        assert {pair.label for pair in pairs} == {0, 1}

    def test_as_record_pairs(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=5)[:10]
        record_pairs, labels = as_record_pairs(pairs)
        assert len(record_pairs) == len(labels) == 10
        assert record_pairs[0][0].record_id == pairs[0].left.record_id


class TestFilterEasyPairs:
    def test_keeps_identifier_matchable_positives(self, securities):
        pairs = build_labeled_pairs(securities, negative_ratio=1, seed=0)
        filtered = filter_easy_pairs(pairs)
        positives = [pair for pair in filtered if pair.label == 1]
        assert positives
        for pair in positives:
            left_ids = set(filter(None, pair.left.identifier_values().values()))
            right_ids = set(filter(None, pair.right.identifier_values().values()))
            assert left_ids & right_ids

    def test_keeps_all_negatives(self, securities):
        pairs = build_labeled_pairs(securities, negative_ratio=1, seed=0)
        filtered = filter_easy_pairs(pairs)
        assert sum(1 for p in filtered if p.label == 0) == sum(
            1 for p in pairs if p.label == 0
        )

    def test_budget_enforced(self, securities):
        pairs = build_labeled_pairs(securities, negative_ratio=1, seed=0)
        filtered = filter_easy_pairs(pairs, max_pairs=20)
        assert len(filtered) <= 20

    def test_budget_breaks_early_on_negatives(self, securities, monkeypatch):
        # Regression: the label == 0 branch used to `continue` past the
        # max_pairs early-exit, so a negatives-heavy stream scanned (and
        # identifier-checked) every remaining pair and relied on a final
        # truncation.  The budget check must now run for every append.
        import repro.matching.pairs as pairs_module

        pairs = build_labeled_pairs(securities, negative_ratio=1, seed=0)
        negatives = [p for p in pairs if p.label == 0]
        positives = [p for p in pairs if p.label == 1]
        assert len(negatives) >= 20 and positives
        stream = negatives + positives

        calls = []
        real_check = pairs_module._pair_matchable_via_identifiers
        monkeypatch.setattr(
            pairs_module,
            "_pair_matchable_via_identifiers",
            lambda left, right: calls.append(1) or real_check(left, right),
        )
        filtered = filter_easy_pairs(stream, max_pairs=20)
        assert filtered == negatives[:20]
        assert not calls, "filled the budget on negatives; positives must not be scanned"

    def test_budget_exact_when_boundary_lands_on_negative(self, securities):
        pairs = build_labeled_pairs(securities, negative_ratio=1, seed=0)
        negatives = [p for p in pairs if p.label == 0]
        filtered = filter_easy_pairs(negatives, max_pairs=7)
        assert filtered == negatives[:7]

    def test_companies_use_security_isins(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=0, seed=0)
        filtered = filter_easy_pairs(pairs)
        # Some positives remain (most groups share security ISINs) but the
        # hard text-only positives are removed.
        assert 0 < len(filtered) <= len(pairs)
