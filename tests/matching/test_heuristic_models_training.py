"""Tests for heuristic matchers, the model zoo and the fine-tuning harness."""

import pytest

from repro.datagen.records import CompanyRecord, SecurityRecord
from repro.matching import (
    IdOverlapMatcher,
    LogisticRegressionMatcher,
    ThresholdNameMatcher,
    TransformerPairClassifier,
    build_matcher,
)
from repro.matching.models import MODEL_SPECS, ModelSpec
from repro.matching.training import FineTuner
from repro.text.serialize import DittoSerializer


class TestIdOverlapMatcher:
    def test_securities_with_shared_isin_match(self):
        left = SecurityRecord(record_id="a", source="S1", entity_id="e",
                              name="Acme stock", isin="US0378331005")
        right = SecurityRecord(record_id="b", source="S2", entity_id="e",
                               name="Acme shares", isin="US0378331005")
        assert IdOverlapMatcher().predict([(left, right)]) == [True]

    def test_securities_without_overlap_do_not_match(self):
        left = SecurityRecord(record_id="a", source="S1", entity_id="e",
                              name="Acme stock", isin="US0378331005")
        right = SecurityRecord(record_id="b", source="S2", entity_id="e",
                               name="Acme shares", isin="CH0038863350")
        assert IdOverlapMatcher().predict([(left, right)]) == [False]

    def test_companies_match_via_security_isins(self):
        left = CompanyRecord(record_id="a", source="S1", entity_id="e", name="Acme",
                             security_isins=("US0378331005",))
        right = CompanyRecord(record_id="b", source="S2", entity_id="e", name="Acme Inc",
                              security_isins=("US0378331005",))
        assert IdOverlapMatcher().predict([(left, right)]) == [True]

    def test_mixed_record_types_never_match(self):
        company = CompanyRecord(record_id="a", source="S1", entity_id="e", name="Acme")
        security = SecurityRecord(record_id="b", source="S1", entity_id="e", name="Acme stock")
        assert IdOverlapMatcher().predict([(company, security)]) == [False]


class TestThresholdNameMatcher:
    def test_identical_names_match(self):
        left = CompanyRecord(record_id="a", source="S1", entity_id="e", name="Acme Corp")
        right = CompanyRecord(record_id="b", source="S2", entity_id="e", name="Acme Inc")
        assert ThresholdNameMatcher(0.9).predict([(left, right)]) == [True]

    def test_unrelated_names_do_not_match(self):
        left = CompanyRecord(record_id="a", source="S1", entity_id="e", name="Acme Corp")
        right = CompanyRecord(record_id="b", source="S2", entity_id="f", name="Zenith Bank")
        assert ThresholdNameMatcher(0.9).predict([(left, right)]) == [False]

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ThresholdNameMatcher(1.5)


class TestModelZoo:
    def test_all_expected_specs_present(self):
        assert {"distilbert-128-all", "distilbert-128-15k", "ditto-128",
                "ditto-256", "logistic", "id-overlap"} <= set(MODEL_SPECS)

    def test_build_transformer_by_name(self):
        matcher = build_matcher("distilbert-128-all", ["name", "city"])
        assert isinstance(matcher, TransformerPairClassifier)
        assert matcher.max_tokens == 128

    def test_build_ditto_uses_ditto_serializer(self):
        matcher = build_matcher("ditto-256", ["name", "city"])
        assert isinstance(matcher, TransformerPairClassifier)
        assert isinstance(matcher.serializer, DittoSerializer)
        assert matcher.max_tokens == 256

    def test_build_logistic_and_heuristic(self):
        assert isinstance(build_matcher("logistic", ["name"]), LogisticRegressionMatcher)
        assert isinstance(build_matcher("id-overlap", ["name"]), IdOverlapMatcher)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            build_matcher("bert-large", ["name"])

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            build_matcher(ModelSpec(name="x", kind="quantum"), ["name"])

    def test_reduced_training_flag(self):
        assert MODEL_SPECS["distilbert-128-15k"].reduced_training
        assert not MODEL_SPECS["distilbert-128-all"].reduced_training


class TestFineTuner:
    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            FineTuner(negative_ratio=-1)
        with pytest.raises(ValueError):
            FineTuner(reduced_pair_budget=0)

    def test_fine_tune_logistic(self, companies):
        entities = sorted(companies.entity_groups())
        train = entities[: int(len(entities) * 0.6)]
        validation = entities[int(len(entities) * 0.6): int(len(entities) * 0.8)]
        tuner = FineTuner(negative_ratio=2, num_epochs=1, seed=0)
        result = tuner.fine_tune("logistic", companies, train, validation)
        assert result.num_training_pairs > 0
        assert result.training_seconds >= 0
        assert isinstance(result.matcher, LogisticRegressionMatcher)
        probabilities = result.matcher.predict_proba(
            [(companies.records[0], companies.records[1])]
        )
        assert 0.0 <= probabilities[0] <= 1.0

    def test_fine_tune_heuristic_needs_no_training(self, securities):
        entities = sorted(securities.entity_groups())
        tuner = FineTuner(negative_ratio=1, num_epochs=1)
        result = tuner.fine_tune("id-overlap", securities, entities[:10], entities[10:15])
        assert isinstance(result.matcher, IdOverlapMatcher)
        assert result.profiles is None

    def test_fine_tune_returns_the_corpus_store_it_fitted_on(self, companies):
        from repro.matching.profiles import ProfileStore

        entities = sorted(companies.entity_groups())
        tuner = FineTuner(negative_ratio=2, num_epochs=1, seed=0)
        result = tuner.fine_tune("logistic", companies, entities[:40], entities[40:55])
        assert isinstance(result.profiles, ProfileStore)
        assert list(result.profiles.record_ids) == [record.record_id for record in companies]

    def test_base_fit_profiled_resolves_ids_and_calls_fit(self, companies):
        from repro.matching.base import TrainablePairwiseMatcher

        class Recording(TrainablePairwiseMatcher):
            def fit(self, pairs, labels, validation_pairs=None, validation_labels=None):
                self.seen = (pairs, labels, validation_pairs, validation_labels)
                return self

            def predict_proba(self, pairs):
                return [0.5] * len(pairs)

        matcher = Recording()
        profiles = matcher.prepare_profiles(companies)
        first, second, third = companies.records[:3]
        pairs = [(first.record_id, second.record_id)]
        assert matcher.fit_profiled(profiles, pairs, [1]) is matcher
        assert matcher.seen == ([(first, second)], [1], None, None)
        matcher.fit_profiled(profiles, pairs, [1], [(third.record_id, first.record_id)], [0])
        assert matcher.seen == ([(first, second)], [1], [(third, first)], [0])

    def test_reduced_training_uses_fewer_pairs(self, securities):
        entities = sorted(securities.entity_groups())
        train = entities[: int(len(entities) * 0.6)]
        tuner = FineTuner(negative_ratio=2, seed=0)
        all_pairs = tuner.build_pairs(securities, train, MODEL_SPECS["distilbert-128-all"])
        reduced_pairs = tuner.build_pairs(securities, train, MODEL_SPECS["distilbert-128-15k"])
        assert len(reduced_pairs) <= len(all_pairs)
        reduced_positives = sum(1 for p in reduced_pairs if p.label == 1)
        all_positives = sum(1 for p in all_pairs if p.label == 1)
        assert reduced_positives < all_positives

    def test_max_training_pairs_cap(self, companies):
        entities = sorted(companies.entity_groups())
        spec = ModelSpec(name="capped", kind="logistic", max_training_pairs=25)
        tuner = FineTuner(negative_ratio=2, seed=0)
        pairs = tuner.build_pairs(companies, entities, spec)
        assert len(pairs) == 25

    def test_infer_attributes_from_empty_dataset_raises(self, companies):
        from repro.datagen.records import Dataset

        tuner = FineTuner()
        with pytest.raises(ValueError):
            tuner.fine_tune("logistic", Dataset("empty", []), [], [])
