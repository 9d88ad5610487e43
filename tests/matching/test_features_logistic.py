"""Tests for the feature extractor and the logistic-regression matcher."""

import warnings

import numpy as np
import pytest

from repro.datagen.records import CompanyRecord, SecurityRecord
from repro.matching.features import PairFeatureExtractor
from repro.matching.logistic import LogisticRegressionMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs
from tests.matching.test_logistic_oracle import reference_loss


def company(record_id, name, source="S1", entity="e", **kwargs):
    return CompanyRecord(
        record_id=record_id, source=source, entity_id=entity, name=name, **kwargs
    )


class TestFeatureExtractor:
    extractor = PairFeatureExtractor()

    def test_vector_length_matches_names(self):
        vector = self.extractor.extract_batch([(company("a", "Acme"), company("b", "Acme"))])[0]
        assert vector.shape == (self.extractor.num_features,)
        assert len(self.extractor.feature_names()) == self.extractor.num_features

    def test_identical_names_score_high(self):
        same = self.extractor.extract_batch(
            [(company("a", "Acme Corp"), company("b", "Acme Corp"))]
        )[0]
        different = self.extractor.extract_batch(
            [(company("a", "Acme Corp"), company("b", "Zenith Bank"))]
        )[0]
        names = self.extractor.feature_names()
        jw = names.index("name_jaro_winkler")
        assert same[jw] > different[jw]

    def test_identifier_overlap_feature_for_securities(self):
        left = SecurityRecord(record_id="s1", source="S1", entity_id="e",
                              name="Acme stock", isin="US0378331005")
        right = SecurityRecord(record_id="s2", source="S2", entity_id="e",
                               name="Acme shares", isin="US0378331005")
        other = SecurityRecord(record_id="s3", source="S3", entity_id="f",
                               name="Zen stock", isin="CH0038863350")
        names = self.extractor.feature_names()
        overlap_index = names.index("identifier_overlap_count")
        assert self.extractor.extract_batch([(left, right)])[0][overlap_index] == 1.0
        assert self.extractor.extract_batch([(left, other)])[0][overlap_index] == 0.0

    def test_company_isin_overlap_feature(self):
        left = company("a", "Acme", security_isins=("US0378331005",))
        right = company("b", "Acme Inc", security_isins=("US0378331005", "CH0038863350"))
        names = self.extractor.feature_names()
        isin_index = names.index("isin_overlap")
        assert self.extractor.extract_batch([(left, right)])[0][isin_index] == 1.0

    def test_missing_attributes_are_neutral(self):
        left = company("a", "Acme", city=None)
        right = company("b", "Acme", city="Zurich")
        names = self.extractor.feature_names()
        city_index = names.index("city_match")
        assert self.extractor.extract_batch([(left, right)])[0][city_index] == 0.5

    def test_batch_shape(self):
        pairs = [(company("a", "Acme"), company("b", "Acme"))] * 3
        matrix = self.extractor.extract_batch(pairs)
        assert matrix.shape == (3, self.extractor.num_features)

    def test_empty_batch(self):
        assert self.extractor.extract_batch([]).shape == (0, self.extractor.num_features)

    def test_different_records_sharing_an_id_raise(self):
        left = company("a", "Acme")
        with pytest.raises(ValueError, match="'b'"):
            self.extractor.extract_batch(
                [(left, company("b", "Acme")), (left, company("b", "Zenith"))]
            )
        # Equal copies of one record are fine.
        matrix = self.extractor.extract_batch(
            [(left, company("b", "Acme")), (company("a", "Acme"), company("b", "Acme"))]
        )
        assert matrix[0].tobytes() == matrix[1].tobytes()

    def test_values_are_finite(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=0)[:50]
        record_pairs, _ = as_record_pairs(pairs)
        matrix = self.extractor.extract_batch(record_pairs)
        assert np.isfinite(matrix).all()


class TestLogisticRegressionMatcher:
    def test_validation_of_hyperparameters(self):
        for name, value in (
            ("learning_rate", 0),
            ("learning_rate", -0.5),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("num_iterations", 0),
            ("num_iterations", 2.5),
            ("num_iterations", 3.0),
            ("num_iterations", True),
            ("l2", -1),
            ("l2", float("nan")),
            ("l2", float("inf")),
            ("threshold", float("nan")),
            ("threshold", 1.5),
            ("threshold", -0.1),
        ):
            with pytest.raises(ValueError, match=name):
                LogisticRegressionMatcher(**{name: value})

    def test_boundary_hyperparameters_are_accepted(self):
        for threshold in (0.0, 1.0):
            assert LogisticRegressionMatcher(threshold=threshold).threshold == threshold
        matcher = LogisticRegressionMatcher(learning_rate=1e-9, num_iterations=1, l2=0.0)
        assert (matcher.learning_rate, matcher.num_iterations, matcher.l2) == (1e-9, 1, 0.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegressionMatcher().predict_proba([])
        with pytest.raises(RuntimeError):
            LogisticRegressionMatcher().feature_importances()

    def test_fit_requires_data(self):
        with pytest.raises(ValueError):
            LogisticRegressionMatcher().fit([], [])

    def test_fit_rejects_bad_labels(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=0)[:10]
        record_pairs, _ = as_record_pairs(pairs)
        with pytest.raises(ValueError):
            LogisticRegressionMatcher().fit(record_pairs, [2] * 10)

    def test_learns_company_matching(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=3, seed=0)
        record_pairs, labels = as_record_pairs(pairs)
        split = int(len(record_pairs) * 0.8)
        matcher = LogisticRegressionMatcher(num_iterations=200).fit(
            record_pairs[:split], labels[:split]
        )
        predictions = matcher.predict(record_pairs[split:])
        accuracy = np.mean(
            [pred == bool(label) for pred, label in zip(predictions, labels[split:])]
        )
        assert accuracy > 0.85

    def test_probabilities_in_unit_interval(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=2, seed=1)
        record_pairs, labels = as_record_pairs(pairs)
        matcher = LogisticRegressionMatcher(num_iterations=100).fit(record_pairs, labels)
        probabilities = matcher.predict_proba(record_pairs[:40])
        assert all(0.0 <= p <= 1.0 for p in probabilities)

    @pytest.fixture
    def split_pairs(self, companies):
        """(train pairs, train labels, validation pairs, validation labels)."""
        record_pairs, labels = as_record_pairs(
            build_labeled_pairs(companies, negative_ratio=2, seed=2)
        )
        return record_pairs[:-60], labels[:-60], record_pairs[-60:], labels[-60:]

    def test_fit_rejects_a_single_validation_label(self, split_pairs):
        pairs, labels, validation_pairs, _ = split_pairs
        with pytest.raises(ValueError, match=r"validation_labels must have .*\(60 vs 1\)"):
            LogisticRegressionMatcher(num_iterations=5).fit(
                pairs, labels, validation_pairs=validation_pairs, validation_labels=[1]
            )

    def test_fit_rejects_validation_length_mismatch(self, split_pairs):
        pairs, labels, validation_pairs, validation_labels = split_pairs
        with pytest.raises(ValueError, match=r"same length \(60 vs 50\)"):
            LogisticRegressionMatcher(num_iterations=5).fit(
                pairs, labels,
                validation_pairs=validation_pairs, validation_labels=validation_labels[:50],
            )

    def test_fit_rejects_bad_validation_labels(self, split_pairs):
        pairs, labels, validation_pairs, _ = split_pairs
        with pytest.raises(ValueError, match="validation_labels must be 0 or 1"):
            LogisticRegressionMatcher(num_iterations=5).fit(
                pairs, labels, validation_pairs=validation_pairs, validation_labels=[7] * 60
            )

    def test_fit_treats_empty_validation_as_absent(self, split_pairs):
        pairs, labels, _, _ = split_pairs
        without = LogisticRegressionMatcher(num_iterations=20).fit(pairs, labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = LogisticRegressionMatcher(num_iterations=20).fit(
                pairs, labels, validation_pairs=[], validation_labels=[]
            )
        assert empty._weights.tobytes() == without._weights.tobytes()
        assert np.float64(empty._bias).tobytes() == np.float64(without._bias).tobytes()

    def test_training_lowers_the_loss(self, companies):
        # The class-weighted loss the gradient loop descends, on the
        # training pairs: lower after 50 iterations than after one.  The
        # validation pairs change nothing.
        pairs = build_labeled_pairs(companies, negative_ratio=2, seed=2)
        record_pairs, labels = as_record_pairs(pairs)
        split = int(len(record_pairs) * 0.8)
        features = PairFeatureExtractor().extract_batch(record_pairs[:split])
        targets = np.asarray(labels[:split], dtype=np.float64)

        def training_loss(num_iterations, **validation):
            matcher = LogisticRegressionMatcher(num_iterations=num_iterations).fit(
                record_pairs[:split], labels[:split], **validation
            )
            probabilities = 1.0 / (1.0 + np.exp(
                -(matcher._scale(features) @ matcher._weights + matcher._bias)
            ))
            return reference_loss(
                probabilities, targets, matcher._sample_weights(targets),
                matcher._weights, matcher.l2,
            )

        validation = {
            "validation_pairs": record_pairs[split:],
            "validation_labels": labels[split:],
        }
        assert training_loss(50, **validation) < training_loss(1)
        assert training_loss(50, **validation) == training_loss(50)

    def test_feature_importances_named(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=3)
        record_pairs, labels = as_record_pairs(pairs)
        matcher = LogisticRegressionMatcher(num_iterations=50).fit(record_pairs, labels)
        importances = matcher.feature_importances()
        assert set(importances) == set(PairFeatureExtractor().feature_names())

    def test_decide_and_score_pairs_interface(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=4)
        record_pairs, labels = as_record_pairs(pairs)
        matcher = LogisticRegressionMatcher(num_iterations=50).fit(record_pairs, labels)
        decisions = matcher.decide(record_pairs[:5])
        scored = matcher.score_pairs(record_pairs[:5])
        assert len(decisions) == len(scored) == 5
        for decision, score in zip(decisions, scored):
            assert decision.pair == score.pair
            assert decision.is_match == (decision.probability >= matcher.threshold)

    def test_empty_prediction(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=5)
        record_pairs, labels = as_record_pairs(pairs)
        matcher = LogisticRegressionMatcher(num_iterations=20).fit(record_pairs, labels)
        assert matcher.predict_proba([]) == []
