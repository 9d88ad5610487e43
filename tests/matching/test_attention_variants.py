"""Additional coverage for the cross-encoder's configuration variants."""

import numpy as np
import pytest

from repro.matching.attention import TransformerPairClassifier
from repro.matching.nn import cross_entropy
from repro.matching.pairs import as_record_pairs, build_labeled_pairs


ATTRIBUTES = ["name", "city", "country_code", "description"]


def tiny_model(**overrides):
    defaults = dict(
        attributes=ATTRIBUTES,
        max_tokens=32,
        embedding_dim=12,
        hidden_dim=24,
        num_blocks=1,
        num_epochs=2,
        batch_size=16,
        vocab_size=1500,
        seed=0,
    )
    defaults.update(overrides)
    return TransformerPairClassifier(**defaults)


class TestPureTokenVariant:
    def test_trains_without_similarity_features(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=11)[:120]
        record_pairs, labels = as_record_pairs(pairs)
        model = tiny_model(use_similarity_features=False)
        model.fit(record_pairs, labels)
        probabilities = model.predict_proba(record_pairs[:20])
        assert len(probabilities) == 20
        assert all(0.0 <= p <= 1.0 for p in probabilities)
        # The aux-feature head is absent: classifier input is exactly 3 * dim.
        assert model.network.classifier.weight.value.shape[0] == 3 * model.embedding_dim

    def test_hybrid_head_has_wider_classifier(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=1, seed=12)[:80]
        record_pairs, labels = as_record_pairs(pairs)
        hybrid = tiny_model(use_similarity_features=True)
        hybrid.fit(record_pairs, labels)
        expected = 3 * hybrid.embedding_dim + hybrid._feature_extractor.num_features
        assert hybrid.network.classifier.weight.value.shape[0] == expected

    def test_class_weighting_can_be_disabled(self, companies):
        pairs = build_labeled_pairs(companies, negative_ratio=2, seed=13)[:90]
        record_pairs, labels = as_record_pairs(pairs)
        model = tiny_model(class_weighted=False)
        weights = model._class_weights(np.asarray(labels))
        assert np.allclose(weights, 1.0)

    def test_single_class_training_set_gets_uniform_weights(self):
        model = tiny_model()
        assert np.allclose(model._class_weights(np.zeros(5, dtype=int)), 1.0)


class TestWeightedCrossEntropy:
    def test_weights_rescale_loss(self):
        logits = np.array([[0.0, 1.0], [1.0, 0.0]])
        labels = np.array([1, 0])
        base_loss, _ = cross_entropy(logits, labels)
        doubled_loss, _ = cross_entropy(logits, labels, np.array([2.0, 2.0]))
        assert doubled_loss == pytest.approx(2 * base_loss)

    def test_bad_weight_shape_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 2)), np.array([0, 1]), np.ones(3))

    def test_weighted_gradient_scales_per_sample(self):
        logits = np.array([[0.2, -0.1], [0.4, 0.3]])
        labels = np.array([0, 1])
        _, base_grad = cross_entropy(logits, labels)
        _, weighted_grad = cross_entropy(logits, labels, np.array([1.0, 3.0]))
        assert np.allclose(weighted_grad[0], base_grad[0])
        assert np.allclose(weighted_grad[1], 3 * base_grad[1])

