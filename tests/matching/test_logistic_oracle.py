"""The logistic matcher's gradient loop against its historical form.

``reference_fit`` is the loop as it was written before ``_sigmoid`` lost its
boolean-mask gathers and scatters and ``_loss`` its second log: the masked
two-branch sigmoid, the two-log cross-entropy, ``np.ones_like`` rebuilt
every iteration, and the same update order.  The matcher must reproduce it
bitwise — weights, bias, scaler and both loss histories — on the features
of generated corpora and on arbitrary feature matrices, saturated logits
included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.datagen import GenerationConfig, generate_benchmark
from repro.matching.features import PairFeatureExtractor
from repro.matching.logistic import LogisticRegressionMatcher, _sigmoid
from repro.matching.pairs import as_record_pairs, build_labeled_pairs


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def reference_loss(probabilities, targets, sample_weights, weights, l2) -> float:
    eps = 1e-12
    cross_entropy = -(
        targets * np.log(probabilities + eps)
        + (1.0 - targets) * np.log(1.0 - probabilities + eps)
    )
    return float((cross_entropy * sample_weights).mean() + 0.5 * l2 * (weights @ weights))


def reference_fit(
    matcher: LogisticRegressionMatcher,
    features: np.ndarray,
    targets: np.ndarray,
    validation_features: np.ndarray | None,
    validation_targets: np.ndarray,
):
    """(weights, bias, means, scales, train losses, validation losses)."""
    means = features.mean(axis=0)
    scales = features.std(axis=0)
    scales[scales < 1e-9] = 1.0
    features = (features - means) / scales
    if validation_features is not None:
        validation_features = (validation_features - means) / scales

    rng = np.random.default_rng(matcher.seed)
    weights = rng.normal(0.0, 0.01, size=features.shape[1])
    bias = 0.0
    sample_weights = matcher._sample_weights(targets)
    train_loss: list[float] = []
    validation_loss: list[float] = []
    for _ in range(matcher.num_iterations):
        logits = features @ weights + bias
        probabilities = reference_sigmoid(logits)
        errors = (probabilities - targets) * sample_weights
        gradient_weights = features.T @ errors / len(targets) + matcher.l2 * weights
        gradient_bias = float(errors.mean())
        weights -= matcher.learning_rate * gradient_weights
        bias -= matcher.learning_rate * gradient_bias
        train_loss.append(
            reference_loss(probabilities, targets, sample_weights, weights, matcher.l2)
        )
        if validation_features is not None:
            validation_probabilities = reference_sigmoid(
                validation_features @ weights + bias
            )
            validation_loss.append(
                reference_loss(
                    validation_probabilities,
                    validation_targets,
                    np.ones_like(validation_targets),
                    weights,
                    matcher.l2,
                )
            )
    return weights, bias, means, scales, train_loss, validation_loss


def assert_fit_equals_reference(matcher, expected) -> None:
    weights, bias, means, scales, train_loss, validation_loss = expected
    assert matcher._weights.tobytes() == weights.tobytes()
    assert np.float64(matcher._bias).tobytes() == np.float64(bias).tobytes()
    assert matcher._feature_means.tobytes() == means.tobytes()
    assert matcher._feature_scales.tobytes() == scales.tobytes()
    assert np.asarray(matcher.history.train_loss).tobytes() == np.asarray(train_loss).tobytes()
    assert (
        np.asarray(matcher.history.validation_loss).tobytes()
        == np.asarray(validation_loss).tobytes()
    )


SPECIAL_LOGITS = np.array(
    [
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        745.0, -745.0, 746.0, -746.0, 709.0, -709.0, 710.0, -710.0, 37.0, -37.0,
        5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
        1e-310, -1e-310, 1e308, -1e308, 1.0, -1.0,
    ]
)


class TestSigmoid:
    def test_special_values_are_bitwise_the_masked_form(self):
        assert _sigmoid(SPECIAL_LOGITS).tobytes() == reference_sigmoid(SPECIAL_LOGITS).tobytes()

    def test_random_logits_are_bitwise_the_masked_form(self):
        logits = np.random.default_rng(5).normal(0.0, 200.0, 100_000)
        assert _sigmoid(logits).tobytes() == reference_sigmoid(logits).tobytes()

    @given(arrays(np.float64, st.integers(0, 50)))
    @settings(max_examples=200, deadline=None)
    def test_any_float_vector(self, logits):
        assert _sigmoid(logits).tobytes() == reference_sigmoid(logits).tobytes()


class TestLoss:
    @pytest.mark.parametrize("target", [0.0, 1.0])
    def test_one_log_equals_two_logs(self, target):
        probabilities = np.concatenate(
            (
                np.array([0.0, 1.0, 0.5, 5e-324, 1e-12, 1 - 1e-12, 1 - 2**-53, np.nan]),
                reference_sigmoid(np.random.default_rng(7).normal(0.0, 40.0, 20_000)),
            )
        )
        targets = np.full_like(probabilities, target)
        sample_weights = np.linspace(0.5, 2.0, len(probabilities))
        weights = np.array([0.25, -1.5])
        matcher = LogisticRegressionMatcher(l2=0.01)
        got = matcher._loss(probabilities, targets, sample_weights, weights)
        expected = reference_loss(probabilities, targets, sample_weights, weights, 0.01)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("seed", [0, 3, 89])
def test_fit_on_generated_corpora_equals_the_reference_loop(seed):
    companies = generate_benchmark(
        GenerationConfig(num_entities=60, num_sources=4, seed=seed)
    ).companies
    record_pairs, labels = as_record_pairs(
        build_labeled_pairs(companies, negative_ratio=5, seed=seed)
    )
    split = int(len(record_pairs) * 0.75)
    matcher = LogisticRegressionMatcher(seed=seed).fit(
        record_pairs[:split],
        labels[:split],
        validation_pairs=record_pairs[split:],
        validation_labels=labels[split:],
    )
    extractor = PairFeatureExtractor()
    expected = reference_fit(
        LogisticRegressionMatcher(seed=seed),
        extractor.extract_batch(record_pairs[:split]),
        np.asarray(labels[:split], dtype=np.float64),
        extractor.extract_batch(record_pairs[split:]),
        np.asarray(labels[split:], dtype=np.float64),
    )
    assert_fit_equals_reference(matcher, expected)
    assert len(matcher.history.validation_loss) == matcher.num_iterations


@st.composite
def fitting_problems(draw):
    rows = draw(st.integers(2, 40))
    columns = draw(st.integers(1, 5))
    elements = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    features = draw(arrays(np.float64, (rows, columns), elements=elements))
    targets = np.asarray(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=rows, max_size=rows)))
    validation = None
    validation_targets = np.zeros(0)
    if draw(st.booleans()):
        count = draw(st.integers(1, 15))
        validation = draw(arrays(np.float64, (count, columns), elements=elements))
        validation_targets = np.asarray(
            draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=count, max_size=count))
        )
    matcher = LogisticRegressionMatcher(
        learning_rate=draw(st.sampled_from([0.05, 0.5, 5.0, 500.0, 1e4])),
        num_iterations=draw(st.integers(1, 30)),
        l2=draw(st.sampled_from([0.0, 1e-3, 0.5])),
        class_weighted=draw(st.booleans()),
        seed=draw(st.integers(0, 3)),
    )
    return matcher, features, targets, validation, validation_targets


@given(fitting_problems())
@settings(max_examples=150, deadline=None)
def test_fit_on_any_feature_matrix_equals_the_reference_loop(problem):
    matcher, features, targets, validation, validation_targets = problem
    expected = reference_fit(matcher, features, targets, validation, validation_targets)
    matcher._fit_matrix(features, targets, validation, validation_targets)
    assert_fit_equals_reference(matcher, expected)


def test_saturated_logits_equal_the_reference_loop():
    # Separable data with a huge step drives the logits far past ±745,
    # where exp underflows and the probabilities are exactly 0 and 1.
    features = np.array([[-3.0, 0.0], [-2.0, 1.0], [2.0, 0.0], [3.0, 1.0]] * 5)
    targets = np.array([0.0, 0.0, 1.0, 1.0] * 5)
    matcher = LogisticRegressionMatcher(learning_rate=1e4, num_iterations=10, l2=0.0)
    expected = reference_fit(matcher, features, targets, features[:4], targets[:4])
    matcher._fit_matrix(features, targets, features[:4], targets[:4])
    assert_fit_equals_reference(matcher, expected)
    logits = matcher._scale(features) @ matcher._weights + matcher._bias
    assert np.abs(logits).min() > 745
    assert set(_sigmoid(logits)) == {0.0, 1.0}
