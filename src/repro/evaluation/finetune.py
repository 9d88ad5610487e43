"""Fine-tuning evaluation (Table 3).

For every model setup, fine-tune on the train split (the transformer
matchers keep the epoch with the lowest validation loss, the logistic
matcher its last iterate) and score Match / NoMatch classification on the
*test split pairs* (all positives of the test groups plus 5:1 sampled
negatives).  This mirrors Table 3 of the paper: pairwise precision / recall
/ F1 plus the wall-clock training time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import PairwiseScores, pairwise_scores
from repro.datagen.records import Dataset
from repro.evaluation.splits import DatasetSplits
from repro.matching.models import MODEL_SPECS
from repro.matching.pairs import as_record_pairs
from repro.matching.training import FineTuner, FineTuneResult


@dataclass
class FineTuneEvaluation:
    """One Table 3 row: test-pair scores of one fine-tuned model."""

    dataset: str
    model: str
    scores: PairwiseScores
    training_seconds: float
    num_training_pairs: int
    num_test_pairs: int

    def as_row(self) -> dict[str, object]:
        return {
            "Dataset": self.dataset,
            "Model": self.model,
            "Precision": round(100 * self.scores.precision, 2),
            "Recall": round(100 * self.scores.recall, 2),
            "F1 Score": round(100 * self.scores.f1, 2),
            "Training Time (s)": round(self.training_seconds, 2),
        }


def evaluate_fine_tuning(
    dataset: Dataset,
    splits: DatasetSplits,
    result: FineTuneResult,
    tuner: FineTuner,
) -> FineTuneEvaluation:
    """Score ``result``, fine-tuned by ``tuner`` on ``dataset``'s train
    split, on the test-split pairs ``tuner`` samples."""
    # Test pairs always use the full (non-reduced) sampling so all models are
    # scored on the identical pair set.
    test_pairs = tuner.build_pairs(
        dataset, splits.test_entities, MODEL_SPECS["distilbert-128-all"]
    )
    record_pairs, labels = as_record_pairs(test_pairs)
    predictions = result.matcher.predict(record_pairs)

    predicted_matches = [
        (left.record_id, right.record_id)
        for (left, right), predicted in zip(record_pairs, predictions)
        if predicted
    ]
    true_matches = [
        (left.record_id, right.record_id)
        for (left, right), label in zip(record_pairs, labels)
        if label == 1
    ]
    return FineTuneEvaluation(
        dataset=dataset.name,
        model=result.name,
        scores=pairwise_scores(predicted_matches, true_matches),
        training_seconds=result.training_seconds,
        num_training_pairs=result.num_training_pairs,
        num_test_pairs=len(test_pairs),
    )
