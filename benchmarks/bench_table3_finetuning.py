"""Table 3 — fine-tuning scores of the pairwise matchers on test pairs.

For every (dataset, model) combination the matcher is fine-tuned on the
train split (the transformer matchers keep the epoch with the lowest
validation loss, the logistic matcher its last iterate) and
Match / NoMatch classification is scored on the test-split pairs by
:func:`~repro.evaluation.finetune.evaluate_fine_tuning`, exactly as in
Table 3 (precision / recall / F1 plus training time).

The expected shape (not absolute values) from the paper:

* all models reach high scores on the companies datasets,
* the reduced-training "15K" variant trades a little recall for precision,
* DITTO (256) trains noticeably longer than the 128-token setups.
"""

from dataclasses import replace

import pytest

from repro.evaluation import evaluate_fine_tuning, format_table

#: (dataset, models) pairs evaluated for Table 3 at benchmark scale.
TABLE3_SETUPS = {
    "synthetic-companies": (
        "ditto-128", "ditto-256", "distilbert-128-15k", "distilbert-128-all",
    ),
    "synthetic-securities": ("ditto-128", "distilbert-128-all"),
    "real-companies": ("distilbert-128-all",),
    "wdc-products": ("distilbert-128-all",),
}

_rows: list[dict] = []


@pytest.mark.parametrize(
    "dataset_name,model_name",
    [(d, m) for d, models in TABLE3_SETUPS.items() for m in models],
)
def test_table3_fine_tuning(benchmark, dataset_registry, finetune_cache,
                            dataset_name, model_name):
    """Fine-tune one model on one dataset and score the test pairs."""
    dataset = dataset_registry[dataset_name]

    def run():
        result, splits, tuner = finetune_cache(dataset_name, model_name)
        evaluation = evaluate_fine_tuning(dataset, splits, result, tuner)
        # Rows are labelled by the benchmark's dataset names.
        return replace(evaluation, dataset=dataset_name)

    evaluation = benchmark.pedantic(run, rounds=1, iterations=1)
    _rows.append(evaluation.as_row())

    assert evaluation.scores.f1 > 0.3
    if dataset_name == "synthetic-companies":
        # Companies are the easy fine-tuning task in the paper (F1 ~97-99).
        assert evaluation.scores.f1 > 0.8


def test_table3_report(benchmark, save_table):
    """Render the collected Table 3 rows (runs last by file order)."""
    rows = benchmark(lambda: sorted(_rows, key=lambda r: (r["Dataset"], r["Model"])))
    table = format_table(rows, title="Table 3 — fine-tuning scores (benchmark scale)")
    save_table("table3_finetuning", table)
    assert rows, "parameterised fine-tuning benches must run before the report"
