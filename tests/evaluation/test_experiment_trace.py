"""One trace for the whole experiment.

A traced ``run_experiment`` records one ``experiment`` run span: the
``finetune`` stage with one span per phase, then ``pipeline.run`` with its
stages, then ``scoring``.  Tracing only observes: every output equals the
untraced run's.
"""

from dataclasses import replace

import pytest

from repro import api
from repro.cli import main
from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.io import write_dataset_csv
from repro.obs import read_trace_jsonl
from repro.specs import ExperimentSpec

PHASES = ["sampling", "profiling", "features", "optimisation"]


@pytest.fixture(scope="module")
def companies():
    return generate_benchmark(
        GenerationConfig(num_entities=60, num_sources=4, seed=9)
    ).companies


def traced(spec, path):
    runtime = replace(spec.pipeline.runtime, trace=str(path))
    return replace(spec, pipeline=replace(spec.pipeline, runtime=runtime))


def scores(result):
    row = result.as_row()
    row.pop("Inference (s)")
    return row


def test_traced_experiment_equals_untraced(companies, tmp_path):
    spec = ExperimentSpec(kind="companies", model="logistic", epochs=1)
    plain = api.run_experiment(spec, dataset=companies)
    path = tmp_path / "run.jsonl"
    recorded = api.run_experiment(traced(spec, path), dataset=companies)

    assert scores(recorded) == scores(plain)
    left, right = recorded.pipeline_result, plain.pipeline_result
    assert left.candidates == right.candidates
    assert left.decisions.probabilities.tobytes() == right.decisions.probabilities.tobytes()
    assert left.groups.groups == right.groups.groups
    assert left.pre_cleanup_groups.groups == right.pre_cleanup_groups.groups

    trace = read_trace_jsonl(path)
    (experiment,) = trace.find("experiment", kind="run")
    assert experiment.attributes == {"dataset": companies.name, "records": len(companies)}
    assert [child.name for child in experiment.children] == ["finetune", "pipeline.run", "scoring"]
    finetune = experiment.children[0]
    assert finetune.kind == "stage"
    assert [phase.name for phase in finetune.children] == PHASES
    assert finetune.attributes["training_pairs"] > 0
    (pipeline_run,) = trace.find("pipeline.run", kind="run")
    assert pipeline_run is experiment.children[1]
    covered = sum(child.duration for child in experiment.children)
    assert covered >= 0.95 * experiment.duration


def test_transformer_fit_is_one_optimisation_phase(companies, tmp_path):
    # A matcher without a separate feature phase fits inside one span.
    from repro.evaluation import split_dataset
    from repro.matching.training import FineTuner
    from repro.obs import TraceRecorder

    recorder = TraceRecorder()
    splits = split_dataset(companies, seed=0)
    FineTuner(negative_ratio=1, num_epochs=1).fine_tune(
        "distilbert-128-all", companies, splits.train_entities[:6],
        splits.validation_entities[:2], recorder=recorder,
    )
    (finetune,) = recorder.trace().find("finetune")
    assert [phase.name for phase in finetune.children] == ["sampling", "profiling", "optimisation"]


def test_report_lists_the_fine_tuning_phases(companies, tmp_path, capsys):
    dataset = write_dataset_csv(companies, tmp_path / "companies.csv")
    config = tmp_path / "experiment.toml"
    config.write_text(
        f'[experiment]\ndataset = "{dataset}"\nkind = "companies"\n'
        'model = "logistic"\nepochs = 1\n'
    )
    trace = tmp_path / "run.jsonl"
    assert main(["run", str(config), "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["report", str(trace)]) == 0
    report = capsys.readouterr().out
    lines = [line.strip() for line in report.splitlines()]
    assert any(line.startswith("experiment [run]") for line in lines)
    for name in ["finetune [stage]", *(f"{phase} [span]" for phase in PHASES), "scoring [stage]"]:
        assert any(line.startswith(name) for line in lines), name
