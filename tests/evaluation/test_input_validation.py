"""Inputs an experiment cannot run on fail first, with an error that names them.

A negative seed is refused where it is given (spec, matcher, fine-tuner)
instead of deep inside the gradient loop, and a corpus that cannot yield a
training pair is refused before any pair is sampled, naming the dataset and
the reason.  The CLI turns both into ``error: ...`` and exit code 2.
"""

import pytest

from repro import api
from repro.cli import main
from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.io import write_dataset_csv
from repro.datagen.records import CompanyRecord, Dataset
from repro.matching.logistic import LogisticRegressionMatcher
from repro.matching.training import FineTuner, TrainingDataError
from repro.specs import ExperimentSpec, SpecValidationError


def company(record_id, entity):
    return CompanyRecord(
        record_id=record_id, source=f"S{record_id[-1]}", entity_id=entity,
        name=f"Acme {entity}",
    )


#: Corpora whose train split holds no entity with two records.
DEGENERATE = {
    "empty": [],
    "one-record": [company("r1", "e1")],
    # One entity: the 60% train share of one entity rounds down to none.
    "one-entity": [company("r1", "e1"), company("r2", "e1"), company("r3", "e1")],
    "two-entities": [company("r1", "e1"), company("r2", "e2")],
}

LOGISTIC = ExperimentSpec(kind="companies", model="logistic", epochs=1)


def write_corpus(tmp_path, name):
    records = DEGENERATE[name]
    path = tmp_path / f"{name}.csv"
    write_dataset_csv(Dataset(name, records or [company("r1", "e1")]), path)
    if not records:
        header = path.read_text(encoding="utf-8").splitlines()[0]
        path.write_text(header + "\n", encoding="utf-8")
    return path


class TestNegativeSeed:
    def test_spec_names_the_key(self):
        with pytest.raises(SpecValidationError, match=r"^experiment\.seed: "):
            ExperimentSpec(model="logistic", seed=-1)

    def test_spec_file_names_the_key(self):
        with pytest.raises(SpecValidationError, match=r"^experiment\.seed: "):
            ExperimentSpec.from_dict({"experiment": {"model": "logistic", "seed": -1}})

    def test_matcher_refuses_it(self):
        with pytest.raises(ValueError, match="seed"):
            LogisticRegressionMatcher(seed=-1)

    def test_fine_tuner_refuses_it(self):
        with pytest.raises(ValueError, match="seed"):
            FineTuner(seed=-1)

    def test_zero_is_accepted(self):
        assert ExperimentSpec(model="logistic", seed=0).seed == 0
        assert LogisticRegressionMatcher(seed=0).seed == 0

    def test_cli_match_exits_2(self, tmp_path, capsys):
        companies = generate_benchmark(
            GenerationConfig(num_entities=10, num_sources=3, seed=1)
        ).companies
        path = write_dataset_csv(companies, tmp_path / "companies.csv")
        assert main(["match", str(path), "--model", "logistic", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: experiment.seed: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("shape", sorted(DEGENERATE))
class TestDegenerateCorpora:
    def test_run_experiment_names_the_dataset_before_sampling(self, shape, monkeypatch):
        from repro.matching.pairs import PairSampler

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled pairs for a corpus that cannot train")

        monkeypatch.setattr(PairSampler, "sample", no_sampling)
        with pytest.raises(TrainingDataError, match=f"dataset '{shape}'"):
            api.run_experiment(LOGISTIC, dataset=Dataset(shape, DEGENERATE[shape]))

    def test_reason_is_stated(self, shape):
        with pytest.raises(TrainingDataError) as raised:
            api.run_experiment(LOGISTIC, dataset=Dataset(shape, DEGENERATE[shape]))
        reason = "no records" if shape == "empty" else "no entity in the train split has two records"
        assert reason in str(raised.value)

    def test_open_state_refuses_it(self, shape, tmp_path):
        with pytest.raises(TrainingDataError, match=f"dataset '{shape}'"):
            api.open_state(
                tmp_path / "state", spec=LOGISTIC, train_dataset=Dataset(shape, DEGENERATE[shape])
            )
        assert not (tmp_path / "state").exists()

    def test_cli_run_exits_2(self, shape, tmp_path, capsys):
        path = write_corpus(tmp_path, shape)
        config = tmp_path / "experiment.toml"
        config.write_text(
            f'[experiment]\ndataset = "{path}"\nkind = "companies"\n'
            'model = "logistic"\nepochs = 1\n'
        )
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot fine-tune 'logistic' on dataset '{shape}'") or (
            shape == "empty" and err.startswith(f"error: cannot fine-tune on dataset '{shape}'")
        )

    def test_cli_match_exits_2(self, shape, tmp_path, capsys):
        path = write_corpus(tmp_path, shape)
        assert main(["match", str(path), "--model", "logistic", "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot fine-tune") and f"dataset '{shape}'" in err


def test_untrained_matcher_needs_no_training_pair():
    # The identifier-overlap heuristic fits nothing, so a corpus without a
    # training pair still runs.
    dataset = Dataset("two-entities", DEGENERATE["two-entities"])
    spec = ExperimentSpec(kind="companies", model="id-overlap", epochs=1)
    assert api.run_experiment(spec, dataset=dataset).num_records == 2
