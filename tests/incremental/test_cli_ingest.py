"""CLI surface of the incremental subsystem: ``repro ingest`` / ``repro
state show`` / ``--groups-out``.

The central assertion mirrors the CI smoke: splitting a dataset in two,
ingesting both halves into a fresh state, and exporting the groups must
produce a file byte-equal to a one-shot ``repro run --groups-out`` over the
full dataset.
"""

import json
import shutil

import pytest

from repro.cli import main
from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.io import write_dataset_csv
from repro.datagen.records import Dataset
from repro.incremental import read_manifest
from tests.incremental.test_state_io import corrupt_payload

CONFIG_TOML = """
[experiment]
dataset = "{dataset}"
kind = "companies"
model = "logistic"
epochs = 1
seed = 0
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ingest-cli")
    companies = generate_benchmark(
        GenerationConfig(num_entities=30, num_sources=3, seed=7)
    ).companies
    records = companies.records
    half = len(records) // 2
    paths = {
        "full": write_dataset_csv(companies, root / "companies.csv"),
        "batch1": write_dataset_csv(
            Dataset("companies", records[:half]), root / "batch1.csv"
        ),
        "batch2": write_dataset_csv(
            Dataset("companies", records[half:]), root / "batch2.csv"
        ),
    }
    config = root / "config.toml"
    config.write_text(CONFIG_TOML.format(dataset=paths["full"].as_posix()))
    return root, config, paths


class TestIngestMatchesRun:
    def test_split_ingest_equals_one_shot_run(self, workspace, capsys):
        root, config, paths = workspace
        state = root / "state"
        run_groups = root / "run_groups.json"
        ingest_groups = root / "ingest_groups.json"

        assert main(["run", str(config), "--groups-out", str(run_groups)]) == 0
        assert main([
            "ingest", str(paths["batch1"]),
            "--state", str(state), "--config", str(config),
            "--train-dataset", str(paths["full"]),
        ]) == 0
        out = capsys.readouterr().out
        assert "initialised match state" in out
        assert main([
            "ingest", str(paths["batch2"]),
            "--state", str(state), "--groups-out", str(ingest_groups),
        ]) == 0
        assert run_groups.read_bytes() == ingest_groups.read_bytes()
        groups = json.loads(run_groups.read_text())["groups"]
        assert groups == sorted(sorted(group) for group in groups)

    def test_state_show_prints_manifest_and_exports_groups(
        self, workspace, capsys
    ):
        root, _, _ = workspace
        state = root / "state"
        shown_groups = root / "shown_groups.json"
        assert main([
            "state", "show", str(state), "--groups-out", str(shown_groups)
        ]) == 0
        out = capsys.readouterr().out
        assert "format: repro-match-state" in out
        assert "matcher_type: LogisticRegressionMatcher" in out
        assert shown_groups.read_bytes() == (root / "ingest_groups.json").read_bytes()


class TestExistingStateRuntime:
    def test_config_runtime_applies_to_existing_state(
        self, workspace, capsys, tmp_path
    ):
        # Re-ingesting against an existing state with --config must honour
        # the spec's [pipeline.runtime] (results are engine-invariant, so
        # groups stay byte-identical to the serial path).
        root, _, paths = workspace
        state = tmp_path / "rt-state"
        config = tmp_path / "config.toml"
        config.write_text(
            CONFIG_TOML.format(dataset=paths["full"].as_posix())
            + "\n[pipeline.runtime]\nworkers = 2\nexecutor = \"thread\"\n"
        )
        assert main([
            "ingest", str(paths["batch1"]),
            "--state", str(state), "--config", str(config),
            "--train-dataset", str(paths["full"]),
        ]) == 0
        out_groups = tmp_path / "groups.json"
        assert main([
            "ingest", str(paths["batch2"]),
            "--state", str(state), "--config", str(config),
            "--groups-out", str(out_groups),
        ]) == 0
        assert out_groups.read_bytes() == (root / "ingest_groups.json").read_bytes()


class TestIngestErrors:
    def test_fresh_state_without_config_fails_clearly(self, workspace, capsys):
        root, _, paths = workspace
        assert main([
            "ingest", str(paths["batch1"]), "--state", str(root / "nowhere"),
        ]) == 2
        assert "not an initialised match state" in capsys.readouterr().err

    def test_missing_batch_file_fails_clearly(self, workspace, capsys):
        root, config, _ = workspace
        assert main([
            "ingest", str(root / "ghost.csv"),
            "--state", str(root / "state2"), "--config", str(config),
        ]) == 2
        assert "dataset file not found" in capsys.readouterr().err

    def test_missing_state_flag_and_spec_dir_fails_clearly(
        self, workspace, capsys
    ):
        _, config, paths = workspace
        assert main(["ingest", str(paths["batch1"]), "--config", str(config)]) == 2
        assert "no state directory" in capsys.readouterr().err

    def test_state_show_on_non_state_fails_clearly(self, tmp_path, capsys):
        assert main(["state", "show", str(tmp_path)]) == 2
        assert "missing manifest.json" in capsys.readouterr().err

    def test_duplicate_ingest_fails_clearly(self, workspace, capsys):
        root, _, paths = workspace
        assert main([
            "ingest", str(paths["batch1"]), "--state", str(root / "state"),
        ]) == 2
        assert "duplicate record ids" in capsys.readouterr().err

    def test_train_dataset_on_existing_state_fails_clearly(
        self, workspace, capsys
    ):
        root, config, paths = workspace
        assert main([
            "ingest", str(paths["batch2"]), "--state", str(root / "state"),
            "--config", str(config), "--train-dataset", str(paths["full"]),
        ]) == 2
        assert "--train-dataset only applies" in capsys.readouterr().err


class TestStateSpecDir:
    def test_spec_state_dir_is_the_default(self, workspace, capsys, tmp_path):
        root, _, paths = workspace
        state_dir = tmp_path / "spec-state"
        config = tmp_path / "config.toml"
        config.write_text(
            CONFIG_TOML.format(dataset=paths["full"].as_posix())
            + f'\n[pipeline.state]\ndir = "{state_dir.as_posix()}"\n'
        )
        assert main([
            "ingest", str(paths["batch1"]), "--config", str(config),
        ]) == 0
        assert (state_dir / "manifest.json").exists()


@pytest.fixture(scope="module")
def pristine_state(workspace):
    """A state holding the first batch, for tests that damage a copy."""
    root, config, paths = workspace
    state = root / "pristine-state"
    assert main([
        "ingest", str(paths["batch1"]),
        "--state", str(state), "--config", str(config),
        "--train-dataset", str(paths["full"]),
    ]) == 0
    return state


class TestCorruptState:
    @pytest.mark.parametrize(
        ("file_name", "keep"),
        [("matching_state.pkl", 0.5), ("graph_state.pkl", 0.0)],
        ids=["truncated", "empty"],
    )
    def test_corrupt_payload_exits_2_naming_the_file(
        self, workspace, pristine_state, tmp_path, capsys, file_name, keep
    ):
        _, _, paths = workspace
        state = shutil.copytree(pristine_state, tmp_path / "state")
        payload_dir = read_manifest(state)["payload_dir"]
        corrupt_payload(state / payload_dir / file_name, keep)
        capsys.readouterr()
        assert main(["ingest", str(paths["batch2"]), "--state", str(state)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: match state at {state}")
        assert f"{payload_dir}/{file_name}" in err
