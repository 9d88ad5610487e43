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
from repro.core.cleanup import gralmatch_cleanup
from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.io import read_dataset_csv, write_dataset_csv
from repro.datagen.records import Dataset
from repro.incremental import IncrementalMatcher, read_manifest
from repro.obs import read_trace_jsonl
from repro.registry import CLEANUPS
from tests.incremental.test_state_io import corrupt_payload, file_bytes, set_format_version

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

    def test_split_ingest_equals_one_shot_run_under_adaptive(
        self, workspace, capsys, tmp_path
    ):
        # adaptive cleans each component under its own budget, so ingest
        # re-cleans only the components a batch touches.
        _, config, paths = workspace
        adaptive = tmp_path / "adaptive.toml"
        adaptive.write_text(
            config.read_text() + '\n[pipeline.cleanup]\nstrategy = "adaptive"\n'
        )
        state = tmp_path / "state"
        run_groups = tmp_path / "run_groups.json"
        ingest_groups = tmp_path / "ingest_groups.json"

        assert main(["run", str(adaptive), "--groups-out", str(run_groups)]) == 0
        assert main([
            "ingest", str(paths["batch1"]),
            "--state", str(state), "--config", str(adaptive),
            "--train-dataset", str(paths["full"]),
        ]) == 0
        assert main([
            "ingest", str(paths["batch2"]),
            "--state", str(state), "--groups-out", str(ingest_groups),
        ]) == 0
        assert run_groups.read_bytes() == ingest_groups.read_bytes()
        assert read_manifest(state)["cleanup_strategy"] == "adaptive"

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

    def test_state_show_prints_the_base_and_the_journal(
        self, workspace, capsys, tmp_path
    ):
        # A bulk ingest, then two 10-record ones, one invocation each: the
        # first writes a base, and each later one appends a segment.
        _, config, paths = workspace
        records = read_dataset_csv(paths["full"]).records
        slices = [
            write_dataset_csv(Dataset("companies", part), tmp_path / f"slice{index}.csv")
            for index, part in enumerate((records[:-20], records[-20:-10], records[-10:]))
        ]
        state = tmp_path / "state"
        assert main([
            "ingest", str(slices[0]), "--state", str(state), "--config", str(config),
            "--train-dataset", str(paths["full"]),
        ]) == 0
        for path in slices[1:]:
            assert main(["ingest", str(path), "--state", str(state)]) == 0
        capsys.readouterr()
        manifest = read_manifest(state)
        assert main(["state", "show", str(state)]) == 0
        out = capsys.readouterr().out
        assert f"  base: {manifest['payload_dir']}, {manifest['base_bytes']} bytes" in out
        sizes = [segment["bytes"] for segment in manifest["segments"]]
        assert len(sizes) == 2
        assert f"  journal: 2 segments, {sum(sizes)} bytes" in out


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


class TestTracePath:
    def test_a_later_ingest_keeps_the_creators_trace(self, workspace, capsys, tmp_path):
        # --trace names one invocation's output file; the state never
        # stores it, so a later untraced ingest neither traces nor
        # overwrites the first call's trace.
        _, config, paths = workspace
        state = tmp_path / "traced-state"
        trace = tmp_path / "first.jsonl"
        assert main([
            "ingest", str(paths["batch1"]),
            "--state", str(state), "--config", str(config),
            "--train-dataset", str(paths["full"]), "--trace", str(trace),
        ]) == 0
        first = trace.read_bytes()
        assert len(read_trace_jsonl(trace).find("ingest", kind="run")) == 1
        assert main(["ingest", str(paths["batch2"]), "--state", str(state)]) == 0
        assert trace.read_bytes() == first


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

    def test_unregistered_strategy_fails_clearly(
        self, workspace, pristine_state, tmp_path, capsys
    ):
        # A state created where the strategy it names was registered.
        _, _, paths = workspace
        CLEANUPS.register("no_such_strategy")(marked_gralmatch)
        try:
            state = created_under("no_such_strategy", pristine_state, paths, tmp_path / "state")
        finally:
            CLEANUPS.unregister("no_such_strategy")
        assert main(["ingest", str(paths["batch2"]), "--state", str(state)]) == 2
        assert "unknown cleanup 'no_such_strategy'" in capsys.readouterr().err

    def test_strategy_without_the_marker_fails_clearly(
        self, workspace, pristine_state, tmp_path, capsys
    ):
        # A registered strategy ingest cannot run per component, where the
        # state was created under a marked one of that name.
        _, _, paths = workspace
        CLEANUPS.register("unmarked_gralmatch")(marked_gralmatch)
        try:
            state = created_under("unmarked_gralmatch", pristine_state, paths, tmp_path / "state")
        finally:
            CLEANUPS.unregister("unmarked_gralmatch")
        num_records = len(IncrementalMatcher.load(state).state.records)
        CLEANUPS.register("unmarked_gralmatch")(
            lambda edges, config: gralmatch_cleanup(edges, config)
        )
        try:
            code = main(["ingest", str(paths["batch2"]), "--state", str(state)])
        finally:
            CLEANUPS.unregister("unmarked_gralmatch")
        assert code == 2
        err = capsys.readouterr().err
        assert "'unmarked_gralmatch' is not marked component_local" in err
        assert len(IncrementalMatcher.load(state).state.records) == num_records


def marked_gralmatch(edges, config):
    return gralmatch_cleanup(edges, config)


marked_gralmatch.component_local = True


def created_under(strategy, pristine_state, paths, state_dir):
    """A state with the pristine state's fitted components but created
    under ``strategy``, fed the first batch and saved in ``state_dir``."""
    pristine = IncrementalMatcher.load(pristine_state).state
    matcher = IncrementalMatcher.create(
        pristine.matcher,
        pristine.blocking,
        cleanup_config=pristine.cleanup_config,
        pre_cleanup_config=pristine.pre_cleanup_config,
        cleanup_strategy=strategy,
    )
    matcher.ingest(read_dataset_csv(paths["batch1"]).records)
    return matcher.save(state_dir)


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

    @pytest.mark.parametrize("command", ["ingest", "state show"])
    def test_an_older_version_exits_2_before_writing(
        self, workspace, pristine_state, tmp_path, capsys, command
    ):
        # This build reads version 5 only.  Both commands print the refusal,
        # which says how to carry the state forward, and write nothing.
        _, _, paths = workspace
        state = shutil.copytree(pristine_state, tmp_path / "state")
        set_format_version(state, 4)
        before = file_bytes(state)
        groups_out = tmp_path / "groups.json"
        argv = (
            ["ingest", str(paths["batch2"]), "--state", str(state)]
            if command == "ingest"
            else ["state", "show", str(state)]
        )
        capsys.readouterr()
        assert main([*argv, "--groups-out", str(groups_out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: match state at {state} has format version 4; this build "
            "reads version 5 only.  To carry a version 2-4 state forward"
        )
        assert "ingest an empty batch and save it" in err
        assert file_bytes(state) == before
        assert not groups_out.exists()
