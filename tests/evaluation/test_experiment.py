"""Integration tests for the fine-tuning evaluation and the end-to-end
entity group matching experiment (scaled-down Table 3 / Table 4 runs)."""

import pytest

from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.wdc import WdcConfig, generate_wdc_products
from repro.evaluation import (
    EntityGroupMatchingExperiment,
    ExperimentConfig,
    evaluate_fine_tuning,
    split_dataset,
)
from repro.matching.training import FineTuner


@pytest.fixture(scope="module")
def experiment_benchmark():
    return generate_benchmark(
        GenerationConfig(num_entities=70, num_sources=4, seed=61,
                         acquisition_rate=0.05, merger_rate=0.05)
    )


class TestFineTuneEvaluation:
    def test_logistic_on_companies(self, experiment_benchmark):
        companies = experiment_benchmark.companies
        splits = split_dataset(companies, seed=0)
        tuner = FineTuner(negative_ratio=3, num_epochs=1, seed=0)
        evaluation = evaluate_fine_tuning(companies, splits, "logistic", tuner)
        assert evaluation.model == "logistic"
        assert evaluation.num_training_pairs > 0
        assert evaluation.num_test_pairs > 0
        assert evaluation.scores.f1 > 0.5
        row = evaluation.as_row()
        assert "F1 Score" in row and "Training Time (s)" in row

    def test_id_overlap_heuristic_scores(self, experiment_benchmark):
        securities = experiment_benchmark.securities
        splits = split_dataset(securities, seed=0)
        tuner = FineTuner(negative_ratio=3, num_epochs=1, seed=0)
        evaluation = evaluate_fine_tuning(securities, splits, "id-overlap", tuner)
        # The heuristic has high precision on the easy test negatives.
        assert evaluation.scores.precision > 0.9


class TestEntityGroupMatchingExperiment:
    def test_companies_experiment_with_logistic(self, experiment_benchmark):
        companies = experiment_benchmark.companies
        config = ExperimentConfig(
            model="logistic", dataset_kind="companies", negative_ratio=3,
            num_epochs=1, seed=0,
        )
        experiment = EntityGroupMatchingExperiment(companies, config)
        result = experiment.run()

        assert result.num_candidates > 0
        assert result.num_records == len(companies)
        # Post-clean-up precision must match or exceed the pre-clean-up
        # (transitive-inflated) precision — the core claim of the paper.
        assert result.post_cleanup.precision >= result.pre_cleanup.precision - 1e-9
        assert result.post_cleanup.cluster_purity >= result.pre_cleanup.cluster_purity - 1e-9
        assert result.mu == len(companies.sources)
        row = result.as_row()
        assert "Post F1" in row and "Pre ClPur" in row

    def test_securities_experiment_with_heuristic(self, experiment_benchmark):
        securities = experiment_benchmark.securities
        config = ExperimentConfig(
            model="id-overlap", dataset_kind="securities", negative_ratio=2,
            num_epochs=1, seed=0,
        )
        experiment = EntityGroupMatchingExperiment(securities, config)
        result = experiment.run()
        assert result.post_cleanup.precision > 0.8
        assert result.pairwise.recall > 0.5

    def test_issuer_groups_can_come_from_company_matching(self, experiment_benchmark):
        companies = experiment_benchmark.companies
        securities = experiment_benchmark.securities
        company_groups = [list(ids) for ids in companies.entity_groups().values()]
        config = ExperimentConfig(
            model="id-overlap", dataset_kind="securities",
            issuer_groups=company_groups, num_epochs=1, seed=0,
        )
        result = EntityGroupMatchingExperiment(securities, config).run()
        assert result.num_candidates > 0

    def test_issuer_match_spec_params_merge_with_injected_groups(self, experiment_benchmark):
        # A spec that tweaks an unrelated issuer_match param must still get
        # the run-time group mapping injected (explicit params win, extras
        # fill the rest).
        from repro.specs import ComponentSpec

        securities = experiment_benchmark.securities
        config = ExperimentConfig(
            model="id-overlap", dataset_kind="securities", num_epochs=1, seed=0,
            blocking=(
                ComponentSpec("id_overlap"),
                ComponentSpec("issuer_match", {"cross_source_only": False}),
            ),
        )
        experiment = EntityGroupMatchingExperiment(securities, config)
        blocking = experiment.build_blocking()
        issuer = blocking.blockings[1]
        assert issuer.cross_source_only is False
        assert issuer._group_of  # oracle mapping injected alongside the param

    def test_products_experiment(self):
        products = generate_wdc_products(WdcConfig(num_entities=60, num_sources=10, seed=7))
        config = ExperimentConfig(
            model="logistic", dataset_kind="products", negative_ratio=2,
            num_epochs=1, seed=0,
        )
        result = EntityGroupMatchingExperiment(products, config).run()
        assert result.num_candidates > 0
        assert 0.0 <= result.post_cleanup.f1 <= 1.0

    def test_unknown_dataset_kind(self, experiment_benchmark):
        config = ExperimentConfig(dataset_kind="images")
        experiment = EntityGroupMatchingExperiment(experiment_benchmark.companies, config)
        with pytest.raises(ValueError):
            experiment.build_blocking()

    def test_cleanup_config_defaults_to_num_sources(self, experiment_benchmark):
        companies = experiment_benchmark.companies
        experiment = EntityGroupMatchingExperiment(companies, ExperimentConfig())
        config = experiment.build_cleanup_config()
        assert config.mu == len(companies.sources)

    def test_pre_cleanup_enabled_only_for_companies(self, experiment_benchmark):
        companies = experiment_benchmark.companies
        company_experiment = EntityGroupMatchingExperiment(
            companies, ExperimentConfig(dataset_kind="companies")
        )
        security_experiment = EntityGroupMatchingExperiment(
            companies, ExperimentConfig(dataset_kind="securities")
        )
        assert company_experiment.build_pre_cleanup_config().enabled
        assert not security_experiment.build_pre_cleanup_config().enabled


class TestOneStorePerExperiment:
    """Fine-tuning profiles the corpus once; the matching stage reuses it."""

    def test_run_equals_a_pipeline_that_prepares_its_own_store(
        self, experiment_benchmark, monkeypatch
    ):
        from repro.core.pipeline import EntityGroupMatchingPipeline
        from repro.matching.profiles import ProfileStore

        companies = experiment_benchmark.companies
        config = ExperimentConfig(
            model="logistic", dataset_kind="companies", negative_ratio=3,
            num_epochs=1, seed=0,
        )
        own = EntityGroupMatchingExperiment(companies, config).build_pipeline()
        with own:
            expected = own.run(companies)

        prepared: list[ProfileStore] = []
        original_prepare = ProfileStore.prepare.__func__

        def counting_prepare(cls, records):
            store = original_prepare(cls, records)
            prepared.append(store)
            return store

        passed: list[object] = []
        original_run = EntityGroupMatchingPipeline.run

        def recording_run(self, dataset, profiles=None):
            passed.append(profiles)
            return original_run(self, dataset, profiles=profiles)

        monkeypatch.setattr(ProfileStore, "prepare", classmethod(counting_prepare))
        monkeypatch.setattr(EntityGroupMatchingPipeline, "run", recording_run)
        result = EntityGroupMatchingExperiment(companies, config).run()

        # One store for the whole experiment: fitting's, covering the corpus,
        # handed to the pipeline run.
        assert len(prepared) == 1 and passed == prepared
        assert len(prepared[0]) == len(companies)
        got = result.pipeline_result
        assert got.decisions.pairs == expected.decisions.pairs
        assert got.decisions.probabilities.tobytes() == expected.decisions.probabilities.tobytes()
        assert got.groups.groups == expected.groups.groups
        assert got.pre_cleanup_groups.groups == expected.pre_cleanup_groups.groups

