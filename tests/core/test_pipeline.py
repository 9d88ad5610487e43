"""End-to-end tests of the entity group matching pipeline on the Figure 2
example and on a small generated benchmark."""

import pytest

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.core.cleanup import CleanupConfig
from repro.core.metrics import group_matching_scores, pairwise_scores
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.core.precleanup import PreCleanupConfig
from repro.datagen import GenerationConfig, figure2_dataset, generate_benchmark
from repro.matching import IdOverlapMatcher, LogisticRegressionMatcher, ThresholdNameMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs


@pytest.fixture(scope="module")
def pipeline_benchmark():
    return generate_benchmark(
        GenerationConfig(num_entities=60, num_sources=4, seed=31,
                         acquisition_rate=0.05, merger_rate=0.05)
    )


def default_blocking():
    return CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)])


class TestPipelineOnFigure2:
    def test_id_overlap_matcher_with_cleanup(self):
        companies, _ = figure2_dataset()
        pipeline = EntityGroupMatchingPipeline(
            matcher=IdOverlapMatcher(),
            blocking=default_blocking(),
            cleanup_config=CleanupConfig(gamma=8, mu=4),
        )
        result = pipeline.run(companies)
        assert result.num_candidates > 0
        assert result.groups.num_records == len(companies)
        # Crowdstrike group can only be fully matched via text, and the
        # id-overlap matcher cannot cross the two different ISIN listings —
        # but it must never place Crowdstrike and Crowdstreet together.
        assert not result.groups.same_group("#12", "#13")

    def test_name_matcher_merges_crowdstrike_variants(self):
        companies, _ = figure2_dataset()
        pipeline = EntityGroupMatchingPipeline(
            matcher=ThresholdNameMatcher(similarity_threshold=0.85),
            blocking=default_blocking(),
            cleanup_config=CleanupConfig(gamma=8, mu=4),
        )
        result = pipeline.run(companies)
        assert result.groups.same_group("#12", "#31")

    def test_result_bookkeeping(self):
        companies, _ = figure2_dataset()
        pipeline = EntityGroupMatchingPipeline(
            matcher=IdOverlapMatcher(), blocking=default_blocking()
        )
        result = pipeline.run(companies)
        assert result.num_positive == len(result.positive_edges)
        # One timing per named stage, plus the aggregate "graph_cleanup" key
        # kept for consumers of the pre-stage pipeline layout.
        stage_keys = {
            "blocking",
            "pairwise_matching",
            "pre_cleanup",
            "gralmatch_cleanup",
            "grouping",
            "graph_cleanup",
        }
        assert stage_keys <= set(result.timings)
        # Beyond the stage totals, the runtime records only per-chunk detail.
        assert all(
            key.split("/chunk")[0] in stage_keys for key in result.timings
        )
        graph_stage_sum = (
            result.timings["pre_cleanup"]
            + result.timings["gralmatch_cleanup"]
            + result.timings["grouping"]
        )
        assert result.timings["graph_cleanup"] == pytest.approx(graph_stage_sum)
        assert result.graph_seconds == pytest.approx(graph_stage_sum)
        assert result.inference_seconds >= 0
        assert len(result.decisions) == result.num_candidates


class TestPipelineOnGeneratedData:
    def test_trained_logistic_pipeline_beats_precleanup_stage(self, pipeline_benchmark):
        companies = pipeline_benchmark.companies
        pairs = build_labeled_pairs(companies, negative_ratio=3, seed=0)
        record_pairs, labels = as_record_pairs(pairs)
        matcher = LogisticRegressionMatcher(num_iterations=150).fit(record_pairs, labels)

        pipeline = EntityGroupMatchingPipeline(
            matcher=matcher,
            blocking=default_blocking(),
            cleanup_config=CleanupConfig.for_num_sources(4),
            pre_cleanup_config=PreCleanupConfig(max_component_size=50),
        )
        result = pipeline.run(companies)
        truth = companies.true_matches()

        pairwise = pairwise_scores(result.positive_edges, truth)
        pre = group_matching_scores(result.pre_cleanup_groups, truth)
        post = group_matching_scores(result.groups, truth)

        assert pairwise.recall > 0.3
        # The post-clean-up precision must not be worse than the implied
        # pre-clean-up group precision (the central claim of the paper).
        assert post.precision >= pre.precision - 1e-9
        assert post.cluster_purity >= pre.cluster_purity - 1e-9
        # Final groups respect the group-size cap mu.
        assert all(len(g) <= 4 for g in result.groups.non_singleton_groups())

    def test_groups_partition_every_record(self, pipeline_benchmark):
        companies = pipeline_benchmark.companies
        pipeline = EntityGroupMatchingPipeline(
            matcher=IdOverlapMatcher(), blocking=IdOverlapBlocking(),
            cleanup_config=CleanupConfig.for_num_sources(4),
        )
        result = pipeline.run(companies)
        assert result.groups.num_records == len(companies)
        assert result.pre_cleanup_groups.num_records == len(companies)

    def test_securities_pipeline_with_id_blocking(self, pipeline_benchmark):
        securities = pipeline_benchmark.securities
        pipeline = EntityGroupMatchingPipeline(
            matcher=IdOverlapMatcher(), blocking=IdOverlapBlocking(),
            cleanup_config=CleanupConfig.for_num_sources(4),
            pre_cleanup_config=PreCleanupConfig(enabled=False),
        )
        result = pipeline.run(securities)
        truth = securities.true_matches()
        post = group_matching_scores(result.groups, truth)
        # Identifier matching on securities is the easy benchmark heuristic:
        # precision must be high (only drift-contaminated ids are wrong).
        assert post.precision > 0.9


class TestPreparedProfiles:
    @pytest.fixture(scope="class")
    def fitted(self, pipeline_benchmark):
        companies = pipeline_benchmark.companies
        pairs, labels = as_record_pairs(build_labeled_pairs(companies, negative_ratio=2, seed=0))
        return LogisticRegressionMatcher(num_iterations=50).fit(pairs, labels)

    def test_a_store_missing_a_record_is_rejected_by_name(self, pipeline_benchmark, fitted):
        companies = pipeline_benchmark.companies
        missing = companies.records[17]
        store = fitted.prepare_profiles(
            record for record in companies if record is not missing
        )
        pipeline = EntityGroupMatchingPipeline(matcher=fitted, blocking=default_blocking())
        with pytest.raises(ValueError, match=repr(missing.record_id)):
            pipeline.run(companies, profiles=store)

    def test_a_corpus_store_gives_the_same_run(self, pipeline_benchmark, fitted):
        companies = pipeline_benchmark.companies
        pipeline = EntityGroupMatchingPipeline(matcher=fitted, blocking=default_blocking())
        without = pipeline.run(companies)
        with_store = pipeline.run(companies, profiles=fitted.prepare_profiles(companies))
        assert (
            with_store.decisions.probabilities.tobytes()
            == without.decisions.probabilities.tobytes()
        )
        assert with_store.groups.groups == without.groups.groups

