"""Shared fixtures of the incremental-ingestion golden suite.

The golden setup mirrors ``tests/runtime/test_golden_regression.py`` (seed
42, 50 entities, 4 sources, logistic matcher) so the batch pipeline being
compared against is exactly the one the runtime suite pins.
"""

import pytest

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.core.cleanup import CleanupConfig
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.core.precleanup import PreCleanupConfig
from repro.datagen import GenerationConfig, generate_benchmark
from repro.matching import LogisticRegressionMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs


@pytest.fixture(scope="package")
def golden_setup():
    benchmark = generate_benchmark(
        GenerationConfig(num_entities=50, num_sources=4, seed=42,
                         acquisition_rate=0.05, merger_rate=0.05)
    )
    companies = benchmark.companies
    pairs = build_labeled_pairs(companies, negative_ratio=3, seed=0)
    record_pairs, labels = as_record_pairs(pairs)
    matcher = LogisticRegressionMatcher(num_iterations=120).fit(record_pairs, labels)
    return companies, matcher


@pytest.fixture(scope="package")
def pipeline_factory(golden_setup):
    """Factory for the golden batch pipeline (runtime config and clean-up
    strategy optional)."""
    _, matcher = golden_setup

    def make(runtime=None, cleanup_strategy="gralmatch"):
        return EntityGroupMatchingPipeline(
            matcher=matcher,
            blocking=CombinedBlocking(
                [IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]
            ),
            cleanup_config=CleanupConfig.for_num_sources(4),
            pre_cleanup_config=PreCleanupConfig(max_component_size=30),
            runtime=runtime,
            cleanup_strategy=cleanup_strategy,
        )

    return make


@pytest.fixture(scope="package")
def batch_result(golden_setup, pipeline_factory):
    """The one-shot batch run every incremental schedule must reproduce."""
    return pipeline_factory().run(golden_setup[0])
