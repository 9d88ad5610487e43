"""Degenerate pipeline inputs must yield singleton groups, not exceptions —
in the serial engine and in both parallel engines."""

import pytest

from repro.blocking import IdOverlapBlocking, TokenOverlapBlocking
from repro.blocking.base import Blocking
from repro.core.cleanup import CleanupConfig
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.datagen import figure2_dataset
from repro.datagen.records import CompanyRecord, Dataset
from repro.matching import IdOverlapMatcher
from repro.matching.base import PairwiseMatcher
from repro.runtime import RuntimeConfig

RUNTIMES = [
    pytest.param(None, id="serial"),
    pytest.param(RuntimeConfig(workers=2, batch_size=8, executor="thread"), id="thread"),
    pytest.param(RuntimeConfig(workers=2, batch_size=8, executor="process"), id="process"),
]


class EmptyBlocking(Blocking):
    """Emits no candidate pairs at all."""

    name = "empty"

    def prepare(self, dataset):
        return None

    def candidates_for(self, shared, records):
        return []


class AllNegativeMatcher(PairwiseMatcher):
    """Predicts NoMatch for every pair (module-level: picklable)."""

    def predict_proba(self, pairs):
        return [0.0 for _ in pairs]


def run_pipeline(dataset, blocking, matcher, runtime):
    pipeline = EntityGroupMatchingPipeline(
        matcher=matcher,
        blocking=blocking,
        cleanup_config=CleanupConfig(gamma=8, mu=4),
        runtime=runtime,
    )
    return pipeline.run(dataset)


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestDegenerateInputs:
    def test_empty_dataset(self, runtime):
        result = run_pipeline(
            Dataset("empty", []), IdOverlapBlocking(), IdOverlapMatcher(), runtime
        )
        assert result.num_candidates == 0
        assert result.num_positive == 0
        assert len(result.groups) == 0
        assert len(result.pre_cleanup_groups) == 0

    def test_zero_candidate_pairs(self, runtime):
        companies, _ = figure2_dataset()
        result = run_pipeline(companies, EmptyBlocking(), IdOverlapMatcher(), runtime)
        assert result.num_candidates == 0
        # Every record must come out as its own singleton group.
        assert len(result.groups) == len(companies)
        assert all(len(group) == 1 for group in result.groups)
        assert result.groups.num_records == len(companies)

    def test_all_negative_predictions(self, runtime):
        companies, _ = figure2_dataset()
        result = run_pipeline(
            companies, TokenOverlapBlocking(top_n=3), AllNegativeMatcher(), runtime
        )
        assert result.num_candidates > 0
        assert result.num_positive == 0
        assert len(result.groups) == len(companies)
        assert all(len(group) == 1 for group in result.groups)

    def test_records_without_identifiers(self, runtime):
        """Identifier-free records survive the id-based stack end to end."""
        records = [
            CompanyRecord(record_id=f"#{i}", source=f"S{i % 2}",
                          entity_id=f"E{i}", name=f"Company {i}")
            for i in range(6)
        ]
        result = run_pipeline(
            Dataset("bare", records), IdOverlapBlocking(), IdOverlapMatcher(), runtime
        )
        assert len(result.groups) == 6
        assert all(len(group) == 1 for group in result.groups)
