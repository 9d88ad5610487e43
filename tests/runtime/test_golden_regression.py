"""Golden end-to-end regression harness.

Pins the full pipeline's behaviour on a fixed-seed generated dataset: the
three-stage scores (pairwise / pre-cleanup / post-cleanup) and the group
counts must match the values recorded when the execution engine landed, for
the serial engine and for both parallel engines — and the parallel engines
must reproduce the serial artefacts *identically* (same decisions, same
edges, same groups), which is the runtime's central determinism guarantee.

If a change in matching, blocking, clean-up or the runtime shifts any of
these numbers, this suite fails and the pinned values must be re-derived
consciously (PYTHONPATH=src python -m pytest tests/runtime -q will print the
observed values on failure).

Tie-breaking note: the graphs layer iterates adjacency in sorted order
(``Graph.edges`` / ``Graph.subgraph`` / ``sorted_neighbors`` and the
maxflow/betweenness traversals built on them), so clean-up tie-breaks no
longer depend on ``PYTHONHASHSEED``.  The pins below were re-derived after
that change landed and came out identical — the golden dataset has no
minimum-cut or betweenness ties — but tie-prone datasets now reproduce
bit-for-bit under any hash seed (see
``tests/core/test_cleanup_determinism.py``).
"""

import pytest

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.core.cleanup import CleanupConfig
from repro.core.metrics import group_matching_scores, pairwise_scores
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.core.precleanup import PreCleanupConfig
from repro.datagen import GenerationConfig, generate_benchmark
from repro.matching import LogisticRegressionMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs
from repro.runtime import RuntimeConfig

#: Pinned golden values (seed 42, 50 entities, 4 sources; logistic matcher).
GOLDEN = {
    "num_records": 172,
    "num_candidates": 272,
    "num_positive": 224,
    "pairwise_f1": 0.966592428,
    "pre_cleanup_f1": 0.90349076,
    "post_cleanup_f1": 0.968325792,
    "pairwise_precision": 0.96875,
    "post_cleanup_precision": 0.986175115,
    "num_groups": 51,
    "num_pre_cleanup_groups": 46,
}

RUNTIMES = [
    pytest.param(None, id="serial"),
    pytest.param(RuntimeConfig(workers=2, batch_size=64, executor="thread"), id="thread"),
    pytest.param(RuntimeConfig(workers=2, batch_size=64, executor="process"), id="process"),
    pytest.param(
        RuntimeConfig(workers=2, batch_size=64, executor="thread"),
        id="thread-sharded",
    ),
    pytest.param(
        RuntimeConfig(workers=2, batch_size=64, executor="process"),
        id="process-sharded",
    ),
]


@pytest.fixture(scope="module")
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


def run_golden_pipeline(golden_setup, runtime):
    companies, matcher = golden_setup
    pipeline = EntityGroupMatchingPipeline(
        matcher=matcher,
        blocking=CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]),
        cleanup_config=CleanupConfig.for_num_sources(4),
        pre_cleanup_config=PreCleanupConfig(max_component_size=30),
        runtime=runtime,
    )
    return pipeline.run(companies)


@pytest.fixture(scope="module")
def serial_result(golden_setup):
    return run_golden_pipeline(golden_setup, None)


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestGoldenScores:
    def test_pinned_counts_and_scores(self, golden_setup, runtime):
        companies, _ = golden_setup
        result = run_golden_pipeline(golden_setup, runtime)
        truth = companies.true_matches()
        pairwise = pairwise_scores(result.positive_edges, truth)
        pre = group_matching_scores(result.pre_cleanup_groups, truth)
        post = group_matching_scores(result.groups, truth)

        observed = {
            "num_records": len(companies),
            "num_candidates": result.num_candidates,
            "num_positive": result.num_positive,
            "pairwise_f1": round(pairwise.f1, 9),
            "pre_cleanup_f1": round(pre.f1, 9),
            "post_cleanup_f1": round(post.f1, 9),
            "pairwise_precision": round(pairwise.precision, 9),
            "post_cleanup_precision": round(post.precision, 9),
            "num_groups": len(result.groups),
            "num_pre_cleanup_groups": len(result.pre_cleanup_groups),
        }
        assert observed == GOLDEN


@pytest.mark.parametrize("runtime", RUNTIMES[1:])
class TestParallelIdenticalToSerial:
    def test_all_artefacts_identical(self, golden_setup, runtime):
        # The determinism contract: at a fixed batch_size, worker count and
        # executor must not change a single bit of the output (chunk shapes
        # are identical, merge order is submission order).
        serial = run_golden_pipeline(
            golden_setup, RuntimeConfig(workers=1, batch_size=runtime.batch_size)
        )
        parallel = run_golden_pipeline(golden_setup, runtime)
        assert parallel.candidates == serial.candidates
        assert parallel.decisions == serial.decisions
        assert parallel.positive_edges == serial.positive_edges
        assert parallel.pre_cleanup_removed == serial.pre_cleanup_removed
        assert parallel.groups.groups == serial.groups.groups
        assert parallel.pre_cleanup_groups.groups == serial.pre_cleanup_groups.groups

    def test_groups_match_default_serial_engine(self, golden_setup, serial_result, runtime):
        # On the golden dataset the final EntityGroups also survive a
        # *different* batch shape (the default single-chunk serial engine):
        # no probability sits within one ULP of the decision threshold.
        parallel = run_golden_pipeline(golden_setup, runtime)
        assert parallel.groups.groups == serial_result.groups.groups
        assert parallel.pre_cleanup_groups.groups == serial_result.pre_cleanup_groups.groups


@pytest.mark.parametrize("workers", [1, 2])
def test_runs_record_chunk_timings(golden_setup, workers):
    result = run_golden_pipeline(
        golden_setup, RuntimeConfig(workers=workers, batch_size=64, executor="thread")
    )
    chunk_keys = [key for key in result.timings if key.startswith("pairwise_matching/chunk")]
    # 272 candidates at batch size 64 -> 5 chunks, serial and parallel alike.
    assert len(chunk_keys) == 5
    assert {"blocking", "pairwise_matching", "graph_cleanup"} <= set(result.timings)
