"""The per-component clean-up against the whole-graph loop it replaced.

``gralmatch_cleanup`` runs Algorithm 1 one component at a time.  The
whole-graph formulation it replaced — find the largest component of the
whole graph after every removal — is kept below verbatim as the
differential oracle.  Both must return the same components in the same
order and the same :class:`CleanupReport`, on random planted-partition
graphs large enough for the min-cut phase to run and on the kept edges of
the golden dataset, under the base thresholds and every sensitivity
variant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.core.cleanup import CleanupConfig, CleanupReport, gralmatch_cleanup
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.core.precleanup import PreCleanupConfig
from repro.core.stages import apply_pre_cleanup
from repro.datagen import GenerationConfig, generate_benchmark
from repro.graphs.betweenness import max_betweenness_edge
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.mincut import minimum_edge_cut
from repro.matching import LogisticRegressionMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs


# -- the oracle: Algorithm 1 with whole-graph rescans ---------------------------


def oracle_cleanup(edges, config=None):
    config = config or CleanupConfig()
    graph = Graph(edges)
    report = CleanupReport()

    components = connected_components(graph)
    report.initial_largest_component = len(components[0]) if components else 0

    # Phase 1: Minimum Edge Cut until every component is <= gamma.
    if config.gamma is not None:
        _split_with_minimum_cuts(graph, config.gamma, report)

    # Phase 2: Betweenness Centrality until every component is <= mu.
    _refine_with_betweenness(graph, config.mu, report)

    final_components = connected_components(graph)
    report.final_largest_component = (
        len(final_components[0]) if final_components else 0
    )
    return [set(component) for component in final_components], report


def _split_with_minimum_cuts(graph, gamma, report):
    while True:
        largest = _largest_component(graph)
        if largest is None or len(largest) <= gamma:
            return
        subgraph = graph.subgraph(largest)
        cut = minimum_edge_cut(subgraph)
        if not cut:
            return
        graph.remove_edges(cut)
        report.removed_edges.update(cut)
        report.mincut_removals += len(cut)


def _refine_with_betweenness(graph, mu, report):
    while True:
        largest = _largest_component(graph)
        if largest is None or len(largest) <= mu:
            return
        subgraph = graph.subgraph(largest)
        edge, _ = max_betweenness_edge(subgraph)
        graph.remove_edge(*edge)
        report.removed_edges.add(edge)
        report.betweenness_removals += 1


def _largest_component(graph):
    components = connected_components(graph)
    if not components:
        return None
    return components[0]


# -- the differential check -----------------------------------------------------


def variants(config):
    return {
        "base": config,
        "mec_only": config.mec_only(),
        "bc_only": config.bc_only(),
        "half_gamma": config.half_gamma(),
    }


def assert_matches_oracle(edges, config):
    components, report = gralmatch_cleanup(edges, config)
    expected_components, expected = oracle_cleanup(edges, config)
    assert components == expected_components
    assert report.removed_edges == expected.removed_edges
    assert report.mincut_removals == expected.mincut_removals
    assert report.betweenness_removals == expected.betweenness_removals
    assert report.initial_largest_component == expected.initial_largest_component
    assert report.final_largest_component == expected.final_largest_component
    return report


@st.composite
def planted_partitions(draw):
    """Near-cliques of 1-6 records joined by random false-positive edges.

    Consecutive groups are chained by a false positive; the chain breaks
    (starting a new component) only after 20 records, so the largest
    component holds more than 20.  Random extra false positives add
    parallel paths.  Records are ints or strings (ints sort differently by
    value and by repr, which exercises both tie-break orders).
    """
    sizes = draw(
        st.lists(st.integers(1, 6), min_size=8, max_size=14).filter(
            lambda sizes: sum(sizes) > 20
        )
    )
    label = draw(st.sampled_from([lambda i: i, lambda i: f"r{i:02d}"]))
    groups, next_id = [], 0
    for size in sizes:
        groups.append([label(next_id + offset) for offset in range(size)])
        next_id += size
    records = [record for group in groups for record in group]

    edges = []
    for group in groups:
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                if draw(st.integers(0, 9)) < 8:
                    edges.append((u, v))
        edges.extend(zip(group, group[1:]))  # near-clique, still connected
    breaks = draw(st.sets(st.integers(0, len(groups) - 2), max_size=3))
    chained = 0
    for index, (left, right) in enumerate(zip(groups, groups[1:])):
        if index in breaks and chained >= 20:
            chained = 0
            continue
        edges.append((draw(st.sampled_from(left)), draw(st.sampled_from(right))))
        chained += len(left)
    extra = draw(st.lists(
        st.tuples(st.sampled_from(records), st.sampled_from(records)),
        max_size=len(records) // 3,
    ))
    edges.extend((u, v) for u, v in extra if u != v)
    return edges


class TestPlantedPartitions:
    @given(
        planted_partitions(),
        st.integers(2, 5),
        st.integers(0, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_variant_matches_the_oracle(self, edges, mu, gamma_slack):
        config = CleanupConfig(gamma=mu + 1 + gamma_slack, mu=mu)  # gamma <= 18
        reports = {
            name: assert_matches_oracle(edges, variant)
            for name, variant in variants(config).items()
        }
        # The largest component holds more than 20 records: phase 1 cut.
        assert reports["base"].initial_largest_component > config.gamma
        assert reports["base"].mincut_removals > 0


@pytest.fixture(scope="module")
def golden_kept_edges():
    """Kept edges of the golden run (seed 42, 50 entities, 4 sources)."""
    benchmark = generate_benchmark(
        GenerationConfig(num_entities=50, num_sources=4, seed=42,
                         acquisition_rate=0.05, merger_rate=0.05)
    )
    companies = benchmark.companies
    pairs = build_labeled_pairs(companies, negative_ratio=3, seed=0)
    record_pairs, labels = as_record_pairs(pairs)
    matcher = LogisticRegressionMatcher(num_iterations=120).fit(record_pairs, labels)
    pre_cleanup_config = PreCleanupConfig(max_component_size=30)
    pipeline = EntityGroupMatchingPipeline(
        matcher=matcher,
        blocking=CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]),
        cleanup_config=CleanupConfig.for_num_sources(4),
        pre_cleanup_config=pre_cleanup_config,
    )
    result = pipeline.run(companies)
    _, _, kept, _ = apply_pre_cleanup(
        result.decisions, result.candidates, pre_cleanup_config
    )
    return kept


@pytest.mark.parametrize("variant", ["base", "mec_only", "bc_only", "half_gamma"])
def test_golden_kept_edges_match_the_oracle(golden_kept_edges, variant):
    config = variants(CleanupConfig.for_num_sources(4))[variant]
    report = assert_matches_oracle(golden_kept_edges, config)
    assert report.num_removed > 0
