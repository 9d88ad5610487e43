"""Tests for the alternative clean-up strategies."""

import pytest

from repro.core.cleanup import CleanupConfig, gralmatch_cleanup
from repro.core.cleanup_variants import adaptive_cleanup, bridge_removal_cleanup
from repro.graphs.graph import canonical_edge


def clique_edges(nodes):
    nodes = list(nodes)
    return [
        (nodes[i], nodes[j])
        for i in range(len(nodes))
        for j in range(i + 1, len(nodes))
    ]


def two_cliques_with_bridge(size=6):
    left = [f"a{i}" for i in range(size)]
    right = [f"b{i}" for i in range(size)]
    return (
        clique_edges(left) + clique_edges(right) + [(left[-1], right[0])],
        left,
        right,
    )


class TestBridgeRemovalCleanup:
    def test_removes_the_false_positive_bridge(self):
        edges, left, right = two_cliques_with_bridge()
        components, report = bridge_removal_cleanup(edges, CleanupConfig(gamma=25, mu=6))
        assert {frozenset(c) for c in components} == {frozenset(left), frozenset(right)}
        assert canonical_edge(left[-1], right[0]) in report.removed_edges

    def test_small_components_untouched(self):
        edges = clique_edges(["x", "y", "z"])
        components, report = bridge_removal_cleanup(edges, CleanupConfig(gamma=25, mu=5))
        assert {frozenset(c) for c in components} == {frozenset({"x", "y", "z"})}
        assert report.num_removed == 0

    def test_falls_back_to_algorithm1_for_non_bridge_false_positives(self):
        # Two cliques joined by TWO parallel false positives: not bridges, so
        # the fallback (Algorithm 1) must still split the component.
        edges, left, right = two_cliques_with_bridge()
        edges.append((left[0], right[1]))
        components, report = bridge_removal_cleanup(edges, CleanupConfig(gamma=8, mu=6))
        assert all(len(c) <= 6 for c in components)
        assert report.num_removed >= 2

    def test_empty_input(self):
        components, report = bridge_removal_cleanup([], CleanupConfig())
        assert components == []
        assert report.num_removed == 0

    def test_records_isolated_by_the_bridge_pass_stay_as_singletons(self):
        # A 5-clique plus a pendant record joined by a bridge: removing the
        # bridge isolates "p", which must come back as its own component,
        # exactly as under Algorithm 1.
        edges = clique_edges([f"a{i}" for i in range(5)]) + [("a4", "p")]
        config = CleanupConfig(gamma=25, mu=5)
        components, report = bridge_removal_cleanup(edges, config)
        expected, _ = gralmatch_cleanup(edges, config)
        assert components == expected == [{f"a{i}" for i in range(5)}, {"p"}]
        assert report.removed_edges == {("a4", "p")}
        assert report.initial_largest_component == 6
        assert report.final_largest_component == 5


class TestAdaptiveCleanup:
    def test_dense_large_group_survives(self):
        # A dense 12-record group must survive, unlike under Algorithm 1 with
        # mu=5 — the heterogeneous-group-size scenario of WDC Products.
        edges = clique_edges([f"p{i}" for i in range(12)])
        components, report = adaptive_cleanup(edges, min_density=0.6)
        assert {len(c) for c in components} == {12}
        assert report.num_removed == 0

    def test_sparse_bridge_is_removed(self):
        edges, left, right = two_cliques_with_bridge()
        components, report = adaptive_cleanup(edges, min_density=0.6)
        assert {frozenset(c) for c in components} == {frozenset(left), frozenset(right)}
        assert report.betweenness_removals >= 1

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            adaptive_cleanup([("a", "b")], min_density=0.0)
        with pytest.raises(ValueError):
            adaptive_cleanup([("a", "b")], min_density=1.5)

    def test_pairs_always_kept(self):
        components, report = adaptive_cleanup([("a", "b")], min_density=0.9)
        assert components == [{"a", "b"}]
        assert report.num_removed == 0
