"""Tests for the alternative clean-up strategies.

``adaptive_cleanup`` cleans each connected component on its own, under its
own ``max_iterations`` budget.  The whole-graph loop it replaced — one
budget shared by the whole graph, the largest sparse component cut first —
is kept below verbatim as the differential oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cleanup import CleanupConfig, CleanupReport, gralmatch_cleanup
from repro.core.cleanup_variants import adaptive_cleanup, bridge_removal_cleanup
from repro.graphs.betweenness import max_betweenness_edge
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph, canonical_edge
from repro.graphs.validation import density
from repro.registry import CLEANUPS
from tests.core.test_cleanup_oracle import mixed_label


# -- the oracle: the density loop over the whole graph, one shared budget -------


def reference_adaptive_cleanup(edges, min_density=0.6, max_iterations=10_000):
    if not 0.0 < min_density <= 1.0:
        raise ValueError("min_density must be in (0, 1]")
    graph = Graph(edges)
    report = CleanupReport()
    components = connected_components(graph)
    report.initial_largest_component = len(components[0]) if components else 0

    for _ in range(max_iterations):
        sparse = [
            component
            for component in connected_components(graph)
            if len(component) > 2 and density(graph.subgraph(component)) < min_density
        ]
        if not sparse:
            break
        target = max(sparse, key=len)
        subgraph = graph.subgraph(target)
        edge, _ = max_betweenness_edge(subgraph)
        graph.remove_edge(*edge)
        report.removed_edges.add(edge)
        report.betweenness_removals += 1

    final_components = connected_components(graph)
    report.final_largest_component = len(final_components[0]) if final_components else 0
    return [set(component) for component in final_components], report


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

    def test_empty_input(self):
        components, report = adaptive_cleanup([])
        assert components == []
        assert report == CleanupReport()

    def test_zero_budget_removes_nothing(self):
        edges, left, right = two_cliques_with_bridge()
        components, report = adaptive_cleanup(edges, max_iterations=0)
        assert components == [set(left) | set(right)]
        assert report.num_removed == report.betweenness_removals == 0
        assert report.initial_largest_component == report.final_largest_component == 12

    def test_report_component_sizes(self):
        edges, left, right = two_cliques_with_bridge()
        _, report = adaptive_cleanup(edges)
        assert report.removed_edges == {canonical_edge(left[-1], right[0])}
        assert (report.initial_largest_component, report.final_largest_component) == (12, 6)

    def test_components_clean_as_if_alone(self):
        # A bridged pair of cliques next to a seven-record path: the joint
        # run is the two separate runs, merged in component order.
        cliques, _, _ = two_cliques_with_bridge()
        path = [(f"c{i}", f"c{i + 1}") for i in range(6)]
        components, report = adaptive_cleanup(cliques + path)
        clique_components, clique_report = adaptive_cleanup(cliques)
        path_components, path_report = adaptive_cleanup(path)
        assert sorted(map(sorted, components)) == sorted(
            map(sorted, clique_components + path_components)
        )
        assert report.removed_edges == clique_report.removed_edges | path_report.removed_edges
        assert report.betweenness_removals == (
            clique_report.betweenness_removals + path_report.betweenness_removals
        )
        assert report.initial_largest_component == 12

    def test_the_registered_strategy_is_component_local(self):
        # Ingest re-cleans only dirty components, which needs the marker;
        # the adapter ignores gamma and mu.
        strategy = CLEANUPS.get("adaptive")
        assert strategy.component_local is True
        edges, _, _ = two_cliques_with_bridge()
        assert strategy(edges, CleanupConfig(gamma=3, mu=2)) == adaptive_cleanup(edges)


@st.composite
def labelled_graphs(draw):
    """Random sparse graphs of up to 30 records in several components, with
    int, string or mixed (:func:`mixed_label`) record labels."""
    size = draw(st.integers(3, 30))
    label = draw(st.sampled_from([lambda i: i, lambda i: f"r{i:02d}", mixed_label]))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
        min_size=size // 2,
        max_size=2 * size,
    ))
    return [(label(u), label(v)) for u, v in pairs if u != v]


class TestAdaptiveOracle:
    @given(labelled_graphs(), st.sampled_from([0.3, 0.6, 0.9]), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_per_component_budgets_match_the_whole_graph_loop(
        self, edges, min_density, max_iterations
    ):
        components, report = adaptive_cleanup(edges, min_density, max_iterations)
        expected_components, expected = reference_adaptive_cleanup(
            edges, min_density, max_iterations
        )
        if expected.betweenness_removals < max_iterations:
            # The shared budget did not bind: the very same clean-up.
            assert components == expected_components
            assert report == expected
        else:
            # Each component's removals begin with those the shared budget
            # allowed it, and no component's budget is exceeded.
            assert expected.removed_edges <= report.removed_edges
            assert report.betweenness_removals <= max_iterations * len(
                connected_components(Graph(edges))
            )
            assert report.initial_largest_component == expected.initial_largest_component

    @given(labelled_graphs(), st.sampled_from([0.3, 0.6, 0.9]))
    @settings(max_examples=40, deadline=None)
    def test_every_piece_left_is_dense_enough(self, edges, min_density):
        # Under the default budget the loop only stops with no sparse piece.
        components, report = adaptive_cleanup(edges, min_density)
        kept = Graph(edges)
        kept.remove_edges(report.removed_edges)
        assert report.removed_edges <= {canonical_edge(u, v) for u, v in edges}
        assert connected_components(kept) == components
        for component in components:
            if len(component) > 2:
                assert density(kept.subgraph(component)) >= min_density

    @given(labelled_graphs())
    @settings(max_examples=40, deadline=None)
    def test_edge_order_does_not_matter(self, edges):
        flipped = [(v, u) for u, v in reversed(edges)]
        assert adaptive_cleanup(flipped) == adaptive_cleanup(edges)

    def test_each_component_gets_its_own_budget(self):
        # Two paths of seven records: each needs two removals (7 -> 3 + 4,
        # then 4 -> 2 + 2), so a budget of two cleans both, where one shared
        # budget stopped after one removal in each.
        edges = [(f"a{i}", f"a{i + 1}") for i in range(6)]
        edges += [(f"b{i}", f"b{i + 1}") for i in range(6)]
        _, report = adaptive_cleanup(edges, max_iterations=2)
        _, shared = reference_adaptive_cleanup(edges, max_iterations=2)
        assert (report.betweenness_removals, shared.betweenness_removals) == (4, 2)
        assert (report.final_largest_component, shared.final_largest_component) == (3, 4)
