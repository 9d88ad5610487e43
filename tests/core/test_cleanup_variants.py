"""Tests for the alternative clean-up strategies.

Both strategies cut an :class:`~repro.graphs.idgraph.IdGraph` one connected
component at a time.  The dict-of-sets implementations they replaced are
kept below as differential oracles, on the graph code of
``tests/graphs/reference.py``: bridge removal followed by Algorithm 1, and
the density loop run on each component under its own ``max_iterations``
budget.  The whole-graph density loop before that (one budget shared by
the whole graph, the largest sparse component cut first) is kept as well.
"""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cleanup import CleanupConfig, CleanupReport, gralmatch_cleanup
from repro.core.cleanup_variants import adaptive_cleanup, bridge_removal_cleanup
from repro.graphs.graph import canonical_edge
from repro.graphs.union_find import component_order
from repro.registry import CLEANUPS
from tests.core.test_cleanup_oracle import mixed_label, oracle_clean_graph, planted_partitions
from tests.graphs.test_betweenness import connected_graphs
from tests.graphs.reference import (
    Graph,
    connected_components,
    density,
    reference_bridges,
    reference_max_edge,
)


# -- the oracles -------------------------------------------------------------------


def reference_bridge_removal_cleanup(edges, config):
    """Bridges out of every component above ``mu``, then Algorithm 1."""
    graph = Graph(edges)
    components = connected_components(graph)
    removed_bridges = set()
    for component in components:
        if len(component) > config.mu:
            removed_bridges |= reference_bridges(graph.subgraph(component))
    graph.remove_edges(removed_bridges)
    remaining_components, report = oracle_clean_graph(graph, config)
    report.initial_largest_component = len(components[0]) if components else 0
    report.removed_edges |= removed_bridges
    return remaining_components, report


def reference_adaptive_cleanup(edges, min_density=0.6, max_iterations=10_000):
    """The density loop on each component's subgraph, under its own budget."""
    if not 0.0 < min_density <= 1.0:
        raise ValueError("min_density must be in (0, 1]")
    graph = Graph(edges)
    components = connected_components(graph)
    final = []
    report = CleanupReport(
        initial_largest_component=len(components[0]) if components else 0
    )
    for component in components:
        subgraph = graph.subgraph(component)
        _density_loop(subgraph, min_density, max_iterations, report)
        final.extend(connected_components(subgraph))
    final.sort(key=component_order)
    report.final_largest_component = len(final[0]) if final else 0
    return final, report


def shared_budget_adaptive_cleanup(edges, min_density=0.6, max_iterations=10_000):
    """The density loop over the whole graph, one budget shared by it."""
    graph = Graph(edges)
    components = connected_components(graph)
    report = CleanupReport(
        initial_largest_component=len(components[0]) if components else 0
    )
    _density_loop(graph, min_density, max_iterations, report)
    final_components = connected_components(graph)
    report.final_largest_component = len(final_components[0]) if final_components else 0
    return final_components, report


def _density_loop(graph, min_density, max_iterations, report):
    """Cut the largest sparse component of ``graph`` (in place) until none
    is left or ``max_iterations`` edges are gone."""
    for _ in range(max_iterations):
        sparse = [
            component
            for component in connected_components(graph)
            if len(component) > 2 and density(graph.subgraph(component)) < min_density
        ]
        if not sparse:
            return
        target = max(sparse, key=len)
        edge, _ = reference_max_edge(graph.subgraph(target))
        graph.remove_edge(*edge)
        report.removed_edges.add(edge)
        report.betweenness_removals += 1


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

    def test_complete_groups_of_every_size_are_dense(self):
        # Density 1.0 is never below the highest threshold.
        for size in range(3, 9):
            edges = clique_edges(range(size))
            assert adaptive_cleanup(edges, min_density=1.0) == (
                [set(range(size))],
                CleanupReport(initial_largest_component=size, final_largest_component=size),
            )

    def test_a_piece_at_the_threshold_is_dense_enough(self):
        # A path of four records has 3 of 6 pairs: density 0.5 exactly.
        path = [(1, 2), (2, 3), (3, 4)]
        assert adaptive_cleanup(path, min_density=0.5)[1].num_removed == 0
        _, report = adaptive_cleanup(path, min_density=0.51)
        assert report.removed_edges == {(2, 3)}

    @given(connected_graphs(max_nodes=10, max_extra=20), st.data())
    @settings(max_examples=60, deadline=None)
    def test_density_matches_networkx(self, edges, data):
        # In one round, a component of three or more records is cut exactly
        # when networkx finds it below the threshold, at it and just above.
        graph = nx.Graph(edges)
        actual = nx.density(graph)
        min_density = data.draw(
            st.sampled_from([actual, min(1.0, math.nextafter(actual, 2.0)), 0.5, 0.6, 1.0])
        )
        _, report = adaptive_cleanup(edges, min_density, max_iterations=1)
        assert report.betweenness_removals == int(len(graph) > 2 and actual < min_density)

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


class TestBridgeRemovalOracle:
    @given(
        st.one_of(labelled_graphs(), planted_partitions()),
        st.integers(2, 5),
        st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_reference(self, edges, mu, gamma_slack):
        # The components, their order and the whole report.
        config = CleanupConfig(gamma=mu + gamma_slack, mu=mu)
        assert bridge_removal_cleanup(edges, config) == reference_bridge_removal_cleanup(
            edges, config
        )

    def test_the_min_cut_fallback_matches_the_reference(self):
        # Two cliques joined by two parallel false positives: no bridge, so
        # Algorithm 1's minimum cut splits them.
        edges, left, right = two_cliques_with_bridge()
        edges.append((left[0], right[1]))
        config = CleanupConfig(gamma=8, mu=6)
        result = bridge_removal_cleanup(edges, config)
        assert result == reference_bridge_removal_cleanup(edges, config)
        assert result[1].mincut_removals == 2


class TestAdaptiveOracle:
    @given(labelled_graphs(), st.sampled_from([0.3, 0.6, 0.9]), st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_component_reference(self, edges, min_density, max_iterations):
        # The components, their order and the whole report, also where a
        # component's budget runs out.
        assert adaptive_cleanup(edges, min_density, max_iterations) == (
            reference_adaptive_cleanup(edges, min_density, max_iterations)
        )

    def test_a_budget_that_runs_out_matches_the_reference(self):
        # Two paths of seven records need two removals each; one each is
        # all the budget allows, which leaves a sparse piece in both.
        edges = [(f"a{i}", f"a{i + 1}") for i in range(6)]
        edges += [(f"b{i}", f"b{i + 1}") for i in range(6)]
        components, report = adaptive_cleanup(edges, max_iterations=1)
        assert (components, report) == reference_adaptive_cleanup(edges, max_iterations=1)
        assert report.betweenness_removals == 2
        assert report.final_largest_component == 4

    @given(labelled_graphs(), st.sampled_from([0.3, 0.6, 0.9]), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_per_component_budgets_match_the_whole_graph_loop(
        self, edges, min_density, max_iterations
    ):
        components, report = adaptive_cleanup(edges, min_density, max_iterations)
        expected_components, expected = shared_budget_adaptive_cleanup(
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
        _, shared = shared_budget_adaptive_cleanup(edges, max_iterations=2)
        assert (report.betweenness_removals, shared.betweenness_removals) == (4, 2)
        assert (report.final_largest_component, shared.final_largest_component) == (3, 4)
