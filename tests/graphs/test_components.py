"""Tests for connected component discovery."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, component_of, connected_components, largest_component
from repro.graphs.components import components_from_edges


class TestConnectedComponents:
    def test_empty_graph(self):
        assert connected_components(Graph()) == []

    def test_single_component(self):
        g = Graph([(1, 2), (2, 3), (3, 1)])
        comps = connected_components(g)
        assert comps == [{1, 2, 3}]

    def test_two_components_sorted_by_size(self):
        g = Graph([(1, 2), (3, 4), (4, 5)])
        comps = connected_components(g)
        assert comps[0] == {3, 4, 5}
        assert comps[1] == {1, 2}

    def test_isolated_nodes_are_singletons(self):
        g = Graph([(1, 2)])
        g.add_node(99)
        comps = connected_components(g)
        assert {99} in comps
        assert len(comps) == 2

    def test_long_path_does_not_recurse(self):
        # 10_000-node path: would blow the recursion limit with recursive DFS.
        edges = [(i, i + 1) for i in range(10_000)]
        comps = connected_components(Graph(edges))
        assert len(comps) == 1
        assert len(comps[0]) == 10_001

    def test_components_from_edges_helper(self):
        comps = components_from_edges([("a", "b"), ("c", "d")])
        assert len(comps) == 2


class TestComponentOf:
    def test_returns_containing_component(self):
        g = Graph([(1, 2), (2, 3), (10, 11)])
        assert component_of(g, 1) == {1, 2, 3}
        assert component_of(g, 11) == {10, 11}

    def test_missing_node_raises(self):
        with pytest.raises(KeyError):
            component_of(Graph(), "nope")


class TestLargestComponent:
    def test_empty(self):
        assert largest_component(Graph()) == set()

    def test_picks_biggest(self):
        g = Graph([(1, 2), (3, 4), (4, 5), (5, 6)])
        assert largest_component(g) == {3, 4, 5, 6}

    def test_tie_goes_to_the_first_of_connected_components(self):
        # {b, c} is inserted first, but {a, d} holds the smaller member.
        g = Graph([("b", "c"), ("a", "d")])
        assert largest_component(g) == {"a", "d"}
        assert largest_component(g) == connected_components(g)[0]


@st.composite
def random_edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    num_edges = draw(st.integers(min_value=0, max_value=60))
    edges = []
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.append((u, v))
    return edges


class TestComponentsAgainstNetworkx:
    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, edges):
        g = Graph(edges)
        ours = {frozenset(c) for c in connected_components(g)}
        nxg = nx.Graph(edges)
        theirs = {frozenset(c) for c in nx.connected_components(nxg)}
        assert ours == theirs

    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_components_partition_nodes(self, edges):
        g = Graph(edges)
        comps = connected_components(g)
        all_nodes = [node for comp in comps for node in comp]
        assert len(all_nodes) == len(set(all_nodes))
        assert set(all_nodes) == set(g.nodes())
