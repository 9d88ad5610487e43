"""Tests for connected component discovery."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, connected_components


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

    def test_equal_sizes_order_by_smallest_member(self):
        # {b, c} is inserted first, but {a, d} holds the smaller member.
        g = Graph([("b", "c"), ("a", "d")])
        assert connected_components(g) == [{"a", "d"}, {"b", "c"}]

    def test_order_does_not_depend_on_insertion_order(self):
        edges = [(5, 6), (1, 2), (7, 8), (8, 9), (3, 4)]
        expected = [{7, 8, 9}, {1, 2}, {3, 4}, {5, 6}]
        assert connected_components(Graph(edges)) == expected
        assert connected_components(Graph(reversed(edges))) == expected

    def test_mixed_labels_order_by_repr(self):
        # Ties compare the smallest member repr: "'9'" (a string's repr
        # opens with a quote) sorts before "10", though 9 < 10.
        g = Graph([(10, 11), ("9", "x")])
        g.add_node(0)
        assert connected_components(g) == [{"9", "x"}, {10, 11}, {0}]

    def test_long_path_does_not_recurse(self):
        # 10_000-node path: would blow the recursion limit with recursive DFS.
        edges = [(i, i + 1) for i in range(10_000)]
        comps = connected_components(Graph(edges))
        assert len(comps) == 1
        assert len(comps[0]) == 10_001


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
