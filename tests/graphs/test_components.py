"""Tests for connected component discovery (union-find over edge lists)."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import union_find_components


class TestConnectedComponents:
    def test_empty_graph(self):
        assert union_find_components([]) == []

    def test_single_component(self):
        assert union_find_components([(1, 2), (2, 3), (3, 1)]) == [{1, 2, 3}]

    def test_two_components_sorted_by_size(self):
        comps = union_find_components([(1, 2), (3, 4), (4, 5)])
        assert comps[0] == {3, 4, 5}
        assert comps[1] == {1, 2}

    def test_isolated_nodes_are_singletons(self):
        comps = union_find_components([(1, 2)], [99])
        assert {99} in comps
        assert len(comps) == 2

    def test_equal_sizes_order_by_smallest_member(self):
        # {b, c} comes first, but {a, d} holds the smaller member.
        assert union_find_components([("b", "c"), ("a", "d")]) == [{"a", "d"}, {"b", "c"}]

    def test_order_does_not_depend_on_insertion_order(self):
        edges = [(5, 6), (1, 2), (7, 8), (8, 9), (3, 4)]
        expected = [{7, 8, 9}, {1, 2}, {3, 4}, {5, 6}]
        assert union_find_components(edges) == expected
        assert union_find_components(reversed(edges)) == expected

    def test_mixed_labels_order_by_repr(self):
        # Ties compare the smallest member repr: "'9'" (a string's repr
        # opens with a quote) sorts before "10", though 9 < 10.
        comps = union_find_components([(10, 11), ("9", "x")], [0])
        assert comps == [{"9", "x"}, {10, 11}, {0}]

    def test_long_path_does_not_recurse(self):
        # 10_000-node path: would blow the recursion limit with recursive DFS.
        comps = union_find_components([(i, i + 1) for i in range(10_000)])
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
        ours = {frozenset(c) for c in union_find_components(edges)}
        theirs = {frozenset(c) for c in nx.connected_components(nx.Graph(edges))}
        assert ours == theirs

    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_components_partition_nodes(self, edges):
        comps = union_find_components(edges)
        all_nodes = [node for comp in comps for node in comp]
        assert len(all_nodes) == len(set(all_nodes))
        assert set(all_nodes) == {node for edge in edges for node in edge}
