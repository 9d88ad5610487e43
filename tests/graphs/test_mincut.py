"""Tests for max-flow, minimum s-t cuts and global minimum edge cuts."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    connected_components,
    max_flow,
    minimum_edge_cut,
    minimum_st_edge_cut,
)
from repro.graphs.graph import canonical_edge


def two_cliques_with_bridge():
    left = [(1, 2), (2, 3), (1, 3)]
    right = [(4, 5), (5, 6), (4, 6)]
    return Graph(left + right + [(3, 4)])


class TestMaxFlow:
    def test_single_edge(self):
        g = Graph([(1, 2)])
        assert max_flow(g, 1, 2) == 1

    def test_parallel_paths(self):
        g = Graph([(1, 2), (2, 4), (1, 3), (3, 4)])
        assert max_flow(g, 1, 4) == 2

    def test_complete_graph(self):
        g = Graph.complete(range(5))
        assert max_flow(g, 0, 4) == 4

    def test_disconnected_nodes_have_zero_flow(self):
        g = Graph([(1, 2), (3, 4)])
        assert max_flow(g, 1, 3) == 0

    def test_same_source_sink_raises(self):
        g = Graph([(1, 2)])
        with pytest.raises(ValueError):
            max_flow(g, 1, 1)

    def test_missing_node_raises(self):
        g = Graph([(1, 2)])
        with pytest.raises(KeyError):
            max_flow(g, 1, 99)


class TestMinimumSTCut:
    def test_bridge_is_the_cut(self):
        g = two_cliques_with_bridge()
        cut = minimum_st_edge_cut(g, 1, 6)
        assert cut == {(3, 4)}

    def test_cut_disconnects(self):
        g = two_cliques_with_bridge()
        cut = minimum_st_edge_cut(g, 2, 5)
        g.remove_edges(cut)
        comps = connected_components(g)
        comp_of_2 = next(c for c in comps if 2 in c)
        assert 5 not in comp_of_2

    def test_cut_size_equals_max_flow(self):
        g = Graph.complete(range(6))
        assert len(minimum_st_edge_cut(g, 0, 5)) == max_flow(g, 0, 5)


class TestGlobalMinimumEdgeCut:
    def test_bridge_graph(self):
        g = two_cliques_with_bridge()
        cut = minimum_edge_cut(g)
        assert cut == {(3, 4)}

    def test_two_node_graph(self):
        g = Graph([(1, 2)])
        assert minimum_edge_cut(g) == {(1, 2)}

    def test_single_node_raises(self):
        g = Graph()
        g.add_node(1)
        with pytest.raises(ValueError):
            minimum_edge_cut(g)

    def test_cycle_graph_cut_size_two(self):
        g = Graph([(1, 2), (2, 3), (3, 4), (4, 1)])
        cut = minimum_edge_cut(g)
        assert len(cut) == 2
        g.remove_edges(cut)
        assert len(connected_components(g)) == 2

    def test_removal_disconnects_complete_graph(self):
        g = Graph.complete(range(5))
        cut = minimum_edge_cut(g)
        assert len(cut) == 4
        g.remove_edges(cut)
        assert len(connected_components(g)) == 2

    def test_disconnected_graph_returns_empty_cut(self):
        g = Graph([(1, 2), (3, 4)])
        assert minimum_edge_cut(g) == set()


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    edges = set()
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        edges.add(canonical_edge(parent, node))
    extra = draw(st.integers(min_value=0, max_value=12))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.add(canonical_edge(u, v))
    return sorted(edges)


class TestMinCutProperties:
    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_cut_value_matches_networkx(self, edges):
        g = Graph(edges)
        nxg = nx.Graph(edges)
        ours = len(minimum_edge_cut(g))
        theirs = len(nx.minimum_edge_cut(nxg))
        assert ours == theirs

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_cut_value_matches_stoer_wagner(self, edges):
        g = Graph(edges)
        cut_value, _ = nx.stoer_wagner(nx.Graph(edges))
        assert len(minimum_edge_cut(g)) == cut_value

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_removing_cut_disconnects(self, edges):
        g = Graph(edges)
        cut = minimum_edge_cut(g)
        assert cut
        g.remove_edges(cut)
        assert len(connected_components(g)) >= 2
