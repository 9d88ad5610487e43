"""Tests for bridge detection on int pieces.

Cross-checked against networkx and against the dict-of-nodes Tarjan search
it replaced (:func:`~tests.graphs.reference.reference_bridges`), on int,
string and mixed labels.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import IdGraph, bridges, union_find_components
from repro.graphs.graph import canonical_edge
from tests.graphs.reference import Graph, reference_bridges
from tests.graphs.test_betweenness import labelled_connected_graphs


def bridges_of(edges):
    """Every bridge of the graph of ``edges``, found piece by piece, named."""
    graph = IdGraph(edges)
    return {
        graph.edge(i, j)
        for piece in graph.pieces(range(len(graph.labels)))
        for i, j in graph.bridges(piece)
    }


class TestBridges:
    def test_single_edge_is_a_bridge(self):
        assert bridges_of([(1, 2)]) == {(1, 2)}

    def test_cycle_has_no_bridges(self):
        assert bridges_of([(1, 2), (2, 3), (3, 1)]) == set()

    def test_two_cliques_with_bridge(self):
        left = [(1, 2), (2, 3), (1, 3)]
        right = [(4, 5), (5, 6), (4, 6)]
        assert bridges_of(left + right + [(3, 4)]) == {(3, 4)}

    def test_path_all_edges_are_bridges(self):
        edges = [(i, i + 1) for i in range(6)]
        assert bridges_of(edges) == {canonical_edge(u, v) for u, v in edges}

    def test_empty_graph(self):
        assert bridges([]) == []

    def test_isolated_nodes_have_no_bridges(self):
        # Nodes 2 and 3 have no edge.
        assert bridges([[1], [0], [], []]) == [(0, 1)]

    def test_disconnected_components_handled(self):
        assert bridges_of([(1, 2), (3, 4), (4, 5), (3, 5)]) == {(1, 2)}
        assert bridges([[1], [0], [3, 4], [2, 4], [2, 3]]) == [(0, 1)]

    def test_star_every_spoke_is_a_bridge(self):
        assert bridges_of([(0, 1), (0, 2), (0, 3)]) == {(0, 1), (0, 2), (0, 3)}

    def test_cut_vertex_between_cycles_is_not_a_bridge(self):
        # Two triangles sharing node 3: removing 3 disconnects the graph,
        # but every edge lies on a cycle.
        assert bridges_of([(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]) == set()

    def test_cycle_with_a_pendant_path(self):
        assert bridges_of([(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)]) == {(3, 4), (4, 5)}

    def test_string_labels_give_canonical_edges(self):
        edges = [("b", "a"), ("c", "b"), ("c", "d"), ("d", "e"), ("e", "c")]
        assert bridges_of(edges) == {("a", "b"), ("b", "c")}

    def test_the_kernel_returns_search_tree_pairs(self):
        # The search from 0 reaches 1, then 2: each bridge as (parent, child).
        assert sorted(bridges([[1], [0, 2], [1]])) == [(0, 1), (1, 2)]


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=15))
    edges = set()
    num_edges = draw(st.integers(min_value=1, max_value=25))
    for _ in range(num_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.add(canonical_edge(u, v))
    return sorted(edges)


class TestAgainstNetworkx:
    @given(random_graphs())
    @settings(max_examples=50, deadline=None)
    def test_bridges_match_networkx(self, edges):
        theirs = {canonical_edge(u, v) for u, v in nx.bridges(nx.Graph(edges))}
        assert bridges_of(edges) == theirs

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_removing_a_bridge_disconnects_its_component(self, edges):
        before = len(union_find_components(edges))
        for bridge in bridges_of(edges):
            kept = [edge for edge in edges if edge != bridge]
            assert len(union_find_components(kept, [node for edge in edges for node in edge])) == (
                before + 1
            )

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_removing_any_other_edge_keeps_its_component_connected(self, edges):
        nodes = [node for edge in edges for node in edge]
        before = len(union_find_components(edges))
        found = bridges_of(edges)
        for edge in edges:
            if edge in found:
                continue
            kept = [other for other in edges if other != edge]
            assert len(union_find_components(kept, nodes)) == before


class TestAgainstTheReference:
    @given(st.one_of(random_graphs(), labelled_connected_graphs()))
    @settings(max_examples=80, deadline=None)
    def test_the_same_bridges_as_the_dict_search(self, edges):
        assert bridges_of(edges) == reference_bridges(Graph(edges))
