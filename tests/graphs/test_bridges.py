"""Tests for bridge detection (cross-checked vs networkx)."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.graphs.bridges import bridges
from repro.graphs.graph import canonical_edge


class TestBridges:
    def test_single_edge_is_a_bridge(self):
        assert bridges(Graph([(1, 2)])) == {(1, 2)}

    def test_cycle_has_no_bridges(self):
        assert bridges(Graph([(1, 2), (2, 3), (3, 1)])) == set()

    def test_two_cliques_with_bridge(self):
        left = [(1, 2), (2, 3), (1, 3)]
        right = [(4, 5), (5, 6), (4, 6)]
        g = Graph(left + right + [(3, 4)])
        assert bridges(g) == {(3, 4)}

    def test_path_all_edges_are_bridges(self):
        edges = [(i, i + 1) for i in range(6)]
        assert bridges(Graph(edges)) == {canonical_edge(u, v) for u, v in edges}

    def test_empty_graph(self):
        assert bridges(Graph()) == set()

    def test_isolated_nodes_have_no_bridges(self):
        g = Graph([(1, 2)])
        g.add_node(3)
        g.add_node(4)
        assert bridges(g) == {(1, 2)}

    def test_disconnected_components_handled(self):
        g = Graph([(1, 2), (3, 4), (4, 5), (3, 5)])
        assert bridges(g) == {(1, 2)}

    def test_star_every_spoke_is_a_bridge(self):
        g = Graph([(0, 1), (0, 2), (0, 3)])
        assert bridges(g) == {(0, 1), (0, 2), (0, 3)}

    def test_cut_vertex_between_cycles_is_not_a_bridge(self):
        # Two triangles sharing node 3: removing 3 disconnects the graph,
        # but every edge lies on a cycle.
        g = Graph([(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
        assert bridges(g) == set()

    def test_cycle_with_a_pendant_path(self):
        g = Graph([(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])
        assert bridges(g) == {(3, 4), (4, 5)}

    def test_string_labels_give_canonical_edges(self):
        g = Graph([("b", "a"), ("c", "b"), ("c", "d"), ("d", "e"), ("e", "c")])
        assert bridges(g) == {("a", "b"), ("b", "c")}


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
        ours = bridges(Graph(edges))
        theirs = {canonical_edge(u, v) for u, v in nx.bridges(nx.Graph(edges))}
        assert ours == theirs

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_removing_a_bridge_disconnects_its_component(self, edges):
        from repro.graphs import connected_components

        graph = Graph(edges)
        before = len(connected_components(graph))
        for bridge in bridges(Graph(edges)):
            mutated = Graph(edges)
            mutated.remove_edge(*bridge)
            assert len(connected_components(mutated)) == before + 1

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_removing_any_other_edge_keeps_its_component_connected(self, edges):
        from repro.graphs import connected_components

        graph = Graph(edges)
        before = len(connected_components(graph))
        found = bridges(graph)
        for edge in edges:
            if edge in found:
                continue
            mutated = Graph(edges)
            mutated.remove_edge(*edge)
            assert len(connected_components(mutated)) == before
