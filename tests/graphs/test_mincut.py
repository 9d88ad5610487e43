"""Tests for the unit-capacity residual network and global minimum edge cuts."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, connected_components, minimum_edge_cut
from repro.graphs.graph import canonical_edge
from repro.graphs.maxflow import _ResidualNetwork


def two_cliques_with_bridge():
    left = [(1, 2), (2, 3), (1, 3)]
    right = [(4, 5), (5, 6), (4, 6)]
    return Graph(left + right + [(3, 4)])


def saturated(graph, source, sink):
    network = _ResidualNetwork(graph)
    return network, network.saturate(source, sink)


class TestResidualNetwork:
    # Max-flow values and the s-t cuts behind every global minimum cut.

    def test_single_edge_carries_one_unit(self):
        _, flow = saturated(Graph([(1, 2)]), 1, 2)
        assert flow == 1

    def test_parallel_paths_carry_two_units(self):
        _, flow = saturated(Graph([(1, 2), (2, 4), (1, 3), (3, 4)]), 1, 4)
        assert flow == 2

    def test_complete_graph_flow_is_the_degree(self):
        _, flow = saturated(Graph.complete(range(5)), 0, 4)
        assert flow == 4

    def test_disconnected_nodes_carry_no_flow(self):
        network, flow = saturated(Graph([(1, 2), (3, 4)]), 1, 3)
        assert flow == 0
        assert network.reachable_from(1) == {1, 2}

    def test_pushed_flow_opens_the_reverse_arcs(self):
        network = _ResidualNetwork(Graph([(1, 2), (2, 3)]))
        network.push_unit_flow([1, 2, 3])
        assert network.capacity == {(1, 2): 0, (2, 1): 2, (2, 3): 0, (3, 2): 2}
        assert network.reachable_from(1) == {1}
        assert network.bfs_augmenting_path(3, 1) == [3, 2, 1]

    def test_reset_restores_every_arc(self):
        # minimum_edge_cut reuses one network for every target.
        graph = Graph.complete(range(4))
        network, flow = saturated(graph, 0, 3)
        assert flow == 3
        assert network.saturate(0, 3) == 0
        network.reset()
        assert set(network.capacity.values()) == {1}
        assert network.saturate(0, 3) == 3

    def test_st_cut_is_the_bridge(self):
        graph = two_cliques_with_bridge()
        network, flow = saturated(graph, 1, 6)
        assert flow == 1
        assert network.st_cut_edges(graph, 1) == {(3, 4)}

    def test_st_cut_separates_source_from_sink(self):
        graph = two_cliques_with_bridge()
        network, _ = saturated(graph, 2, 5)
        graph.remove_edges(network.st_cut_edges(graph, 2))
        comp_of_2 = next(c for c in connected_components(graph) if 2 in c)
        assert 5 not in comp_of_2

    def test_st_cut_size_equals_the_flow(self):
        graph = Graph.complete(range(6))
        network, flow = saturated(graph, 0, 5)
        assert len(network.st_cut_edges(graph, 0)) == flow == 5

    def test_adjacency_is_sorted(self):
        network = _ResidualNetwork(Graph([(3, 1), (3, 2), (1, 2), (3, 0)]))
        assert network.adj == {3: [0, 1, 2], 1: [2, 3], 2: [1, 3], 0: [3]}


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

    def test_string_labels_give_canonical_edges(self):
        left = [("a", "b"), ("b", "c"), ("a", "c")]
        right = [("x", "y"), ("y", "z"), ("x", "z")]
        assert minimum_edge_cut(Graph(left + right + [("x", "c")])) == {("c", "x")}


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

    @given(connected_graphs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_st_flow_matches_networkx_edge_connectivity(self, edges, data):
        nodes = sorted({node for edge in edges for node in edge})
        source = data.draw(st.sampled_from(nodes))
        sink = data.draw(st.sampled_from([node for node in nodes if node != source]))
        graph = Graph(edges)
        network, flow = saturated(graph, source, sink)
        assert flow == nx.edge_connectivity(nx.Graph(edges), source, sink)
        assert len(network.st_cut_edges(graph, source)) == flow

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_removing_cut_disconnects(self, edges):
        g = Graph(edges)
        cut = minimum_edge_cut(g)
        assert cut
        g.remove_edges(cut)
        assert len(connected_components(g)) >= 2
