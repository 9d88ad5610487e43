"""Tests for global minimum edge cuts on int pieces.

The int kernel is checked against two networkx minimum-cut algorithms for
the cut's size, and against the dict-of-nodes search it replaced
(:func:`~tests.graphs.reference.reference_minimum_edge_cut`) for the cut
itself, on int, string and mixed labels.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import IdGraph, minimum_edge_cut
from repro.graphs.mincut import _augment, _max_flow, _unit_arcs
from repro.graphs.graph import canonical_edge
from tests.graphs.reference import Graph, reference_minimum_edge_cut
from tests.graphs.test_betweenness import connected_graphs, labelled_connected_graphs


def two_cliques_with_bridge():
    left = [(1, 2), (2, 3), (1, 3)]
    right = [(4, 5), (5, 6), (4, 6)]
    return left + right + [(3, 4)]


def cut_of(edges):
    """The minimum cut :class:`IdGraph` picks for the connected graph of
    ``edges``, as named edges."""
    graph = IdGraph(edges)
    return {graph.edge(i, j) for i, j in graph.minimum_edge_cut(list(range(len(graph.labels))))}


def pieces_after_removing(edges, cut):
    graph = IdGraph(edges)
    for u, v in cut:
        graph.remove_edge(graph.ids[u], graph.ids[v])
    return graph.pieces(range(len(graph.labels)))


def saturated(edges, source, sink):
    """The flow from ``source`` to ``sink`` over the graph of ``edges``, and
    the labels on the source's side."""
    graph = IdGraph(edges)
    flow, side = _max_flow(_unit_arcs(graph.adjacency), graph.ids[source], graph.ids[sink])
    return flow, {label for label, on_side in zip(graph.labels, side) if on_side}


def crossing(edges, side):
    return {canonical_edge(u, v) for u, v in edges if (u in side) != (v in side)}


class TestResidualNetwork:
    # Max-flow values and the s-t cuts behind every global minimum cut.

    def test_single_edge_carries_one_unit(self):
        assert saturated([(1, 2)], 1, 2) == (1, {1})

    def test_parallel_paths_carry_two_units(self):
        assert saturated([(1, 2), (2, 4), (1, 3), (3, 4)], 1, 4)[0] == 2

    def test_complete_graph_flow_is_the_degree(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        flow, side = saturated(edges, 0, 4)
        assert flow == 4
        assert len(crossing(edges, side)) == 4

    def test_disconnected_nodes_carry_no_flow(self):
        assert saturated([(1, 2), (3, 4)], 1, 3) == (0, {1, 2})

    def test_st_cut_is_the_bridge(self):
        edges = two_cliques_with_bridge()
        flow, side = saturated(edges, 1, 6)
        assert flow == 1
        assert crossing(edges, side) == {(3, 4)}

    def test_st_cut_separates_source_from_sink(self):
        _, side = saturated(two_cliques_with_bridge(), 2, 5)
        assert 2 in side and 5 not in side

    def test_st_cut_size_equals_the_flow(self):
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        flow, side = saturated(edges, 0, 5)
        assert len(crossing(edges, side)) == flow == 5

    def test_the_twin_arcs_pair_up(self):
        first, head, twin = _unit_arcs([[1, 2], [0], [0]])
        assert (first, head) == ([0, 2, 3, 4], [1, 2, 0, 0])
        assert twin == [2, 3, 0, 1]

    def test_adjacency_is_sorted(self):
        # Each node's arcs follow its neighbours by increasing id.
        graph = IdGraph([(3, 1), (3, 2), (1, 2), (3, 0)])
        first, head, _ = _unit_arcs(graph.adjacency)
        assert [head[first[i] : first[i + 1]] for i in range(4)] == [[3], [2, 3], [1, 3], [0, 1, 2]]

    def test_pushed_flow_opens_the_reverse_arcs(self):
        # The path 0 - 1 - 2, arcs 0→1, 1→0, 1→2, 2→1: a unit from 0 to 2
        # saturates the forward arcs and doubles the arcs back, and a unit
        # pushed back cancels it.
        arcs = _unit_arcs([[1], [0, 2], [1]])
        capacity = [1, 1, 1, 1]
        assert _augment(arcs, capacity, 0, 2) is None
        assert capacity == [0, 2, 0, 2]
        assert _augment(arcs, capacity, 0, 2) == [4, -1, -1]
        assert _augment(arcs, capacity, 2, 0) is None
        assert capacity == [1, 1, 1, 1]

    def test_every_target_starts_from_full_capacity(self):
        # minimum_edge_cut shares the arcs between its targets; each max
        # flow works on a capacity list of its own.
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        arcs = _unit_arcs(IdGraph(edges).adjacency)
        built = tuple(list(part) for part in arcs)
        assert _max_flow(arcs, 0, 3) == (3, [True, False, False, False])
        assert arcs == built
        assert _max_flow(arcs, 0, 3)[0] == _max_flow(arcs, 0, 2)[0] == 3


class TestGlobalMinimumEdgeCut:
    def test_bridge_graph(self):
        assert cut_of(two_cliques_with_bridge()) == {(3, 4)}

    def test_two_node_graph(self):
        assert cut_of([(1, 2)]) == {(1, 2)}

    def test_single_node_raises(self):
        with pytest.raises(ValueError):
            minimum_edge_cut([[]], [1])

    def test_cycle_graph_cut_size_two(self):
        edges = [(1, 2), (2, 3), (3, 4), (4, 1)]
        cut = cut_of(edges)
        assert len(cut) == 2
        assert len(pieces_after_removing(edges, cut)) == 2

    def test_removal_disconnects_complete_graph(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        cut = cut_of(edges)
        assert len(cut) == 4
        assert len(pieces_after_removing(edges, cut)) == 2

    def test_string_labels_give_canonical_edges(self):
        left = [("a", "b"), ("b", "c"), ("a", "c")]
        right = [("x", "y"), ("y", "z"), ("x", "z")]
        assert cut_of(left + right + [("x", "c")]) == {("c", "x")}

    def test_the_kernel_returns_ids(self):
        # Node 0 has the least degree, so it is the source, and its edge to
        # 1 is the first cut of size one.
        assert minimum_edge_cut([[1], [0, 2], [1]], ["a", "b", "c"]) == [(0, 1)]

    def test_a_piece_is_cut_in_its_own_ids(self):
        # Only the piece's own edges count; the rest of the graph is
        # untouched.
        graph = IdGraph(two_cliques_with_bridge() + [(7, 8), (8, 9), (7, 9)])
        piece = graph.pieces([graph.ids[1]])[0]
        cut = graph.minimum_edge_cut(piece)
        assert [graph.edge(i, j) for i, j in cut] == [(3, 4)]


class TestMinCutProperties:
    @given(connected_graphs(max_nodes=10, max_extra=12))
    @settings(max_examples=40, deadline=None)
    def test_cut_value_matches_networkx(self, edges):
        assert len(cut_of(edges)) == len(nx.minimum_edge_cut(nx.Graph(edges)))

    @given(connected_graphs(max_nodes=10, max_extra=12))
    @settings(max_examples=40, deadline=None)
    def test_cut_value_matches_stoer_wagner(self, edges):
        cut_value, _ = nx.stoer_wagner(nx.Graph(edges))
        assert len(cut_of(edges)) == cut_value

    @given(connected_graphs(max_nodes=10, max_extra=12))
    @settings(max_examples=40, deadline=None)
    def test_removing_cut_disconnects(self, edges):
        cut = cut_of(edges)
        assert cut
        assert len(pieces_after_removing(edges, cut)) >= 2

    @given(connected_graphs(max_nodes=10, max_extra=12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_st_flow_matches_networkx_edge_connectivity(self, edges, data):
        nodes = sorted({node for edge in edges for node in edge})
        source = data.draw(st.sampled_from(nodes))
        sink = data.draw(st.sampled_from([node for node in nodes if node != source]))
        flow, side = saturated(edges, source, sink)
        assert flow == nx.edge_connectivity(nx.Graph(edges), source, sink)
        assert source in side and sink not in side
        assert len(crossing(edges, side)) == flow


class TestAgainstTheReference:
    @given(labelled_connected_graphs())
    @settings(max_examples=120, deadline=None)
    def test_the_same_cut_as_the_dict_search(self, edges):
        assert cut_of(edges) == reference_minimum_edge_cut(Graph(edges))

    @given(st.lists(labelled_connected_graphs(), min_size=2, max_size=4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_piece_is_cut_as_if_alone(self, graphs, data):
        # Several graphs side by side, their labels kept apart by a prefix
        # of the same type: cutting one piece of the whole equals cutting
        # it alone.
        def tag(label, index):
            return label + 1000 * index if isinstance(label, int) else f"g{index}{label}"

        edges = [
            (tag(u, index), tag(v, index))
            for index, part in enumerate(graphs)
            for u, v in part
        ]
        graph = IdGraph(edges)
        piece = data.draw(st.sampled_from(graph.pieces(range(len(graph.labels)))))
        members = {graph.labels[i] for i in piece}
        alone = Graph([(u, v) for u, v in edges if u in members])
        cut = {graph.edge(i, j) for i, j in graph.minimum_edge_cut(piece)}
        assert cut == reference_minimum_edge_cut(alone)
        assert all(canonical_edge(u, v) == (u, v) for u, v in cut)
