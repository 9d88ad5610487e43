"""Tests for edge betweenness centrality.

The int kernel is checked bitwise against the dict-of-nodes Brandes loop it
replaced (:func:`~tests.graphs.reference.reference_edge_betweenness`), and
approximately against networkx.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import IdGraph, edge_betweenness
from repro.graphs.graph import canonical_edge
from tests.core.test_cleanup_determinism import tie_heavy_edges
from tests.graphs.reference import (
    Graph,
    reference_edge_betweenness,
    reference_max_edge,
    sorted_nodes,
)


def edge_betweenness_centrality(graph, normalized=True):
    """The kernel's scores for ``graph``, keyed by named edge in
    :meth:`Graph.edges` order: the graph relabelled to ints, nodes in
    sorted order and each node's neighbours in sorted order."""
    labels = sorted_nodes(graph.nodes())
    ids = {label: i for i, label in enumerate(labels)}
    scores = edge_betweenness(
        [[ids[w] for w in graph.sorted_neighbors(label)] for label in labels]
    )
    n = graph.num_nodes
    scale = (n * (n - 1)) / 2.0
    centrality = {}
    for u, v in graph.edges():
        i, j = ids[u], ids[v]
        score = scores[(i, j) if i < j else (j, i)]
        centrality[(u, v)] = score / scale if normalized and scale > 0 else score
    return centrality


def max_betweenness_edge(edges):
    """The maximum-betweenness edge :class:`IdGraph` picks for the connected
    graph of ``edges``, named."""
    graph = IdGraph(edges)
    return graph.edge(*graph.max_betweenness_edge(list(range(len(graph.labels)))))


class TestEdgeBetweenness:
    def test_single_edge(self):
        g = Graph([(1, 2)])
        scores = edge_betweenness_centrality(g, normalized=False)
        assert scores[(1, 2)] == pytest.approx(1.0)

    def test_path_graph_middle_edge_is_highest(self):
        g = Graph([(1, 2), (2, 3), (3, 4)])
        scores = edge_betweenness_centrality(g, normalized=False)
        assert scores[(2, 3)] > scores[(1, 2)]
        assert scores[(2, 3)] == pytest.approx(4.0)

    def test_bridge_between_two_cliques_dominates(self):
        # Two triangles joined by a single bridge edge — the classic
        # false-positive-match structure from the paper's Figure 4.
        left = [(1, 2), (2, 3), (1, 3)]
        right = [(4, 5), (5, 6), (4, 6)]
        bridge = [(3, 4)]
        g = Graph(left + right + bridge)
        scores = edge_betweenness_centrality(g, normalized=False)
        assert max(scores, key=scores.get) == (3, 4)

    def test_max_betweenness_edge_matches_scores(self):
        edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)]
        scores = edge_betweenness_centrality(Graph(edges), normalized=False)
        assert max_betweenness_edge(edges) == (3, 4)
        assert scores[(3, 4)] == max(scores.values())

    def test_max_betweenness_edge_empty_graph_raises(self):
        # A piece without edges.
        graph = IdGraph([(1, 2)])
        graph.remove_edge(0, 1)
        with pytest.raises(ValueError):
            graph.max_betweenness_edge([0])

    def test_normalization(self):
        g = Graph([(1, 2), (2, 3), (3, 4)])
        raw = edge_betweenness_centrality(g, normalized=False)
        norm = edge_betweenness_centrality(g, normalized=True)
        n = 4
        scale = n * (n - 1) / 2
        for edge in raw:
            assert norm[edge] == pytest.approx(raw[edge] / scale)


@st.composite
def connected_graphs(draw, max_nodes=12, max_extra=10):
    """Random small connected graphs (a random tree plus extra edges)."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = set()
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        edges.add(canonical_edge(parent, node))
    extra = draw(st.integers(min_value=0, max_value=max_extra))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.add(canonical_edge(u, v))
    return sorted(edges)


@st.composite
def labelled_connected_graphs(draw):
    """:func:`connected_graphs`, relabelled to ints, strings or a mix.

    ``n10`` sorts before ``n2``, so string ids order the nodes differently
    from their ints; a mix sorts by ``repr``, except where a neighbour set
    holds one type only.
    """
    edges = draw(connected_graphs(max_nodes=20, max_extra=30))
    nodes = sorted({node for edge in edges for node in edge})
    kind = draw(st.sampled_from(["int", "str", "mixed"]))
    if kind == "int":
        is_int = [True] * len(nodes)
    elif kind == "str":
        is_int = [False] * len(nodes)
    else:
        is_int = draw(st.lists(st.booleans(), min_size=len(nodes), max_size=len(nodes)))
    label = {node: node if keep else f"n{node}" for node, keep in zip(nodes, is_int)}
    return [(label[u], label[v]) for u, v in edges]


class TestBitwiseAgainstTheReference:
    @given(labelled_connected_graphs())
    @settings(max_examples=80, deadline=None)
    def test_scores_equal_the_dict_loop(self, edges):
        graph = Graph(edges)
        for normalized in (False, True):
            ours = edge_betweenness_centrality(graph, normalized=normalized)
            expected = reference_edge_betweenness(graph, normalized=normalized)
            assert list(ours) == list(expected)
            assert ours == expected  # exact, not approx
        assert max_betweenness_edge(edges) == reference_max_edge(graph)[0]

    def test_tie_heavy_graph(self):
        graph = Graph(tie_heavy_edges())
        for normalized in (False, True):
            assert edge_betweenness_centrality(
                graph, normalized=normalized
            ) == reference_edge_betweenness(graph, normalized=normalized)
        ids = IdGraph(tie_heavy_edges())
        for piece in ids.pieces(range(len(ids.labels))):
            expected, _ = reference_max_edge(graph.subgraph(ids.labels[i] for i in piece))
            assert ids.edge(*ids.max_betweenness_edge(piece)) == expected


class TestBetweennessAgainstNetworkx:
    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx(self, edges):
        g = Graph(edges)
        ours = edge_betweenness_centrality(g, normalized=True)
        nxg = nx.Graph(edges)
        theirs = nx.edge_betweenness_centrality(nxg, normalized=True)
        assert set(ours) == {canonical_edge(u, v) for u, v in theirs}
        for (u, v), score in theirs.items():
            assert ours[canonical_edge(u, v)] == pytest.approx(score, abs=1e-9)

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_scores_are_nonnegative(self, edges):
        g = Graph(edges)
        scores = edge_betweenness_centrality(g, normalized=False)
        assert all(score >= 0 for score in scores.values())
        # Every edge lies on at least the shortest path between its endpoints.
        assert all(score >= 1.0 for score in scores.values())
