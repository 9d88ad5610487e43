"""Tests for edge betweenness centrality.

The int kernel is checked bitwise against the dict-of-nodes Brandes loop it
replaced (:func:`reference_edge_betweenness`), and approximately against
networkx.
"""

from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, connected_components, edge_betweenness_centrality
from repro.graphs.betweenness import max_betweenness_edge
from repro.graphs.graph import canonical_edge, sorted_nodes
from tests.core.test_cleanup_determinism import tie_heavy_edges


# -- the reference: Brandes over dicts of nodes -------------------------------


def reference_edge_betweenness(graph, normalized=True):
    """Edge betweenness with dict-keyed ``sigma``/``distance``/``delta``.

    Sources in sorted order, neighbours expanded in sorted order.  The
    library's int kernel must make the same float additions in the same
    order, so its scores equal these exactly.
    """
    centrality = {edge: 0.0 for edge in graph.edges()}
    adjacency = {
        node: graph.sorted_neighbors(node) for node in sorted_nodes(graph.nodes())
    }
    for source in adjacency:
        _accumulate_single_source(adjacency, source, centrality)

    # Each undirected pair (s, t) is counted twice (once from s, once from t).
    for edge in centrality:
        centrality[edge] /= 2.0

    if normalized:
        n = graph.num_nodes
        scale = (n * (n - 1)) / 2.0
        if scale > 0:
            for edge in centrality:
                centrality[edge] /= scale
    return centrality


def _accumulate_single_source(adjacency, source, centrality):
    stack = []
    predecessors = {node: [] for node in adjacency}
    sigma = {node: 0.0 for node in adjacency}
    distance = {node: -1 for node in adjacency}
    sigma[source] = 1.0
    distance[source] = 0

    queue = deque([source])
    while queue:
        node = queue.popleft()
        stack.append(node)
        for neighbour in adjacency[node]:
            if distance[neighbour] < 0:
                distance[neighbour] = distance[node] + 1
                queue.append(neighbour)
            if distance[neighbour] == distance[node] + 1:
                sigma[neighbour] += sigma[node]
                predecessors[neighbour].append(node)

    delta = {node: 0.0 for node in adjacency}
    while stack:
        node = stack.pop()
        for pred in predecessors[node]:
            contribution = (sigma[pred] / sigma[node]) * (1.0 + delta[node])
            centrality[canonical_edge(pred, node)] += contribution
            delta[pred] += contribution


def reference_max_edge(graph):
    """The highest reference score; ties go to the highest edge repr."""
    scores = reference_edge_betweenness(graph, normalized=False)
    return max(scores.items(), key=lambda item: (item[1], repr(item[0][0]), repr(item[0][1])))


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
        g = Graph([(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
        edge, score = max_betweenness_edge(g)
        scores = edge_betweenness_centrality(g, normalized=False)
        assert edge == (3, 4)
        assert score == pytest.approx(max(scores.values()))

    def test_max_betweenness_edge_empty_graph_raises(self):
        with pytest.raises(ValueError):
            max_betweenness_edge(Graph())

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
        assert max_betweenness_edge(graph) == reference_max_edge(graph)

    def test_tie_heavy_graph(self):
        graph = Graph(tie_heavy_edges())
        for normalized in (False, True):
            assert edge_betweenness_centrality(
                graph, normalized=normalized
            ) == reference_edge_betweenness(graph, normalized=normalized)
        assert max_betweenness_edge(graph) == reference_max_edge(graph)
        for component in connected_components(graph):
            piece = graph.subgraph(component)
            assert max_betweenness_edge(piece) == reference_max_edge(piece)


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
