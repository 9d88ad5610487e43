"""Edge betweenness centrality (Brandes' algorithm) on integer node ids.

GraLMatch removes, one at a time, the edge with the highest betweenness
centrality from components that are still larger than the expected group
size.  False-positive matches that act as the only bridge between two densely
connected groups carry most shortest paths between the groups and therefore
receive the highest centrality.

The implementation follows Brandes (2001), "A faster algorithm for
betweenness centrality", adapted to accumulate edge (rather than node)
scores, on unweighted graphs (all predicted matches count equally).

One kernel, :func:`edge_betweenness`, does the work on a graph relabelled
to the ints ``0 .. n-1``: one adjacency list per node, ``dist``, ``sigma``
and ``delta`` as plain lists, and scores keyed by an int pair.  The sources
run in id order and each breadth-first search expands a node's neighbours
in list order.  :func:`edge_betweenness_centrality` and
:func:`max_betweenness_edge` relabel a :class:`Graph` so that ids follow
:func:`sorted_nodes` order and each list follows the sorted order of that
node's neighbours; :mod:`repro.core.cleanup` relabels its own int pieces
the same way.  The kernel makes the same float additions in the same order
as a dict-of-nodes formulation of Brandes over that order (kept in the
tests as the reference), so every score is bitwise the same and no
near-tie between edges depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.graphs.graph import Edge, Graph, Node, canonical_edge, sorted_nodes


def edge_betweenness(adjacency: Sequence[Sequence[int]]) -> dict[tuple[int, int], float]:
    """Unnormalised edge betweenness of a graph on the ids ``0 .. n-1``.

    ``adjacency[i]`` lists the neighbours of node ``i``, in the order its
    search expands them.  Returns every edge as ``(i, j)`` with ``i < j``.
    """
    n = len(adjacency)
    # Number the edges; edge_ids[i][j] is the number of edge {i, j}.
    edge_ids: list[dict[int, int]] = [{} for _ in range(n)]
    pairs: list[tuple[int, int]] = []
    for i, neighbours in enumerate(adjacency):
        for j in neighbours:
            if i < j:
                edge_ids[i][j] = edge_ids[j][i] = len(pairs)
                pairs.append((i, j))
    scores = [0.0] * len(pairs)

    for source in range(n):
        dist = [-1] * n
        sigma = [0.0] * n
        # A node gets its own list when the search reaches it.
        predecessors: list[list[int]] = [[]] * n
        dist[source] = 0
        sigma[source] = 1.0
        # Breadth-first order; the list grows while it is walked, so it is
        # both the queue and, reversed, the stack.
        order = [source]
        for node in order:
            next_dist = dist[node] + 1
            paths = sigma[node]
            for neighbour in adjacency[node]:
                seen = dist[neighbour]
                if seen < 0:
                    dist[neighbour] = next_dist
                    sigma[neighbour] = paths
                    predecessors[neighbour] = [node]
                    order.append(neighbour)
                elif seen == next_dist:
                    sigma[neighbour] += paths
                    predecessors[neighbour].append(node)

        # Back-propagation of dependencies, accumulated on edges.  Each
        # predecessor of a node gets one contribution from it, so the order
        # of a node's predecessors changes no sum.
        delta = [0.0] * n
        for node in reversed(order):
            paths = sigma[node]
            weight = 1.0 + delta[node]
            ids = edge_ids[node]
            for pred in predecessors[node]:
                contribution = (sigma[pred] / paths) * weight
                scores[ids[pred]] += contribution
                delta[pred] += contribution

    # Each undirected pair (s, t) is counted twice (once from s, once from t).
    return {pair: score / 2.0 for pair, score in zip(pairs, scores)}


def max_betweenness_pair(
    adjacency: Sequence[Sequence[int]], labels: Sequence[Node]
) -> tuple[tuple[int, int], float]:
    """The int pair of the highest :func:`edge_betweenness` and its score.

    ``labels[i]`` names node ``i``.  Ties are broken by the named edge's
    representation (:func:`canonical_edge`, then the ``repr`` of each end,
    highest wins), so repeated clean-up runs remove the same edges.
    """
    scores = edge_betweenness(adjacency)
    best = max(scores.values())
    pair = max(
        (pair for pair, score in scores.items() if score == best),
        key=lambda pair: _edge_key(canonical_edge(labels[pair[0]], labels[pair[1]])),
    )
    return pair, best


def edge_betweenness_centrality(
    graph: Graph,
    normalized: bool = True,
) -> dict[Edge, float]:
    """Compute betweenness centrality for every edge of ``graph``.

    Parameters
    ----------
    graph:
        The (undirected, unweighted) graph to analyse.
    normalized:
        If true, scores are divided by the number of node pairs
        ``n * (n - 1) / 2`` so that values are comparable across components
        of different sizes.  GraLMatch only uses the arg-max per component,
        for which normalisation is irrelevant, but the normalised values are
        what networkx reports and what the tests compare against.

    Returns
    -------
    dict
        Mapping from canonical edge to its centrality score, in
        :meth:`Graph.edges` order.  Every edge of the graph is present.
    """
    labels, adjacency = _relabel(graph)
    scores = edge_betweenness(adjacency)
    ids = {label: i for i, label in enumerate(labels)}
    n = graph.num_nodes
    scale = (n * (n - 1)) / 2.0
    centrality: dict[Edge, float] = {}
    for u, v in graph.edges():
        i, j = ids[u], ids[v]
        score = scores[(i, j) if i < j else (j, i)]
        centrality[(u, v)] = score / scale if normalized and scale > 0 else score
    return centrality


def max_betweenness_edge(graph: Graph) -> tuple[Edge, float]:
    """Return the edge with the highest betweenness centrality.

    Ties are broken as in :func:`max_betweenness_pair`.  Raises
    ``ValueError`` on graphs without edges.
    """
    if graph.num_edges == 0:
        raise ValueError("graph has no edges")
    labels, adjacency = _relabel(graph)
    (i, j), score = max_betweenness_pair(adjacency, labels)
    return canonical_edge(labels[i], labels[j]), score


def _relabel(graph: Graph) -> tuple[list[Node], list[list[int]]]:
    """``graph`` on ints: the nodes in :func:`sorted_nodes` order, and each
    node's neighbours in :meth:`Graph.sorted_neighbors` order."""
    labels = sorted_nodes(graph.nodes())
    ids = {label: i for i, label in enumerate(labels)}
    return labels, [[ids[w] for w in graph.sorted_neighbors(label)] for label in labels]


def _edge_key(edge: Edge) -> tuple[str, str]:
    u, v = edge
    return (repr(u), repr(v))
