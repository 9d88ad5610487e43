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
in list order.  :class:`~repro.graphs.idgraph.IdGraph` relabels a piece so
that ids follow the sorted order of the labels and each list follows the
sorted order of that node's neighbours.  The kernel makes
the same float additions in the same order as a dict-of-nodes formulation
of Brandes over that order (kept in the tests as the reference), so every
score is bitwise the same and no near-tie between edges depends on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.graphs.graph import Edge, Node, canonical_edge


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


def _edge_key(edge: Edge) -> tuple[str, str]:
    u, v = edge
    return (repr(u), repr(v))
