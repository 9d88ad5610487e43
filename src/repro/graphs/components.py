"""Connected components of the match graph.

A connected component of the prediction graph is exactly the set of
*transitively matched records* implied by a pairwise matcher: every pair of
records joined by a path of positive predictions is considered a match.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.graphs.graph import Graph, Node
from repro.graphs.union_find import union_find_components


def connected_components(graph: Graph) -> list[set[Node]]:
    """Return the connected components of ``graph`` as a list of node sets.

    Components are computed with a disjoint-set forest (path compression +
    union by rank): once over the whole match graph before the clean-up,
    then inside each piece an Algorithm 1 removal cuts (never over the
    whole graph again); the property-based tests cross-check them against
    networkx.  The result is sorted by decreasing size, then by the
    smallest representation of a member node
    (:func:`~repro.graphs.union_find.component_order`), so output is
    deterministic.
    """
    return union_find_components(graph.edges(), graph.nodes())


def _bfs_component(graph: Graph, start: Node) -> set[Node]:
    component = {start}
    queue: deque[Node] = deque([start])
    while queue:
        node = queue.popleft()
        for neighbour in graph.neighbors(node):
            if neighbour not in component:
                component.add(neighbour)
                queue.append(neighbour)
    return component


def component_of(graph: Graph, node: Node) -> set[Node]:
    """Return the connected component containing ``node``."""
    if not graph.has_node(node):
        raise KeyError(f"node {node!r} not in graph")
    return _bfs_component(graph, node)


def largest_component(graph: Graph) -> set[Node]:
    """Return the largest connected component (empty set for empty graphs).

    Ties go to the component :func:`connected_components` lists first, the
    one holding the smallest member repr.
    """
    components = connected_components(graph)
    return components[0] if components else set()


def components_from_edges(edges: Iterable[tuple[Node, Node]]) -> list[set[Node]]:
    """Convenience wrapper: connected components of an edge list."""
    return connected_components(Graph(edges))
