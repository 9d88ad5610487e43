"""Disjoint-set union (union-find) over hashable nodes.

Connected components are computed for the pre-cleanup sizing rule, for
the transitive closure and batch grouping, and for the incremental
matcher's positive graph.  (The clean-ups split their int pieces by
breadth-first search instead, in :class:`~repro.graphs.idgraph.IdGraph`.)
A disjoint-set forest with path compression and union by rank answers the
question in near-linear time — O(m α(n)) over m edges — without
materialising adjacency sets or re-walking the graph per component.  The
property-based tests cross-check the components and their order against
networkx's BFS components sorted by :func:`component_order`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graphs.graph import Node


def component_order(component: set[Node]) -> tuple[int, str]:
    """Sort key of the canonical component order: decreasing size, then
    the smallest member repr."""
    return -len(component), min(repr(node) for node in component)


class DisjointSet:
    """Union-find with path compression and union by rank."""

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        self._parent: dict[Node, Node] = {}
        self._rank: dict[Node, int] = {}
        self._size: dict[Node, int] = {}
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, node: Node) -> bool:
        return node in self._parent

    def add(self, node: Node) -> None:
        """Register ``node`` as its own singleton set (no-op if present)."""
        if node not in self._parent:
            self._parent[node] = node
            self._rank[node] = 0
            self._size[node] = 1

    def find(self, node: Node) -> Node:
        """Return the representative of ``node``'s set (KeyError if absent).

        Iterative two-pass path compression: walk up to the root, then
        point every traversed node directly at it.
        """
        parent = self._parent
        if node not in parent:
            raise KeyError(f"node {node!r} not in disjoint set")
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(self, u: Node, v: Node) -> Node:
        """Merge the sets of ``u`` and ``v`` (adding them as needed).

        Returns the representative of the merged set.  Union by rank keeps
        the forest depth logarithmic before compression flattens it.
        """
        self.add(u)
        self.add(v)
        root_u, root_v = self.find(u), self.find(v)
        if root_u == root_v:
            return root_u
        if self._rank[root_u] < self._rank[root_v]:
            root_u, root_v = root_v, root_u
        self._parent[root_v] = root_u
        self._size[root_u] += self._size[root_v]
        if self._rank[root_u] == self._rank[root_v]:
            self._rank[root_u] += 1
        return root_u

    def connected(self, u: Node, v: Node) -> bool:
        """True when both nodes are present and share a set."""
        if u not in self._parent or v not in self._parent:
            return False
        return self.find(u) == self.find(v)

    def component_size(self, node: Node) -> int:
        """Size of the set containing ``node``."""
        return self._size[self.find(node)]

    def components(self) -> list[set[Node]]:
        """All sets, ordered by decreasing size then smallest member repr
        (:func:`component_order`)."""
        by_root: dict[Node, set[Node]] = {}
        for node in self._parent:
            by_root.setdefault(self.find(node), set()).add(node)
        components = list(by_root.values())  # repro-lint: disable=unordered-iteration -- sorted on the next line
        components.sort(key=component_order)
        return components


def union_find_components(
    edges: Iterable[tuple[Node, Node]], nodes: Iterable[Node] = ()
) -> list[set[Node]]:
    """Connected components of an edge list via union-find.

    ``nodes`` adds isolated nodes (no incident edge) as singleton sets.
    The components come in :func:`component_order`: decreasing size, then
    the smallest member repr.
    """
    dsu = DisjointSet(nodes)
    for u, v in edges:
        dsu.union(u, v)
    return dsu.components()
