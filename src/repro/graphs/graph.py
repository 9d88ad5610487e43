"""A small undirected graph with adjacency-set storage.

The match graphs handled by GraLMatch are simple undirected graphs whose
nodes are record identifiers (any hashable) and whose edges are predicted
matches.  We only need a handful of operations — add/remove edges, iterate
neighbours, take subgraphs — so a purpose-built class keeps the rest of the
code independent from networkx and easy to reason about.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Any


Node = Hashable
Edge = tuple[Node, Node]


def canonical_edge(u: Node, v: Node) -> Edge:
    """Return the canonical (sorted) representation of an undirected edge.

    Nodes may be of mixed types, so ordering falls back to the repr when the
    natural comparison fails.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


def sorted_nodes(nodes: Iterable[Node]) -> list[Node]:
    """Sort nodes naturally, falling back to repr ordering for mixed types.

    The graph algorithms iterate neighbours and edges through this helper so
    their traversal order — and therefore every tie-break — is independent
    of set/dict hash order (``PYTHONHASHSEED``).
    """
    items = list(nodes)
    try:
        return sorted(items)  # type: ignore[type-var]
    except TypeError:
        return sorted(items, key=repr)


def sorted_edges(edges: Iterable[Edge]) -> list[Edge]:
    """Sort edges with the same mixed-type fallback as :func:`sorted_nodes`."""
    items = list(edges)
    try:
        return sorted(items)  # type: ignore[type-var]
    except TypeError:
        return sorted(items, key=lambda edge: (repr(edge[0]), repr(edge[1])))


class Graph:
    """Simple undirected graph (no self-loops, no parallel edges).

    Nodes can carry an attribute dictionary; edges can carry an attribute
    dictionary as well (used e.g. to remember which blocking produced a
    candidate pair, which the pre-cleanup step needs).
    """

    def __init__(self, edges: Iterable[Edge] | None = None) -> None:
        self._adj: dict[Node, set[Node]] = {}
        self._node_attrs: dict[Node, dict[str, Any]] = {}
        self._edge_attrs: dict[Edge, dict[str, Any]] = {}
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # -- nodes ------------------------------------------------------------

    def add_node(self, node: Node, **attrs: Any) -> None:
        """Add ``node`` (a no-op if already present), merging attributes."""
        if node not in self._adj:
            self._adj[node] = set()
        if attrs:
            self._node_attrs.setdefault(node, {}).update(attrs)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._adj:
            raise KeyError(f"node {node!r} not in graph")
        for neighbour in list(self._adj[node]):
            self.remove_edge(node, neighbour)
        del self._adj[node]
        self._node_attrs.pop(node, None)

    def has_node(self, node: Node) -> bool:
        return node in self._adj

    def nodes(self) -> list[Node]:
        return list(self._adj)

    def node_attrs(self, node: Node) -> dict[str, Any]:
        if node not in self._adj:
            raise KeyError(f"node {node!r} not in graph")
        return self._node_attrs.setdefault(node, {})

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    # -- edges ------------------------------------------------------------

    def add_edge(self, u: Node, v: Node, **attrs: Any) -> None:
        """Add the undirected edge ``(u, v)``; self-loops are rejected."""
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        if attrs:
            self._edge_attrs.setdefault(canonical_edge(u, v), {}).update(attrs)

    def remove_edge(self, u: Node, v: Node) -> None:
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._edge_attrs.pop(canonical_edge(u, v), None)

    def remove_edges(self, edges: Iterable[Edge]) -> None:
        """Remove every edge in ``edges``; missing edges are ignored."""
        for u, v in edges:
            if self.has_edge(u, v):
                self.remove_edge(u, v)

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> list[Edge]:
        """Return every edge once, in canonical orientation, sorted.

        Sorting makes every consumer's iteration order independent of set
        hash order, which is what keeps the clean-up's tie-breaking stable
        across ``PYTHONHASHSEED`` values.
        """
        seen: set[Edge] = set()
        for u, neighbours in self._adj.items():  # repro-lint: disable=unordered-iteration -- collected into a set and sorted below
            for v in neighbours:
                seen.add(canonical_edge(u, v))
        return sorted_edges(seen)

    def edge_attrs(self, u: Node, v: Node) -> dict[str, Any]:
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        return self._edge_attrs.setdefault(canonical_edge(u, v), {})

    @property
    def num_edges(self) -> int:
        return sum(len(neigh) for neigh in self._adj.values()) // 2  # repro-lint: disable=unordered-iteration -- integer count; order-free

    # -- traversal helpers --------------------------------------------------

    def neighbors(self, node: Node) -> set[Node]:
        if node not in self._adj:
            raise KeyError(f"node {node!r} not in graph")
        return set(self._adj[node])

    def sorted_neighbors(self, node: Node) -> list[Node]:
        """Neighbours of ``node`` in sorted order (hash-seed independent)."""
        if node not in self._adj:
            raise KeyError(f"node {node!r} not in graph")
        return sorted_nodes(self._adj[node])

    def degree(self, node: Node) -> int:
        if node not in self._adj:
            raise KeyError(f"node {node!r} not in graph")
        return len(self._adj[node])

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"

    # -- derived graphs -----------------------------------------------------

    def copy(self) -> "Graph":
        new = Graph()
        for node in self._adj:
            new.add_node(node, **self._node_attrs.get(node, {}))
        for u, v in self.edges():
            new.add_edge(u, v, **self._edge_attrs.get(canonical_edge(u, v), {}))
        return new

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the induced subgraph on ``nodes`` (attributes are copied).

        Nodes and edges are inserted in sorted order so the subgraph's
        insertion order (and with it every downstream traversal) does not
        depend on the hash order of the ``nodes`` set.
        """
        keep = set(nodes)
        ordered = sorted_nodes(keep)
        sub = Graph()
        for node in ordered:
            if node in self._adj:
                sub.add_node(node, **self._node_attrs.get(node, {}))
        for node in ordered:
            if node not in self._adj:
                continue
            for neighbour in sorted_nodes(self._adj[node]):
                if neighbour in keep and not sub.has_edge(node, neighbour):
                    attrs = self._edge_attrs.get(canonical_edge(node, neighbour), {})
                    sub.add_edge(node, neighbour, **attrs)
        return sub

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Graph":
        return cls(edges)

    @classmethod
    def complete(cls, nodes: Iterable[Node]) -> "Graph":
        """Build the complete graph over ``nodes``."""
        node_list = list(nodes)
        graph = cls()
        for node in node_list:
            graph.add_node(node)
        for i, u in enumerate(node_list):
            for v in node_list[i + 1:]:
                graph.add_edge(u, v)
        return graph
