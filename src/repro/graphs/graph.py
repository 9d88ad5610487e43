"""Node and edge helpers shared by the graph code.

Match graphs are simple undirected graphs whose nodes are record
identifiers (any hashable) and whose edges are predicted matches.  Nodes
sort naturally, or by ``repr`` where they do not compare (ints mixed with
strings); an edge is named by :func:`canonical_edge`.  Sorting everything
that is iterated keeps every result independent of set or dict hash order
(``PYTHONHASHSEED``).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable


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


def sorted_edges(edges: Iterable[Edge]) -> list[Edge]:
    """Sort edges naturally, falling back to ``repr`` ordering when their
    nodes are of types that do not compare."""
    items = list(edges)
    try:
        return sorted(items)  # type: ignore[type-var]
    except TypeError:
        return sorted(items, key=lambda edge: (repr(edge[0]), repr(edge[1])))
