"""Connected components of the match graph.

A connected component of the prediction graph is exactly the set of
*transitively matched records* implied by a pairwise matcher: every pair of
records joined by a path of positive predictions is considered a match.
"""

from __future__ import annotations

from repro.graphs.graph import Graph, Node
from repro.graphs.union_find import union_find_components


def connected_components(graph: Graph) -> list[set[Node]]:
    """Return the connected components of ``graph`` as a list of node sets.

    Components are computed with a disjoint-set forest (path compression +
    union by rank); the property-based tests cross-check them against
    networkx.  (Algorithm 1 itself splits its int pieces by breadth-first
    search, in :mod:`repro.core.cleanup`.)  The result is sorted by
    decreasing size, then by the
    smallest representation of a member node
    (:func:`~repro.graphs.union_find.component_order`), so output is
    deterministic.
    """
    return union_find_components(graph.edges(), graph.nodes())

