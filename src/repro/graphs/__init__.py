"""Graph substrate used by the GraLMatch graph clean-up.

The paper relies on three graph primitives over the *match graph* (nodes are
records, edges are positively predicted pairwise matches):

* connected components — the transitively matched groups, by union-find
  (:func:`union_find_components`);
* minimum edge cuts — small sets of edges whose removal disconnects a
  component (Algorithm 1, first phase; :func:`minimum_edge_cut`);
* edge betweenness centrality — Brandes' algorithm (Algorithm 1, second
  phase; :func:`edge_betweenness`).

Bridges (:func:`bridges`) serve the ``bridge_removal`` clean-up.  The
clean-ups cut an :class:`IdGraph`, the match graph on int ids, one
connected piece at a time; the kernels take a piece relabelled to the ints
``0 .. k-1``.  Everything is implemented from scratch; the test-suite
cross-checks the results against networkx and against the dict-of-nodes
implementations the kernels replaced.
"""

from repro.graphs.union_find import DisjointSet, union_find_components
from repro.graphs.betweenness import edge_betweenness
from repro.graphs.bridges import bridges
from repro.graphs.idgraph import IdGraph
from repro.graphs.mincut import minimum_edge_cut

__all__ = [
    "IdGraph",
    "DisjointSet",
    "union_find_components",
    "edge_betweenness",
    "minimum_edge_cut",
    "bridges",
]
