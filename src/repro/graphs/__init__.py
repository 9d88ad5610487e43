"""Graph substrate used by the GraLMatch graph clean-up.

The paper relies on three graph primitives over the *match graph* (nodes are
records, edges are positively predicted pairwise matches):

* connected components — the transitively matched groups,
* minimum edge cuts — small sets of edges whose removal disconnects a
  component (Algorithm 1, first phase),
* edge betweenness centrality — Brandes' algorithm (Algorithm 1, second
  phase).

Everything here is implemented from scratch on top of a small adjacency-list
:class:`Graph`; the test-suite cross-checks the results against networkx.
"""

from repro.graphs.graph import Graph
from repro.graphs.components import (
    connected_components,
    component_of,
    largest_component,
)
from repro.graphs.union_find import DisjointSet, union_find_components
from repro.graphs.betweenness import edge_betweenness_centrality
from repro.graphs.maxflow import max_flow, minimum_st_edge_cut
from repro.graphs.mincut import minimum_edge_cut
from repro.graphs.validation import is_complete, is_connected, density

__all__ = [
    "Graph",
    "DisjointSet",
    "union_find_components",
    "connected_components",
    "component_of",
    "largest_component",
    "edge_betweenness_centrality",
    "max_flow",
    "minimum_st_edge_cut",
    "minimum_edge_cut",
    "is_complete",
    "is_connected",
    "density",
]
