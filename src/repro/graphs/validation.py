"""Edge density: the adaptive clean-up's stopping rule."""

from __future__ import annotations

from repro.graphs.graph import Graph


def density(graph: Graph) -> float:
    """Edge density in [0, 1]; graphs with fewer than two nodes have density 0."""
    n = graph.num_nodes
    if n < 2:
        return 0.0
    return graph.num_edges / (n * (n - 1) / 2)
