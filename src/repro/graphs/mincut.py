"""Global minimum edge cut of a connected component.

Algorithm 1 of the paper repeatedly removes a minimum edge cut from the
largest connected component while it is bigger than the threshold ``gamma``.
Removing a minimum edge cut is guaranteed to split the component, unlike
removing the highest-betweenness edge, which is why the paper uses it for
the coarse first phase.

:func:`minimum_edge_cut` is a Menger-style reduction to minimum s-t cuts
(fix an arbitrary node ``s`` and take the best cut against every other
node; correct because any global cut separates ``s`` from someone), which
also yields the cut *edges* required by the clean-up.  The tests check the
cut's size against two networkx minimum-cut algorithms.
"""

from __future__ import annotations

from repro.graphs.components import connected_components
from repro.graphs.graph import Edge, Graph, sorted_nodes
from repro.graphs.maxflow import _ResidualNetwork


def minimum_edge_cut(graph: Graph) -> set[Edge]:
    """Return a minimum cardinality set of edges disconnecting ``graph``.

    The graph must be connected and contain at least two nodes.  For the
    degenerate two-node graph the single connecting edge is the cut.

    The search fixes the minimum-degree node as the source (its degree is an
    upper bound on the cut size, which lets us stop early) and computes a
    minimum s-t cut towards every other node, keeping the smallest.  One
    residual network is built (and its adjacency sorted) once and reset
    between targets, and each target's saturated flow directly yields its
    cut — no second max-flow pass.
    """
    nodes = graph.nodes()
    if len(nodes) < 2:
        raise ValueError("minimum edge cut requires at least two nodes")
    if len(connected_components(graph)) > 1:
        # Already disconnected: the empty cut suffices.
        return set()

    source = min(nodes, key=lambda n: (graph.degree(n), repr(n)))
    best_cut: set[Edge] | None = None
    best_size = graph.degree(source) + 1
    network = _ResidualNetwork(graph)

    for target in sorted_nodes(nodes):
        if target == source:
            continue
        network.reset()
        flow = network.saturate(source, target)
        if flow < best_size:
            best_size = flow
            best_cut = network.st_cut_edges(graph, source)
            if best_size <= 1:
                break

    if best_cut is None:
        # ``source`` is isolated relative to every candidate target, meaning
        # the graph was not connected to begin with: the empty cut already
        # disconnects it.
        return set()
    return best_cut
