"""Global minimum edge cut of a connected component, on integer node ids.

Algorithm 1 of the paper repeatedly removes a minimum edge cut from the
largest connected component while it is bigger than the threshold ``gamma``.
Removing a minimum edge cut is guaranteed to split the component, unlike
removing the highest-betweenness edge, which is why the paper uses it for
the coarse first phase.

:func:`minimum_edge_cut` is a Menger-style reduction to minimum s-t cuts:
fix a node ``s`` and take the best cut against every other node, which is
correct because any global cut separates ``s`` from someone.  By Menger's
theorem a minimum s-t edge cut has as many edges as there are edge-disjoint
s-t paths, found here by Edmonds–Karp augmenting paths on the unit-capacity
expansion of the undirected graph: every edge ``{i, j}`` becomes the arcs
``i → j`` and ``j → i``, each of capacity 1, and a unit pushed along one arc
adds one to the other.  The saturated flow's residual graph gives the cut.
The tests check the cut's size against two networkx minimum-cut algorithms
and the cut itself against the dict-of-nodes formulation it replaced.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.graphs.graph import Node


def minimum_edge_cut(
    adjacency: Sequence[Sequence[int]], labels: Sequence[Node]
) -> list[tuple[int, int]]:
    """A minimum cardinality set of edges disconnecting a connected graph.

    The graph is on the ints ``0 .. n-1``, ``n >= 2``: ``adjacency[i]``
    lists the neighbours of node ``i`` in the order its searches expand
    them, and ``labels[i]`` names it.  Connectivity is not checked.

    The source is the node of least ``(degree, repr(label))``; its degree
    bounds the cut, which lets the search stop early.  The targets run in
    id order, and the smallest s-t cut found first wins.  Returns the cut
    edges as id pairs.
    """
    n = len(adjacency)
    if n < 2:
        raise ValueError("minimum edge cut requires at least two nodes")
    arcs = _unit_arcs(adjacency)
    source = min(range(n), key=lambda i: (len(adjacency[i]), repr(labels[i])))
    best_cut: list[tuple[int, int]] = []
    best_size = len(adjacency[source]) + 1
    for target in range(n):
        if target == source:
            continue
        flow, side = _max_flow(arcs, source, target)
        if flow < best_size:
            best_size = flow
            best_cut = [
                (i, j) for i in range(n) if side[i] for j in adjacency[i] if not side[j]
            ]
            if best_size <= 1:
                break
    return best_cut


#: A graph's arcs, each of capacity 1: node ``i``'s are ``first[i] ..
#: first[i + 1] - 1``, in adjacency order; arc ``a`` ends at ``head[a]``,
#: and ``twin[a]`` is the arc back.
_Arcs = tuple[list[int], list[int], list[int]]


def _unit_arcs(adjacency: Sequence[Sequence[int]]) -> _Arcs:
    """The arcs ``i → j`` and ``j → i`` of every edge ``{i, j}``."""
    first = [0]
    head: list[int] = []
    arc_to: list[dict[int, int]] = [{} for _ in adjacency]
    for i, neighbours in enumerate(adjacency):
        for j in neighbours:
            arc_to[i][j] = len(head)
            head.append(j)
        first.append(len(head))
    twin = [arc_to[j][i] for i, neighbours in enumerate(adjacency) for j in neighbours]
    return first, head, twin


def _max_flow(arcs: _Arcs, source: int, sink: int) -> tuple[int, list[bool]]:
    """The maximum ``source``-``sink`` flow, and for each node whether it
    is on the source's side of the minimum cut the flow saturates.

    Each round pushes one unit along a shortest augmenting path; the
    search that finds none has reached exactly the source's side.
    """
    capacity = [1] * len(arcs[1])
    flow = 0
    while (reached := _augment(arcs, capacity, source, sink)) is None:
        flow += 1
    return flow, [arc != -1 for arc in reached]


def _augment(arcs: _Arcs, capacity: list[int], source: int, sink: int) -> list[int] | None:
    """Push one unit along a shortest augmenting path from ``source`` to
    ``sink``, found breadth first, and return None; if there is none,
    return the arc each node was reached by (-1: not reached)."""
    first, head, twin = arcs
    reached = [-1] * (len(first) - 1)
    reached[source] = len(head)
    queue = [source]
    for node in queue:
        for arc in range(first[node], first[node + 1]):
            j = head[arc]
            if reached[j] != -1 or capacity[arc] <= 0:
                continue
            reached[j] = arc
            if j == sink:
                while j != source:
                    arc = reached[j]
                    capacity[arc] -= 1
                    capacity[twin[arc]] += 1
                    j = head[twin[arc]]
                return None
            queue.append(j)
    return reached
