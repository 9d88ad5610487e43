"""Bridge detection (Tarjan's algorithm, iterative).

A *bridge* is an edge whose removal disconnects its component.  False
positive pairwise predictions frequently are bridges (a single spurious edge
connecting two otherwise unrelated record groups), which makes bridge
removal a natural, cheaper alternative to the Minimum Edge Cut phase of
Algorithm 1.  The clean-up variant in
:mod:`repro.core.cleanup_variants` builds on this module, and an ablation
benchmark compares it against the paper's algorithm.
"""

from __future__ import annotations

from repro.graphs.graph import Edge, Graph, Node, canonical_edge


def bridges(graph: Graph) -> set[Edge]:
    """Return all bridge edges of ``graph``.

    Iterative Tarjan low-link computation (no recursion, so the huge
    connected components the clean-up deals with cannot overflow the stack).
    """
    discovery: dict[Node, int] = {}
    low: dict[Node, int] = {}
    parent: dict[Node, Node | None] = {}
    result: set[Edge] = set()
    counter = 0

    for root in graph.nodes():
        if root in discovery:
            continue
        parent[root] = None
        stack: list[tuple[Node, iter]] = [(root, iter(sorted(graph.neighbors(root), key=repr)))]
        discovery[root] = low[root] = counter
        counter += 1

        while stack:
            node, neighbours = stack[-1]
            advanced = False
            for neighbour in neighbours:
                if neighbour not in discovery:
                    parent[neighbour] = node
                    discovery[neighbour] = low[neighbour] = counter
                    counter += 1
                    stack.append(
                        (neighbour, iter(sorted(graph.neighbors(neighbour), key=repr)))
                    )
                    advanced = True
                    break
                if neighbour != parent[node]:
                    low[node] = min(low[node], discovery[neighbour])
            if advanced:
                continue
            stack.pop()
            if stack:
                parent_node = stack[-1][0]
                low[parent_node] = min(low[parent_node], low[node])
                if low[node] > discovery[parent_node]:
                    result.add(canonical_edge(parent_node, node))
    return result

