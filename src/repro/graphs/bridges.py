"""Bridge detection (Tarjan's algorithm, iterative), on integer node ids.

A *bridge* is an edge whose removal disconnects its component.  False
positive pairwise predictions frequently are bridges (a single spurious edge
connecting two otherwise unrelated record groups), which makes bridge
removal a natural, cheaper alternative to the Minimum Edge Cut phase of
Algorithm 1.  The clean-up variant in
:mod:`repro.core.cleanup_variants` builds on this module, and an ablation
benchmark compares it against the paper's algorithm.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence


def bridges(adjacency: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """All bridges of the graph on the ints ``0 .. n-1`` whose node ``i``
    has the neighbours ``adjacency[i]``, as ``(parent, child)`` id pairs of
    the depth-first search.

    Iterative Tarjan low-link computation (no recursion, so the huge
    connected components the clean-up deals with cannot overflow the stack).
    Which edges are bridges does not depend on the search order.
    """
    n = len(adjacency)
    discovery = [-1] * n
    low = [0] * n
    parent = [-1] * n
    result: list[tuple[int, int]] = []
    counter = 0

    for root in range(n):
        if discovery[root] != -1:
            continue
        stack: list[tuple[int, Iterator[int]]] = [(root, iter(adjacency[root]))]
        discovery[root] = low[root] = counter
        counter += 1

        while stack:
            node, neighbours = stack[-1]
            advanced = False
            for neighbour in neighbours:
                if discovery[neighbour] == -1:
                    parent[neighbour] = node
                    discovery[neighbour] = low[neighbour] = counter
                    counter += 1
                    stack.append((neighbour, iter(adjacency[neighbour])))
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
                    result.append((parent_node, node))
    return result
