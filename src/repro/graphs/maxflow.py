"""The unit-capacity residual network behind minimum edge cuts.

The minimum *global* edge cut used by GraLMatch (``mincut.py``) is computed
from minimum s-t cuts: by Menger's theorem the size of a minimum s-t edge cut
equals the maximum number of edge-disjoint s-t paths, which we obtain with an
Edmonds–Karp style augmenting-path search on the unit-capacity directed
expansion of the undirected graph.
"""

from __future__ import annotations

from collections import deque

from repro.graphs.graph import Edge, Graph, Node, canonical_edge, sorted_nodes


class _ResidualNetwork:
    """Unit-capacity residual network for an undirected graph.

    Every undirected edge {u, v} becomes two directed arcs u→v and v→u of
    capacity 1.  Flow pushed on one arc creates residual capacity on the
    reverse arc, which is exactly the behaviour required for undirected
    max-flow with unit capacities.

    Adjacency lists are kept in sorted order so the shortest augmenting
    path chosen among equals — and therefore which minimum cut the search
    settles on — is independent of set hash order (``PYTHONHASHSEED``).
    """

    def __init__(self, graph: Graph) -> None:
        self.capacity: dict[tuple[Node, Node], int] = {}
        adj_sets: dict[Node, set[Node]] = {node: set() for node in graph.nodes()}
        for u, v in graph.edges():
            self.capacity[(u, v)] = 1
            self.capacity[(v, u)] = 1
            adj_sets[u].add(v)
            adj_sets[v].add(u)
        self.adj: dict[Node, list[Node]] = {
            node: sorted_nodes(neighbours) for node, neighbours in adj_sets.items()  # repro-lint: disable=unordered-iteration -- keyed lookup only; keys follow graph.nodes() order, values sorted here
        }

    def bfs_augmenting_path(self, source: Node, sink: Node) -> list[Node] | None:
        """Find a shortest augmenting path with positive residual capacity."""
        parents: dict[Node, Node] = {source: source}
        queue: deque[Node] = deque([source])
        while queue:
            node = queue.popleft()
            for neighbour in self.adj[node]:
                if neighbour in parents:
                    continue
                if self.capacity.get((node, neighbour), 0) <= 0:
                    continue
                parents[neighbour] = node
                if neighbour == sink:
                    return self._reconstruct(parents, source, sink)
                queue.append(neighbour)
        return None

    @staticmethod
    def _reconstruct(
        parents: dict[Node, Node], source: Node, sink: Node
    ) -> list[Node]:
        path = [sink]
        while path[-1] != source:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    def push_unit_flow(self, path: list[Node]) -> None:
        """Push one unit of flow along ``path`` and update residuals."""
        for u, v in zip(path, path[1:]):
            self.capacity[(u, v)] = self.capacity.get((u, v), 0) - 1
            self.capacity[(v, u)] = self.capacity.get((v, u), 0) + 1

    def reset(self) -> None:
        """Restore every arc to capacity 1 (undo all pushed flow).

        Lets one network (and its sorted adjacency) be reused across the
        many s-t computations of a global minimum cut search instead of
        rebuilding and re-sorting the adjacency per target.
        """
        for arc in self.capacity:
            self.capacity[arc] = 1

    def saturate(self, source: Node, sink: Node) -> int:
        """Push augmenting paths until none remain; returns the flow value."""
        flow = 0
        while True:
            path = self.bfs_augmenting_path(source, sink)
            if path is None:
                return flow
            self.push_unit_flow(path)
            flow += 1

    def st_cut_edges(self, graph: Graph, source: Node) -> set[Edge]:
        """The cut induced by the current (saturated) flow: original edges
        crossing from the residual-reachable side of ``source``."""
        reachable = self.reachable_from(source)
        return {
            canonical_edge(u, v)
            for u, v in graph.edges()
            if (u in reachable) != (v in reachable)
        }

    def reachable_from(self, source: Node) -> set[Node]:
        """Nodes reachable from ``source`` through positive residual arcs."""
        seen = {source}
        queue: deque[Node] = deque([source])
        while queue:
            node = queue.popleft()
            for neighbour in self.adj[node]:
                if neighbour in seen:
                    continue
                if self.capacity.get((node, neighbour), 0) <= 0:
                    continue
                seen.add(neighbour)
                queue.append(neighbour)
        return seen

