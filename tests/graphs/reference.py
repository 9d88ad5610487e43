"""The dict-of-sets graph code the int kernels replaced, kept as the oracle.

The library cuts an :class:`~repro.graphs.idgraph.IdGraph` on int ids.
Before that it kept a second representation, :class:`Graph`, an adjacency
dict of node sets, and ran bridges, minimum cuts, components and edge
density on it.  Those implementations live on here, unchanged in what they
compute, so the graph and clean-up tests can compare the int code with
them bitwise on int, string and mixed labels.

Every traversal orders nodes by :func:`sorted_nodes` (natural order, or
``repr`` order where the nodes do not sort together), so no result depends
on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.graphs.graph import Edge, Node, canonical_edge, sorted_edges
from repro.graphs.union_find import union_find_components


def sorted_nodes(nodes: Iterable[Node]) -> list[Node]:
    """Sort nodes naturally, falling back to repr ordering for mixed types."""
    items = list(nodes)
    try:
        return sorted(items)  # type: ignore[type-var]
    except TypeError:
        return sorted(items, key=repr)


class Graph:
    """Simple undirected graph (no self-loops, no parallel edges)."""

    def __init__(self, edges: Iterable[Edge] | None = None) -> None:
        self._adj: dict[Node, set[Node]] = {}
        for u, v in edges or ():
            self.add_edge(u, v)

    def add_node(self, node: Node) -> None:
        self._adj.setdefault(node, set())

    def add_edge(self, u: Node, v: Node) -> None:
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        self._adj[u].add(v)
        self._adj[v].add(u)

    def remove_edge(self, u: Node, v: Node) -> None:
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def remove_edges(self, edges: Iterable[Edge]) -> None:
        """Remove every edge in ``edges``; missing edges are ignored."""
        for u, v in edges:
            if self.has_edge(u, v):
                self.remove_edge(u, v)

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def nodes(self) -> list[Node]:
        return list(self._adj)

    def edges(self) -> list[Edge]:
        """Every edge once, in canonical orientation, sorted."""
        return sorted_edges(
            {canonical_edge(u, v) for u, neighbours in self._adj.items() for v in neighbours}
        )

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(neighbours) for neighbours in self._adj.values()) // 2

    def neighbors(self, node: Node) -> set[Node]:
        return set(self._adj[node])

    def sorted_neighbors(self, node: Node) -> list[Node]:
        return sorted_nodes(self._adj[node])

    def degree(self, node: Node) -> int:
        return len(self._adj[node])

    def subgraph(self, nodes: Iterable[Node]) -> Graph:
        """The induced subgraph on ``nodes``, its nodes and edges added in
        sorted order."""
        keep = set(nodes)
        ordered = sorted_nodes(keep)
        sub = Graph()
        for node in ordered:
            if node in self._adj:
                sub.add_node(node)
        for node in ordered:
            if node not in self._adj:
                continue
            for neighbour in sorted_nodes(self._adj[node]):
                if neighbour in keep and not sub.has_edge(node, neighbour):
                    sub.add_edge(node, neighbour)
        return sub


def connected_components(graph: Graph) -> list[set[Node]]:
    """Components in :func:`~repro.graphs.union_find.component_order`."""
    return union_find_components(graph.edges(), graph.nodes())


def density(graph: Graph) -> float:
    """Edge density in [0, 1]; graphs with fewer than two nodes have density 0."""
    n = graph.num_nodes
    if n < 2:
        return 0.0
    return graph.num_edges / (n * (n - 1) / 2)


# -- edge betweenness: Brandes over dicts of nodes -------------------------------


def reference_edge_betweenness(graph: Graph, normalized: bool = True) -> dict[Edge, float]:
    """Edge betweenness with dict-keyed ``sigma``/``distance``/``delta``.

    Sources in sorted order, neighbours expanded in sorted order.  The
    library's int kernel must make the same float additions in the same
    order, so its scores equal these exactly.
    """
    centrality = {edge: 0.0 for edge in graph.edges()}
    adjacency = {
        node: graph.sorted_neighbors(node) for node in sorted_nodes(graph.nodes())
    }
    for source in adjacency:
        _accumulate_single_source(adjacency, source, centrality)

    # Each undirected pair (s, t) is counted twice (once from s, once from t).
    for edge in centrality:
        centrality[edge] /= 2.0

    if normalized:
        n = graph.num_nodes
        scale = (n * (n - 1)) / 2.0
        if scale > 0:
            for edge in centrality:
                centrality[edge] /= scale
    return centrality


def _accumulate_single_source(adjacency, source, centrality) -> None:
    stack = []
    predecessors = {node: [] for node in adjacency}
    sigma = {node: 0.0 for node in adjacency}
    distance = {node: -1 for node in adjacency}
    sigma[source] = 1.0
    distance[source] = 0

    queue = deque([source])
    while queue:
        node = queue.popleft()
        stack.append(node)
        for neighbour in adjacency[node]:
            if distance[neighbour] < 0:
                distance[neighbour] = distance[node] + 1
                queue.append(neighbour)
            if distance[neighbour] == distance[node] + 1:
                sigma[neighbour] += sigma[node]
                predecessors[neighbour].append(node)

    delta = {node: 0.0 for node in adjacency}
    while stack:
        node = stack.pop()
        for pred in predecessors[node]:
            contribution = (sigma[pred] / sigma[node]) * (1.0 + delta[node])
            centrality[canonical_edge(pred, node)] += contribution
            delta[pred] += contribution


def reference_max_edge(graph: Graph) -> tuple[Edge, float]:
    """The highest reference score; ties go to the highest edge repr."""
    scores = reference_edge_betweenness(graph, normalized=False)
    return max(scores.items(), key=lambda item: (item[1], repr(item[0][0]), repr(item[0][1])))


# -- minimum edge cut: a residual network keyed by node tuples --------------------


class ResidualNetwork:
    """Unit-capacity residual network for an undirected graph.

    Every undirected edge {u, v} becomes two directed arcs u→v and v→u of
    capacity 1; flow pushed on one arc adds residual capacity to the other.
    Adjacency lists are sorted, so the shortest augmenting path chosen
    among equals does not depend on set hash order.
    """

    def __init__(self, graph: Graph) -> None:
        self.capacity: dict[tuple[Node, Node], int] = {}
        adj_sets: dict[Node, set[Node]] = {node: set() for node in graph.nodes()}
        for u, v in graph.edges():
            self.capacity[(u, v)] = 1
            self.capacity[(v, u)] = 1
            adj_sets[u].add(v)
            adj_sets[v].add(u)
        self.adj = {node: sorted_nodes(neighbours) for node, neighbours in adj_sets.items()}

    def bfs_augmenting_path(self, source: Node, sink: Node) -> list[Node] | None:
        """A shortest augmenting path with positive residual capacity."""
        parents: dict[Node, Node] = {source: source}
        queue: deque[Node] = deque([source])
        while queue:
            node = queue.popleft()
            for neighbour in self.adj[node]:
                if neighbour in parents or self.capacity.get((node, neighbour), 0) <= 0:
                    continue
                parents[neighbour] = node
                if neighbour == sink:
                    path = [sink]
                    while path[-1] != source:
                        path.append(parents[path[-1]])
                    return path[::-1]
                queue.append(neighbour)
        return None

    def push_unit_flow(self, path: list[Node]) -> None:
        for u, v in zip(path, path[1:]):
            self.capacity[(u, v)] -= 1
            self.capacity[(v, u)] += 1

    def reset(self) -> None:
        for arc in self.capacity:
            self.capacity[arc] = 1

    def saturate(self, source: Node, sink: Node) -> int:
        """Push augmenting paths until none remain; returns the flow value."""
        flow = 0
        while (path := self.bfs_augmenting_path(source, sink)) is not None:
            self.push_unit_flow(path)
            flow += 1
        return flow

    def st_cut_edges(self, graph: Graph, source: Node) -> set[Edge]:
        """The edges crossing from the residual-reachable side of ``source``."""
        reachable = self.reachable_from(source)
        return {
            canonical_edge(u, v)
            for u, v in graph.edges()
            if (u in reachable) != (v in reachable)
        }

    def reachable_from(self, source: Node) -> set[Node]:
        seen = {source}
        queue: deque[Node] = deque([source])
        while queue:
            node = queue.popleft()
            for neighbour in self.adj[node]:
                if neighbour not in seen and self.capacity.get((node, neighbour), 0) > 0:
                    seen.add(neighbour)
                    queue.append(neighbour)
        return seen


def reference_minimum_edge_cut(graph: Graph) -> set[Edge]:
    """A minimum edge cut of ``graph`` (at least two nodes), as named edges.

    The source is the node of least ``(degree, repr)``; the targets run in
    sorted order, and the smallest cut found first wins.  A disconnected
    graph gives the empty cut.
    """
    nodes = graph.nodes()
    if len(nodes) < 2:
        raise ValueError("minimum edge cut requires at least two nodes")
    if len(connected_components(graph)) > 1:
        return set()
    source = min(nodes, key=lambda n: (graph.degree(n), repr(n)))
    best_cut: set[Edge] = set()
    best_size = graph.degree(source) + 1
    network = ResidualNetwork(graph)
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
    return best_cut


# -- bridges: Tarjan over a dict of nodes --------------------------------------------


def reference_bridges(graph: Graph) -> set[Edge]:
    """All bridge edges of ``graph`` (iterative Tarjan low-link)."""
    discovery: dict[Node, int] = {}
    low: dict[Node, int] = {}
    parent: dict[Node, Node | None] = {}
    result: set[Edge] = set()
    counter = 0
    for root in graph.nodes():
        if root in discovery:
            continue
        parent[root] = None
        stack = [(root, iter(sorted(graph.neighbors(root), key=repr)))]
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
                    stack.append((neighbour, iter(sorted(graph.neighbors(neighbour), key=repr))))
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
