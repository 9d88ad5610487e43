"""GraLMatch Graph Cleanup (Algorithm 1).

The clean-up removes likely false-positive pairwise predictions using only
the structure of the match graph:

* **Phase 1 — Minimum Edge Cut**: while the largest connected component is
  bigger than the threshold ``gamma``, remove a minimum edge cut from it.
  Removing a minimum cut is guaranteed to split the component, so this phase
  quickly breaks up the huge components produced by a handful of false
  positives, at the cost of occasionally removing true edges.
* **Phase 2 — Edge Betweenness Centrality**: while the largest component is
  still bigger than ``mu`` (the expected maximum group size, normally the
  number of data sources), remove the single edge with the highest edge
  betweenness centrality.  This is slower but more surgical: bridges between
  densely connected sub-groups carry the most shortest paths.

Every removal is chosen from, and applied to, one connected component's
induced subgraph, and both stopping rules are per component.  So the
clean-up indexes its edge list once — the nodes, in
:func:`~repro.graphs.graph.sorted_nodes` order, become the ints
``0 .. n-1`` and each gets a sorted int adjacency list — finds the
components by breadth-first search over the ints, and works each one
down as a list of int *pieces*: a piece larger than ``gamma`` loses a
minimum edge cut, a piece larger than ``mu`` loses its maximum-betweenness
edge, and only the piece just cut is split again, never the whole graph.
The betweenness kernel (:func:`~repro.graphs.betweenness.edge_betweenness`)
runs on the piece relabelled to ``0 .. k-1``; a :class:`Graph` is built
only for a piece larger than ``gamma``, for :func:`minimum_edge_cut`.

This cannot change the output.  Each cut and each betweenness edge depends
only on one piece's nodes and edges, taken in sorted order whatever the
rest of the graph holds, so pieces are cut the same way in any order; int
ids in sorted order give the betweenness kernel the source and neighbour
order of the piece's :class:`Graph`, so it makes the same float additions
and picks the same edge.  (Mixed labels, such as ints with strings, sort
by ``repr`` only where a set of them does not sort naturally, so there a
piece and each neighbour list are ordered by their own labels.)
:func:`merge_component_cleanups` then puts the final pieces in
``connected_components`` order, which makes the components, the removed
edges and every :class:`CleanupReport` field those of the whole-graph loop
(kept in the tests as the differential oracle).

The sensitivity variants of Section 5.2.1 are expressed through
:class:`CleanupConfig`: ``gamma = mu`` gives the MEC-only variant,
``gamma = None`` (treated as infinity) gives the BC-only variant and halving
``gamma`` gives the ``½γ`` variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Set as AbstractSet
from typing import Protocol

from repro.graphs.betweenness import max_betweenness_pair
from repro.graphs.graph import Edge, Graph, Node, canonical_edge
from repro.graphs.mincut import minimum_edge_cut
from repro.graphs.union_find import component_order
from repro.registry import register_cleanup


@dataclass(frozen=True)
class CleanupConfig:
    """Thresholds of Algorithm 1.

    ``gamma`` — components larger than this are split with Minimum Edge Cuts
    (``None`` disables the phase, i.e. γ = ∞).
    ``mu`` — the maximum allowed group size; components larger than this are
    refined by removing maximum-betweenness edges.  The paper sets ``mu`` to
    the number of data sources.
    """

    gamma: int | None = 25
    mu: int = 5

    def __post_init__(self) -> None:
        if self.mu < 1:
            raise ValueError("mu must be at least 1")
        if self.gamma is not None and self.gamma < self.mu:
            raise ValueError("gamma must be >= mu (or None for infinity)")

    @classmethod
    def for_num_sources(cls, num_sources: int, gamma: int | None = None) -> "CleanupConfig":
        """The paper's default: mu = number of sources, gamma = 5 * mu."""
        if gamma is None:
            gamma = 5 * num_sources
        return cls(gamma=gamma, mu=num_sources)

    def mec_only(self) -> "CleanupConfig":
        """Sensitivity variant: gamma = mu (only Minimum Edge Cuts)."""
        return CleanupConfig(gamma=self.mu, mu=self.mu)

    def bc_only(self) -> "CleanupConfig":
        """Sensitivity variant: gamma = infinity (only Betweenness Centrality)."""
        return CleanupConfig(gamma=None, mu=self.mu)

    def half_gamma(self) -> "CleanupConfig":
        """Sensitivity variant: gamma halved (rounded down, floored at mu)."""
        if self.gamma is None:
            return self
        return CleanupConfig(gamma=max(self.mu, self.gamma // 2), mu=self.mu)


@dataclass
class CleanupReport:
    """What the clean-up did — used by the result tables and the figures."""

    removed_edges: set[Edge] = field(default_factory=set)
    mincut_removals: int = 0
    betweenness_removals: int = 0
    initial_largest_component: int = 0
    final_largest_component: int = 0

    @property
    def num_removed(self) -> int:
        return len(self.removed_edges)


@register_cleanup("gralmatch")
def gralmatch_cleanup(
    edges: Iterable[tuple[str, str]],
    config: CleanupConfig | None = None,
) -> tuple[list[set[str]], CleanupReport]:
    """Run Algorithm 1 on a set of predicted match edges.

    Returns the connected components of the cleaned-up graph (the entity
    groups before transitive-closure expansion) and a :class:`CleanupReport`
    describing the removals.
    """
    return _clean(_IdGraph(edges), config or CleanupConfig())


# Every removal Algorithm 1 makes is chosen from (and applied to) a single
# connected component's subgraph, and the stopping conditions are per
# component — which is how gralmatch_cleanup runs it: one initial component
# at a time, with exactly the output of one whole-graph run.  The incremental
# subsystem relies on the same property to re-clean only *dirty*
# components, and refuses to ingest under a strategy without the marker.
gralmatch_cleanup.component_local = True


def clean_graph(
    graph: Graph, config: CleanupConfig
) -> tuple[list[set[Node]], CleanupReport]:
    """Algorithm 1 on every connected component of ``graph``, one at a time.

    ``graph`` is left untouched.  Isolated nodes come back as singleton
    components.
    """
    return _clean(_IdGraph(graph.edges(), graph.nodes()), config)


def _clean(
    graph: _IdGraph, config: CleanupConfig
) -> tuple[list[set[Node]], CleanupReport]:
    """Algorithm 1 on every component of ``graph``; the order in which the
    components are worked does not matter, the merge sorts the pieces."""
    components = graph.pieces(range(len(graph.labels)))
    return merge_component_cleanups(
        (_clean_component(graph, component, config) for component in components),
        initial_largest_component=max(map(len, components), default=0),
    )


def _clean_component(
    graph: _IdGraph, component: list[int], config: CleanupConfig
) -> tuple[list[set[Node]], CleanupReport]:
    """Algorithm 1 on one component of ``graph``, given by its ids.

    A worklist of pieces, each connected: a piece larger than ``gamma``
    loses a minimum edge cut, a piece larger than ``mu`` loses its
    maximum-betweenness edge, and only the piece just cut is split again.
    The removals are made in ``graph``.

    Returns the final pieces (in no particular order) and a report of the
    removals; its component-size fields are left for
    :func:`merge_component_cleanups` to fill in.
    """
    report = CleanupReport()
    final: list[set[Node]] = []
    labels = graph.labels
    pending = [component]
    while pending:
        piece = pending.pop()
        size = len(piece)
        if config.gamma is not None and size > config.gamma:
            # A connected piece's minimum cut is never empty: it splits.
            cut = minimum_edge_cut(graph.subgraph(piece))
            for u, v in cut:
                graph.remove_edge(graph.ids[u], graph.ids[v])
            report.removed_edges.update(cut)
            report.mincut_removals += len(cut)
        elif size > config.mu:
            i, j = graph.max_betweenness_edge(piece)
            graph.remove_edge(i, j)
            report.removed_edges.add(canonical_edge(labels[i], labels[j]))
            report.betweenness_removals += 1
        else:
            final.append({labels[i] for i in piece})
            continue
        pending.extend(graph.pieces(piece))
    return final, report


class _IdGraph:
    """A match graph on int ids, which Algorithm 1 cuts in place.

    Node ``i`` is ``labels[i]``: ids follow
    :func:`~repro.graphs.graph.sorted_nodes` order, and
    ``adjacency[i]`` holds the neighbours of ``i`` by increasing id, which
    a removal keeps.  A *piece* is a list of the ids of one connected
    component of the current graph, so every neighbour of a piece's node
    is in the piece.
    """

    def __init__(self, edges: Iterable[Edge], nodes: Iterable[Node] = ()) -> None:
        neighbours: dict[Node, set[Node]] = {node: set() for node in nodes}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u!r} is not allowed")
            neighbours.setdefault(u, set()).add(v)
            neighbours.setdefault(v, set()).add(u)
        # The order sorted_nodes gives them, noting whether it is the natural
        # one (see _ordered).
        try:
            self.labels: list[Node] = sorted(neighbours)  # type: ignore[type-var]
            self.natural = True
        except TypeError:
            self.labels = sorted(neighbours, key=repr)
            self.natural = False
        self.ids = {label: i for i, label in enumerate(self.labels)}
        self.adjacency = [
            sorted(self.ids[w] for w in neighbours[label]) for label in self.labels
        ]
        #: Scratch: a piece's node ids relabelled to 0 .. k-1.
        self._position = [0] * len(self.labels)

    def remove_edge(self, i: int, j: int) -> None:
        self.adjacency[i].remove(j)
        self.adjacency[j].remove(i)

    def pieces(self, ids: Iterable[int]) -> list[list[int]]:
        """The connected components holding ``ids``, by breadth-first search."""
        adjacency = self.adjacency
        seen: set[int] = set()
        pieces = []
        for start in ids:
            if start in seen:
                continue
            seen.add(start)
            piece = [start]
            for i in piece:
                for j in adjacency[i]:
                    if j not in seen:
                        seen.add(j)
                        piece.append(j)
            pieces.append(piece)
        return pieces

    def subgraph(self, piece: list[int]) -> Graph:
        """``piece`` as a :class:`Graph`, its nodes added in sorted order as
        :meth:`Graph.subgraph` adds them."""
        labels = self.labels
        order = self._ordered(sorted(piece))
        graph = Graph()
        for i in order:
            graph.add_node(labels[i])
        for i in order:
            for j in self.adjacency[i]:
                if i < j:
                    graph.add_edge(labels[i], labels[j])
        return graph

    def max_betweenness_edge(self, piece: list[int]) -> tuple[int, int]:
        """The ids of ``piece``'s maximum-betweenness edge.

        The piece is relabelled to ``0 .. k-1`` in sorted order, each
        neighbour list in the sorted order of its labels: the order
        :func:`~repro.graphs.betweenness.max_betweenness_edge` gives the
        same piece as a :class:`Graph`.
        """
        order = self._ordered(sorted(piece))
        position = self._position
        for local, i in enumerate(order):
            position[i] = local
        adjacency = [[position[j] for j in self._ordered(self.adjacency[i])] for i in order]
        (a, b), _ = max_betweenness_pair(adjacency, [self.labels[i] for i in order])
        return order[a], order[b]

    def _ordered(self, ids: list[int]) -> list[int]:
        """``ids``, given by increasing id, in the order
        :func:`~repro.graphs.graph.sorted_nodes` puts their labels.

        Labels that sort naturally all together sort every subset by id.
        Labels that do not (ints mixed with strings) are in ``repr`` order,
        which is id order, only in a subset that does not sort naturally
        either: a piece or a neighbour list of one type sorts naturally.
        """
        if self.natural:
            return ids
        try:
            return sorted(ids, key=self.labels.__getitem__)
        except TypeError:
            return ids


class ComponentRemovals(Protocol):
    """What one component's clean-up removed (a :class:`CleanupReport`
    fits, as does the incremental memo's per-component entry)."""

    @property
    def removed_edges(self) -> AbstractSet[Edge]: ...

    @property
    def mincut_removals(self) -> int: ...

    @property
    def betweenness_removals(self) -> int: ...


def merge_component_cleanups(
    cleaned: Iterable[tuple[Iterable[AbstractSet[Node]], ComponentRemovals]],
    initial_largest_component: int,
) -> tuple[list[set[Node]], CleanupReport]:
    """Join per-component clean-ups into one whole-graph result.

    ``cleaned`` yields each component's final pieces with its removals.
    The pieces are put in :func:`~repro.graphs.components.connected_components`
    order (decreasing size, then smallest member repr) and the removals are
    summed, so the result equals one clean-up of the whole graph.
    """
    components: list[set[Node]] = []
    report = CleanupReport(initial_largest_component=initial_largest_component)
    for pieces, removals in cleaned:
        components.extend(set(piece) for piece in pieces)
        report.removed_edges.update(removals.removed_edges)
        report.mincut_removals += removals.mincut_removals
        report.betweenness_removals += removals.betweenness_removals
    components.sort(key=component_order)
    report.final_largest_component = len(components[0]) if components else 0
    return components, report
