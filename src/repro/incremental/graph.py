"""The positive graph of an incremental state, updated one component at a time.

:class:`PositiveGraph` holds the candidate keys whose cached verdict is a
match, with their blocking tags, and everything the graph stages derive
from them: the connected components, the pre-cleanup removals, the kept
components with their memoised clean-ups, the final components and the
:class:`~repro.core.cleanup.CleanupReport` totals.  An ingest hands it the
positive keys that joined, left or changed tag, and only the components
holding an endpoint of one of them are recomputed.

That is exact.  A component without such an endpoint keeps every edge and
gains none, so its pre-cleanup verdict, its kept components and their
clean-up cannot change.  Every node of a component that does hold one
either stays connected to one of those endpoints in the new graph or is
left isolated, so a breadth-first search from the endpoints finds every new
component that replaces them.  The pre-cleanup rule needs only one
component's size and tags, and a ``component_local`` clean-up needs only
one kept component's edges (see :mod:`repro.core.cleanup`), so each
recomputed component is processed on its own.  Both component lists stay
sorted by :func:`~repro.graphs.union_find.component_order`, which is a total
order on disjoint sets, so splicing with bisect puts every component where
a whole-graph pass would.

The whole-graph passes this replaces (``apply_pre_cleanup``, a clean-up of
every kept edge, ``groups_from_components``) are the differential oracle in
``tests/incremental/``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from repro.core.cleanup import CleanupReport
from repro.core.groups import EntityGroups
from repro.core.precleanup import PreCleanupConfig
from repro.graphs.graph import Edge, Node, canonical_edge, sorted_edges
from repro.graphs.union_find import DisjointSet, component_order
from repro.incremental.state import ComponentCleanup

#: One kept component's clean-up: sorted edges in, final pieces and a
#: report of the removals out (a registered ``component_local`` strategy).
CleanFn = Callable[[list[Edge]], tuple[list[set[Node]], CleanupReport]]


@dataclass(frozen=True)
class _Component:
    """One connected component of the positive graph and what the graph
    stages made of it."""

    nodes: frozenset[Node]
    order: tuple[int, str]
    #: Edges the pre-cleanup rule removed.
    removed: frozenset[Edge]
    #: Each kept component's memo key (its edge set), node count and
    #: clean-up.
    kept: tuple[tuple[frozenset[Edge], int, ComponentCleanup], ...]


class PositiveGraph:
    """Positive edges, their components, pre-cleanup and clean-up results.

    ``inherited_memo`` is the clean-up memo a loaded state carries; the
    first :meth:`update` serves its lookups from it, and :attr:`memo` then
    holds exactly the current kept components' clean-ups.
    """

    def __init__(
        self,
        pre_cleanup: PreCleanupConfig,
        clean: CleanFn,
        inherited_memo: Mapping[frozenset, ComponentCleanup] | None = None,
    ) -> None:
        self.pre_cleanup = pre_cleanup
        self.clean = clean
        #: Positive key -> the tag of its candidate pair.
        self.tags: dict[Edge, str] = {}
        self._adjacency: dict[Node, set[Node]] = {}
        self._component_of: dict[Node, _Component] = {}
        self._positive: list[frozenset[Node]] = []
        self._positive_orders: list[tuple[int, str]] = []
        self._final: list[frozenset[Node]] = []
        self._final_orders: list[tuple[int, str]] = []
        #: Nodes of the final components (the kept graph's nodes).
        self._covered: set[Node] = set()
        #: Memo key (a kept component's edge set) -> its clean-up.
        self.memo: dict[frozenset, ComponentCleanup] = {}
        self._inherited = dict(inherited_memo or {})
        self.pre_cleanup_removed: set[Edge] = set()
        self._removed_edges: set[Edge] = set()
        self._mincut_removals = 0
        self._betweenness_removals = 0
        #: Kept component size -> how many kept components have it.
        self._kept_sizes: dict[int, int] = {}
        self.num_kept_components = 0

    # -- reads ---------------------------------------------------------------

    def cleanup_report(self) -> CleanupReport:
        """The report one clean-up of every kept edge would give."""
        return CleanupReport(
            removed_edges=set(self._removed_edges),
            mincut_removals=self._mincut_removals,
            betweenness_removals=self._betweenness_removals,
            initial_largest_component=max(self._kept_sizes, default=0),
            final_largest_component=len(self._final[0]) if self._final else 0,
        )

    def groups(self, record_ids: Sequence[str]) -> tuple[EntityGroups, EntityGroups]:
        """Final and pre-cleanup groups over ``record_ids``: components in
        order, then a singleton per uncovered record in the given order."""
        covered = self._covered
        positive = self._adjacency
        return (
            EntityGroups(
                [*self._final, *((rid,) for rid in record_ids if rid not in covered)]
            ),
            EntityGroups(
                [*self._positive, *((rid,) for rid in record_ids if rid not in positive)]
            ),
        )

    # -- the update ------------------------------------------------------------

    def update(self, changes: Sequence[tuple[Edge, str | None]]) -> int:
        """Apply positive-key changes and recompute the touched components.

        ``changes`` pairs each canonical key that joined or changed tag with
        its tag, and each key that left with ``None``.  Returns how many
        kept components missed the memo and were cleaned.
        """
        seeds: dict[Node, None] = {}
        for (u, v), _ in changes:
            seeds[u] = None
            seeds[v] = None
        # The retired components' clean-ups wait in ``stale``: a recomputed
        # kept component whose edges did not change is a memo hit.  (Only a
        # touched component can match one: the others keep their nodes.)
        stale, self._inherited = self._inherited, {}
        retired: dict[tuple[int, str], _Component] = {}
        for node in seeds:
            component = self._component_of.get(node)
            if component is not None:
                retired[component.order] = component
        for order in sorted(retired):
            self._retire(retired[order], stale)

        adjacency = self._adjacency
        for (u, v), tag in changes:
            if tag is None:
                if self.tags.pop((u, v), None) is not None:
                    for a, b in ((u, v), (v, u)):
                        neighbours = adjacency[a]
                        neighbours.discard(b)
                        if not neighbours:
                            del adjacency[a]
            else:
                self.tags[(u, v)] = tag
                adjacency.setdefault(u, set()).add(v)
                adjacency.setdefault(v, set()).add(u)

        misses = 0
        visited: set[Node] = set()
        for seed in seeds:
            if seed in visited or seed not in adjacency:
                continue
            nodes = _reachable(adjacency, seed)
            visited.update(nodes)
            misses += self._install(nodes, stale)
        return misses

    def _retire(self, component: _Component, stale: dict) -> None:
        _remove(self._positive, self._positive_orders, component.order)
        self.pre_cleanup_removed.difference_update(component.removed)
        for key, size, cleanup in component.kept:
            stale[key] = self.memo.pop(key)
            self._count_kept(size, -1)
            self._mincut_removals -= cleanup.mincut_removals
            self._betweenness_removals -= cleanup.betweenness_removals
            self._removed_edges.difference_update(cleanup.removed_edges)
            for piece in cleanup.subcomponents:
                _remove(self._final, self._final_orders, component_order(piece))
                self._covered.difference_update(piece)
        for node in component.nodes:
            del self._component_of[node]

    def _install(self, nodes: set[Node], stale: dict) -> int:
        adjacency = self._adjacency
        edges = sorted_edges(
            {canonical_edge(u, v) for u in nodes for v in adjacency[u]}
        )
        config = self.pre_cleanup
        oversized = config.enabled and len(nodes) > config.max_component_size
        removed = (
            [edge for edge in edges if self.tags[edge] == config.target_blocking]
            if oversized
            else []
        )
        if removed:
            dropped = set(removed)
            kept_edges = [edge for edge in edges if edge not in dropped]
            kept_groups = _edge_components(kept_edges)
        else:
            kept_groups = [(len(nodes), edges)]

        misses = 0
        kept = []
        for size, group in kept_groups:
            key = frozenset(group)
            cleanup = stale.pop(key, None)
            if cleanup is None:
                pieces, report = self.clean(group)
                cleanup = ComponentCleanup(
                    subcomponents=tuple(frozenset(piece) for piece in pieces),
                    removed_edges=frozenset(report.removed_edges),
                    mincut_removals=report.mincut_removals,
                    betweenness_removals=report.betweenness_removals,
                )
                misses += 1
            self.memo[key] = cleanup
            kept.append((key, size, cleanup))
            self._count_kept(size, +1)
            self._mincut_removals += cleanup.mincut_removals
            self._betweenness_removals += cleanup.betweenness_removals
            self._removed_edges.update(cleanup.removed_edges)
            for piece in cleanup.subcomponents:
                _insert(self._final, self._final_orders, piece)
                self._covered.update(piece)

        frozen = frozenset(nodes)
        component = _Component(
            nodes=frozen,
            order=_insert(self._positive, self._positive_orders, frozen),
            removed=frozenset(removed),
            kept=tuple(kept),
        )
        self.pre_cleanup_removed.update(removed)
        for node in frozen:
            self._component_of[node] = component
        return misses

    def _count_kept(self, size: int, step: int) -> None:
        count = self._kept_sizes.get(size, 0) + step
        if count:
            self._kept_sizes[size] = count
        else:
            del self._kept_sizes[size]
        self.num_kept_components += step


def _reachable(adjacency: Mapping[Node, set[Node]], start: Node) -> set[Node]:
    """The nodes connected to ``start``."""
    seen = {start}
    queue: deque[Node] = deque([start])
    while queue:
        for neighbour in adjacency[queue.popleft()]:
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append(neighbour)
    return seen


def _edge_components(edges: list[Edge]) -> list[tuple[int, list[Edge]]]:
    """The connected components of ``edges``, each as its node count and its
    edges in their given order, in order of first edge."""
    dsu = DisjointSet()
    for u, v in edges:
        dsu.union(u, v)
    index_of: dict[Node, int] = {}
    groups: list[list[Edge]] = []
    for edge in edges:
        root = dsu.find(edge[0])
        index = index_of.setdefault(root, len(groups))
        if index == len(groups):
            groups.append([])
        groups[index].append(edge)
    return [(dsu.component_size(group[0][0]), group) for group in groups]


def _insert(
    components: list[frozenset[Node]], orders: list[tuple[int, str]], component: frozenset[Node]
) -> tuple[int, str]:
    order = component_order(component)
    index = bisect_left(orders, order)
    orders.insert(index, order)
    components.insert(index, component)
    return order


def _remove(
    components: list[frozenset[Node]], orders: list[tuple[int, str]], order: tuple[int, str]
) -> None:
    index = bisect_left(orders, order)
    del orders[index]
    del components[index]
