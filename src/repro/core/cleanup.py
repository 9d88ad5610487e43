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
clean-up runs one component at a time (:func:`clean_component`): the
initial components are found once, and each is worked down as a list of
*pieces* — a piece larger than ``gamma`` loses a minimum edge cut, a piece
larger than ``mu`` loses its maximum-betweenness edge, and connectivity is
recomputed only inside the piece just cut, never over the whole graph.
This cannot change the output.  Each cut and each betweenness edge is
computed on one piece's induced subgraph, which :meth:`Graph.subgraph`
builds in sorted order whatever the rest of the graph holds, so pieces are
cut the same way in any order.  :func:`merge_component_cleanups` then puts
the final pieces in ``connected_components`` order, which makes the
components, the removed edges and every :class:`CleanupReport` field those
of the whole-graph loop (kept in the tests as the differential oracle).

The sensitivity variants of Section 5.2.1 are expressed through
:class:`CleanupConfig`: ``gamma = mu`` gives the MEC-only variant,
``gamma = None`` (treated as infinity) gives the BC-only variant and halving
``gamma`` gives the ``½γ`` variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Set as AbstractSet
from typing import Protocol

from repro.graphs.betweenness import max_betweenness_edge
from repro.graphs.components import connected_components
from repro.graphs.graph import Edge, Graph, Node
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
    return clean_graph(Graph(edges), config or CleanupConfig())


# Every removal Algorithm 1 makes is chosen from (and applied to) a single
# connected component's subgraph, and the stopping conditions are per
# component — which is how clean_graph runs it: one initial component at a
# time, with exactly the output of one whole-graph run.  The incremental
# subsystem relies on the same property to re-clean only *dirty*
# components; strategies without the marker are re-run on the whole graph
# every ingest.
gralmatch_cleanup.component_local = True


def clean_graph(
    graph: Graph, config: CleanupConfig
) -> tuple[list[set[Node]], CleanupReport]:
    """Algorithm 1 on every connected component of ``graph``, one at a time.

    ``graph`` is left untouched: each component is cleaned on its own
    induced subgraph.  Isolated nodes come back as singleton components.
    """
    components = connected_components(graph)
    return merge_component_cleanups(
        (clean_component(graph.subgraph(component), config) for component in components),
        initial_largest_component=len(components[0]) if components else 0,
    )


def clean_component(
    graph: Graph, config: CleanupConfig
) -> tuple[list[set[Node]], CleanupReport]:
    """Algorithm 1 on one component, held as its own ``graph``.

    A worklist of pieces, each a connected graph: a piece larger than
    ``gamma`` loses a minimum edge cut, a piece larger than ``mu`` loses
    its maximum-betweenness edge, and only the piece just cut has its
    connectivity recomputed.  ``graph`` is modified in place.

    Returns the final pieces (in no particular order) and a report of the
    removals; its component-size fields are left for
    :func:`merge_component_cleanups` to fill in.
    """
    report = CleanupReport()
    final: list[set[Node]] = []
    pending = _pieces(graph)
    while pending:
        piece = pending.pop()
        size = piece.num_nodes
        if config.gamma is not None and size > config.gamma:
            # A connected piece's minimum cut is never empty: it splits.
            cut = minimum_edge_cut(piece)
            piece.remove_edges(cut)
            report.removed_edges.update(cut)
            report.mincut_removals += len(cut)
        elif size > config.mu:
            edge, _ = max_betweenness_edge(piece)
            piece.remove_edge(*edge)
            report.removed_edges.add(edge)
            report.betweenness_removals += 1
        else:
            final.append(set(piece.nodes()))
            continue
        pending.extend(_pieces(piece))
    return final, report


def _pieces(graph: Graph) -> list[Graph]:
    """The connected components of ``graph``, each as its own graph."""
    components = connected_components(graph)
    if len(components) == 1:
        return [graph]
    return [graph.subgraph(component) for component in components]


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
