"""Alternative graph clean-up strategies.

The paper (Section 4.2) notes that "different approaches can be employed to
discover good candidate edges for removal" and that Algorithm 1's fixed
group-size cap is a poor fit for datasets with heterogeneous group sizes
such as WDC Products (Section 6.2.3).  This module implements two
alternatives that the ablation benchmark compares against Algorithm 1:

* :func:`bridge_removal_cleanup` — remove *bridge* edges from oversized
  components first (cheap, targets exactly the single-spurious-edge
  failure mode), then fall back to Algorithm 1 for what remains.
* :func:`adaptive_cleanup` — like Algorithm 1, but instead of a hard ``mu``
  cap it stops splitting a component once its edge density exceeds a
  threshold, allowing genuinely large, densely confirmed groups to survive
  (the behaviour one would want for web-scraped product offers).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.cleanup import (
    CleanupConfig,
    CleanupReport,
    clean_components,
    merge_component_cleanups,
)
from repro.graphs.idgraph import IdGraph
from repro.graphs.union_find import component_order
from repro.registry import register_cleanup


@register_cleanup("bridge_removal")
def bridge_removal_cleanup(
    edges: Iterable[tuple[str, str]],
    config: CleanupConfig | None = None,
) -> tuple[list[set[str]], CleanupReport]:
    """Remove bridges from oversized components, then run Algorithm 1.

    Bridges inside components larger than ``mu`` are removed in one pass —
    they are exactly the "single false positive joining two groups" pattern
    of Figure 4 and cost O(n + m) to find.  Components that are still too
    large afterwards (false positives forming parallel paths) are handled by
    the regular GraLMatch clean-up, run on the same graph, so a record the
    bridge pass isolates comes back as a singleton component.
    """
    config = config or CleanupConfig()
    graph = IdGraph(edges)
    components = graph.pieces(range(len(graph.labels)))
    removed_bridges = set()
    for component in components:
        if len(component) > config.mu:
            for i, j in graph.bridges(component):
                graph.remove_edge(i, j)
                removed_bridges.add(graph.edge(i, j))

    remaining_components, report = clean_components(graph, config)
    report.initial_largest_component = max(map(len, components), default=0)
    report.removed_edges |= removed_bridges
    return remaining_components, report


# Bridges are found per oversized component and the Algorithm 1 fallback is
# itself component-local, so this strategy qualifies for per-component
# incremental recleanup (see the marker in repro.core.cleanup).
bridge_removal_cleanup.component_local = True


def adaptive_cleanup(
    edges: Iterable[tuple[str, str]],
    min_density: float = 0.6,
    max_iterations: int = 10_000,
) -> tuple[list[set[str]], CleanupReport]:
    """Density-driven clean-up for heterogeneous group sizes.

    Instead of capping group size at ``mu``, keep removing the highest
    betweenness edge from any component whose edge density is below
    ``min_density``: a group of records that is genuinely one entity tends to
    be densely confirmed by pairwise predictions regardless of its size,
    whereas two groups joined by a few false positives are sparse.

    Every removal is chosen from one sparse piece of one connected
    component, so each component is cleaned on its own, with
    ``max_iterations`` bounding the removals in each, and
    :func:`~repro.core.cleanup.merge_component_cleanups` joins the results.
    Wherever no component needs more than ``max_iterations`` removals this
    equals one whole-graph loop under one shared budget (the differential
    oracle in ``tests/core/test_cleanup_variants.py``).
    """
    if not 0.0 < min_density <= 1.0:
        raise ValueError("min_density must be in (0, 1]")
    graph = IdGraph(edges)
    components = graph.pieces(range(len(graph.labels)))
    return merge_component_cleanups(
        (
            _adaptive_component(graph, component, min_density, max_iterations)
            for component in components
        ),
        initial_largest_component=max(map(len, components), default=0),
    )


def _adaptive_component(
    graph: IdGraph, component: list[int], min_density: float, max_iterations: int
) -> tuple[list[set[str]], CleanupReport]:
    """The density loop on one component of ``graph``, cut in place.

    Each round cuts the largest sparse piece, ties going to the first in
    :func:`~repro.graphs.union_find.component_order`; a dense piece is
    never cut again, so it is final at once.  The merge fills in the
    report's component sizes.
    """
    report = CleanupReport()
    final: list[set[str]] = []
    sparse: list[tuple[tuple[int, str], list[int], set[str]]] = []

    def sort_out(pieces: list[list[int]]) -> None:
        for piece in pieces:
            labels = {graph.labels[i] for i in piece}
            n = len(piece)
            edges = sum(len(graph.adjacency[i]) for i in piece) // 2
            if n > 2 and edges / (n * (n - 1) / 2) < min_density:
                sparse.append((component_order(labels), piece, labels))
            else:
                final.append(labels)

    sort_out([component])
    for _ in range(max_iterations):
        if not sparse:
            break
        _, piece, _ = sparse.pop(min(range(len(sparse)), key=lambda k: sparse[k][0]))
        i, j = graph.max_betweenness_edge(piece)
        graph.remove_edge(i, j)
        report.removed_edges.add(graph.edge(i, j))
        report.betweenness_removals += 1
        sort_out(graph.pieces(piece))
    final.extend(labels for _, _, labels in sparse)
    return final, report


@register_cleanup("adaptive")
def adaptive_cleanup_strategy(
    edges: Iterable[tuple[str, str]],
    config: CleanupConfig | None = None,
) -> tuple[list[set[str]], CleanupReport]:
    """Registry adapter for :func:`adaptive_cleanup`.

    The adaptive strategy is density-driven, so the ``gamma``/``mu``
    thresholds of ``config`` are intentionally ignored — the adapter exists
    so declarative specs can select the strategy by name with the common
    ``(edges, config)`` calling convention.  Its ``max_iterations`` budget
    (10,000) bounds the removals in each connected component.
    """
    return adaptive_cleanup(edges)


# Each component is cleaned on its own, under its own budget.
adaptive_cleanup_strategy.component_local = True
