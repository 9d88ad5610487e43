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

from repro.core.cleanup import CleanupConfig, CleanupReport, clean_graph
from repro.graphs.betweenness import max_betweenness_edge
from repro.graphs.bridges import bridges
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.validation import density
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
    graph = Graph(edges)
    components = connected_components(graph)

    removed_bridges = set()
    for component in components:
        if len(component) <= config.mu:
            continue
        subgraph = graph.subgraph(component)
        for edge in bridges(subgraph):
            removed_bridges.add(edge)
    graph.remove_edges(removed_bridges)

    remaining_components, report = clean_graph(graph, config)
    report.initial_largest_component = len(components[0]) if components else 0
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
    """
    if not 0.0 < min_density <= 1.0:
        raise ValueError("min_density must be in (0, 1]")
    graph = Graph(edges)
    report = CleanupReport()
    components = connected_components(graph)
    report.initial_largest_component = len(components[0]) if components else 0

    for _ in range(max_iterations):
        sparse = [
            component
            for component in connected_components(graph)
            if len(component) > 2 and density(graph.subgraph(component)) < min_density
        ]
        if not sparse:
            break
        target = max(sparse, key=len)
        subgraph = graph.subgraph(target)
        edge, _ = max_betweenness_edge(subgraph)
        graph.remove_edge(*edge)
        report.removed_edges.add(edge)
        report.betweenness_removals += 1

    final_components = connected_components(graph)
    report.final_largest_component = len(final_components[0]) if final_components else 0
    return [set(component) for component in final_components], report


@register_cleanup("adaptive")
def adaptive_cleanup_strategy(
    edges: Iterable[tuple[str, str]],
    config: CleanupConfig | None = None,
) -> tuple[list[set[str]], CleanupReport]:
    """Registry adapter for :func:`adaptive_cleanup`.

    The adaptive strategy is density-driven, so the ``gamma``/``mu``
    thresholds of ``config`` are intentionally ignored — the adapter exists
    so declarative specs can select the strategy by name with the common
    ``(edges, config)`` calling convention.

    Deliberately *not* marked ``component_local``: although each removal
    targets one component's subgraph, ``max_iterations`` is a single global
    budget shared across components — running the strategy once per
    component would give every component its own fresh budget and could
    remove more edges than one whole-graph run.  The incremental subsystem
    therefore re-cleans the whole graph for this strategy (correct, just
    not delta-proportional).
    """
    return adaptive_cleanup(edges)
