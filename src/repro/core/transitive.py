"""Transitively matched records.

Records ``r_i`` and ``r_j`` are *transitively matched* by a pairwise matching
logic if a path of positive pairwise predictions connects them (Section 1).
The expected output of an entity group matching is the set of groups
represented as complete graphs, so the transitive closure of the predictions
— all edges missing from each connected component — is part of the implied
result and must be included when scoring a group assignment (the paper's
"Pre Graph Cleanup" and "Post Graph Cleanup" stages both do this).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graphs.graph import Edge, canonical_edge
from repro.graphs.union_find import union_find_components


def transitive_closure_edges(edges: Iterable[tuple[str, str]]) -> set[Edge]:
    """All edges of the complete graphs spanned by the connected components.

    The result *includes* the original edges: it is the full set of matches
    implied by the pairwise predictions (predicted + transitive).
    """
    closure: set[Edge] = set()
    for component in union_find_components(edges):
        members = sorted(component, key=repr)
        for i, left in enumerate(members):
            for right in members[i + 1:]:
                closure.add(canonical_edge(left, right))
    return closure


def transitive_matches(edges: Iterable[tuple[str, str]]) -> set[Edge]:
    """Only the *implied* matches: closure edges that were not predicted."""
    edge_list = list(edges)
    predicted = {canonical_edge(u, v) for u, v in edge_list}
    return transitive_closure_edges(edge_list) - predicted


def groups_from_edges(
    edges: Iterable[tuple[str, str]],
    all_records: Iterable[str] | None = None,
) -> list[set[str]]:
    """Connected components of the prediction graph as record-id groups.

    If ``all_records`` is given, records that never appear in a predicted
    match are appended as singleton groups, so the output is a partition of
    the full record set (what a downstream consumer of the matching needs).
    """
    groups = union_find_components(edges)
    if all_records is not None:
        covered = {record for group in groups for record in group}
        for record in all_records:
            if record not in covered:
                groups.append({record})
    return groups
