"""The whole-state recomputation an ingest used to run, kept as an oracle.

Before ingests updated the candidate counts and the positive graph from
each batch's rescored records, every ingest re-derived the graph stages
from the whole state: it assembled the candidate stream from every stored
owned list (parts-major, dataset order, first-wins dedupe), gathered every
decision, ran ``apply_pre_cleanup`` over all of them, found the kept
graph's components, looked each component's frozen edge set up in the
previous ingest's clean-up memo, merged the per-component clean-ups and
built both group lists with ``groups_from_components``.  :func:`recompute`
is that computation; :func:`assert_matches_oracle` checks an ingested
matcher against it, field by field.  :func:`ingest_checked` also checks
that the batch scored its new pairs in the stream's first-emission order,
which is what keeps the decision cache and the profile store growing
byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blocking.base import CandidatePair, dedupe_pairs
from repro.core.cleanup import CleanupReport, merge_component_cleanups
from repro.core.groups import EntityGroups
from repro.core.stages import apply_pre_cleanup, groups_from_components
from repro.graphs.graph import Edge, canonical_edge, sorted_edges
from repro.graphs.union_find import DisjointSet
from repro.incremental import ComponentCleanup, IncrementalMatcher
from repro.registry import CLEANUPS


@dataclass
class Recomputed:
    candidates: list[CandidatePair]
    positive_edges: list[Edge]
    kept_edges: list[Edge]
    pre_cleanup_removed: set[Edge]
    cleanup_report: CleanupReport
    groups: EntityGroups
    pre_cleanup_groups: EntityGroups
    memo: dict[frozenset, ComponentCleanup]
    memo_hits: int
    memo_misses: int


def recompute(matcher: IncrementalMatcher, previous_memo) -> Recomputed:
    """Every graph-stage result of ``matcher``'s state, from scratch.

    ``previous_memo`` is the clean-up memo the state held before its latest
    ingest; the hit and miss counts are taken against it.
    """
    state = matcher.state
    merged: list[CandidatePair] = []
    for owned in state.owned_pairs:
        for record in state.records:
            merged.extend(CandidatePair(*entry) for entry in owned.get(record.record_id, ()))
    candidates = dedupe_pairs(merged)
    decisions = state.decisions.vector([candidate.key for candidate in candidates])
    positive_edges, _, kept, removed = apply_pre_cleanup(
        decisions, candidates, state.pre_cleanup_config
    )

    dsu = DisjointSet()
    for u, v in kept:
        dsu.union(u, v)
    components = dsu.components()
    edges_by_root: dict = {}
    for edge in kept:
        edges_by_root.setdefault(dsu.find(edge[0]), []).append(edge)
    cleanup_fn = CLEANUPS.get(state.cleanup_strategy)
    memo: dict[frozenset, ComponentCleanup] = {}
    hits = 0
    for component in components:
        component_edges = edges_by_root[dsu.find(next(iter(component)))]
        key = frozenset(component_edges)
        cached = previous_memo.get(key)
        if cached is None:
            pieces, report = cleanup_fn(sorted_edges(component_edges), state.cleanup_config)
            cached = ComponentCleanup(
                subcomponents=tuple(frozenset(piece) for piece in pieces),
                removed_edges=frozenset(report.removed_edges),
                mincut_removals=report.mincut_removals,
                betweenness_removals=report.betweenness_removals,
            )
        else:
            hits += 1
        memo[key] = cached
    final, cleanup_report = merge_component_cleanups(
        ((entry.subcomponents, entry) for entry in memo.values()),
        initial_largest_component=len(components[0]) if components else 0,
    )
    groups, pre_cleanup_groups = groups_from_components(
        final, [record.record_id for record in state.records], positive_edges
    )
    return Recomputed(
        candidates=candidates,
        positive_edges=positive_edges,
        kept_edges=kept,
        pre_cleanup_removed=removed,
        cleanup_report=cleanup_report,
        groups=groups,
        pre_cleanup_groups=pre_cleanup_groups,
        memo=memo,
        memo_hits=hits,
        memo_misses=len(memo) - hits,
    )


def assert_matches_oracle(matcher: IncrementalMatcher, previous_memo) -> None:
    """The matcher's counts, graph and results equal :func:`recompute`."""
    expected = recompute(matcher, previous_memo)
    state = matcher.state
    assert matcher._counts.tags == {
        candidate.key: candidate.blocking for candidate in expected.candidates
    }
    assert state.num_candidates == len(expected.candidates)
    graph = matcher._graph
    assert graph.tags == {
        canonical_edge(*edge): matcher._counts.tags[canonical_edge(*edge)]
        for edge in expected.positive_edges
    }
    assert set().union(*state.cleanup_memo) == set(expected.kept_edges)
    assert state.pre_cleanup_removed == expected.pre_cleanup_removed
    assert state.cleanup_report == expected.cleanup_report
    assert state.groups.groups == expected.groups.groups
    assert state.pre_cleanup_groups.groups == expected.pre_cleanup_groups.groups
    assert state.cleanup_memo == expected.memo
    report = matcher.last_report
    assert (report.components_reused, report.components_recleaned) == (
        expected.memo_hits,
        expected.memo_misses,
    )
    assert report.components_total == len(expected.memo)


def ingest_checked(matcher: IncrementalMatcher, batch):
    """``matcher.ingest(batch)``, then the oracle check, and the rows the
    batch appended to the decision cache against the candidate stream."""
    cache = matcher.state.decisions
    rows_before, known = len(cache), set(cache._index)
    previous_memo = dict(matcher.state.cleanup_memo)
    report = matcher.ingest(batch)
    assert_matches_oracle(matcher, previous_memo)
    assert cache._pairs[rows_before:] == [
        (candidate.left_id, candidate.right_id)
        for candidate in matcher.candidates()
        if candidate.key not in known
    ]
    return report
