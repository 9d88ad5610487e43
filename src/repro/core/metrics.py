"""Evaluation metrics: pairwise scores, group scores and Cluster Purity.

The experiments score three stages (Section 5.3.2):

1. *Pairwise matching* — the positively predicted candidate pairs, scored
   against **all** ground-truth matches of the dataset (so recall is bounded
   by the blocking).
2. *Pre Graph Cleanup* — the predictions plus all implied transitive
   matches.
3. *Post Graph Cleanup* — the groups produced by GraLMatch, again with all
   intra-group pairs counted.

All three use precision / recall / F1 over unordered record pairs.  The
group stages additionally report the Cluster Purity Score (Section 5.3.3):
the size-weighted average share of true-positive pairs per produced group.

Every function orients the pairs it is given with
:func:`~repro.graphs.graph.canonical_edge`, unless they come as
:class:`CanonicalEdges`, which :func:`canonical_edges` returns: an
experiment orients its ground truth once and scores all three stages
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.core.groups import EntityGroups, member_pairs
from repro.graphs.graph import Edge, canonical_edge


@dataclass(frozen=True)
class PairwiseScores:
    """Precision / recall / F1 over unordered record pairs."""

    precision: float
    recall: float
    f1: float
    true_positives: int
    false_positives: int
    false_negatives: int

    def as_row(self) -> dict[str, float]:
        return {
            "precision": round(100 * self.precision, 2),
            "recall": round(100 * self.recall, 2),
            "f1": round(100 * self.f1, 2),
        }


@dataclass(frozen=True)
class GroupMatchingScores:
    """Pair scores of a group assignment plus its Cluster Purity."""

    precision: float
    recall: float
    f1: float
    cluster_purity: float
    num_groups: int
    largest_group: int

    def as_row(self) -> dict[str, float]:
        return {
            "precision": round(100 * self.precision, 2),
            "recall": round(100 * self.recall, 2),
            "f1": round(100 * self.f1, 2),
            "cluster_purity": round(self.cluster_purity, 2),
        }


class CanonicalEdges(frozenset):
    """A set of edges, each already as :func:`canonical_edge` orients it."""


def canonical_edges(edges: Iterable[tuple[str, str]]) -> CanonicalEdges:
    """``edges`` oriented by :func:`canonical_edge`; :class:`CanonicalEdges`
    come back as they are."""
    if isinstance(edges, CanonicalEdges):
        return edges
    return CanonicalEdges(canonical_edge(left, right) for left, right in edges)


def precision_recall_f1(
    predicted: set[Edge], truth: set[Edge]
) -> tuple[float, float, float, int, int, int]:
    """Core pair-level computation shared by both score types."""
    true_positives = len(predicted & truth)
    false_positives = len(predicted - truth)
    false_negatives = len(truth - predicted)

    precision = (
        true_positives / (true_positives + false_positives)
        if predicted
        else (1.0 if not truth else 0.0)
    )
    recall = (
        true_positives / (true_positives + false_negatives)
        if truth
        else 1.0
    )
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1, true_positives, false_positives, false_negatives


def pairwise_scores(
    predicted_matches: Iterable[tuple[str, str]],
    true_matches: Iterable[tuple[str, str]],
) -> PairwiseScores:
    """Score a set of predicted match pairs against the ground truth."""
    predicted = canonical_edges(predicted_matches)
    truth = canonical_edges(true_matches)
    precision, recall, f1, tp, fp, fn = precision_recall_f1(predicted, truth)
    return PairwiseScores(precision, recall, f1, tp, fp, fn)


def cluster_purity(
    groups: EntityGroups,
    true_matches: Iterable[tuple[str, str]],
) -> float:
    """Cluster Purity Score of a group assignment (Section 5.3.3).

    For every produced group ``c_i`` (interpreted as a complete graph) the
    share of its pairs that are true matches is computed and the shares are
    averaged weighted by group size.  Singleton groups have no pairs and are
    counted as pure, which matches the intuition that an unmatched record
    cannot contaminate any downstream aggregation.
    """
    truth = canonical_edges(true_matches)
    total_weight = 0
    weighted_purity = 0.0
    for group in groups:
        size = len(group)
        total_weight += size
        num_edges = size * (size - 1) // 2
        if num_edges == 0:
            weighted_purity += size * 1.0
            continue
        true_pairs = len(truth.intersection(member_pairs(group)))
        weighted_purity += size * (true_pairs / num_edges)
    if total_weight == 0:
        return 1.0
    return weighted_purity / total_weight


def group_matching_scores(
    groups: EntityGroups,
    true_matches: Iterable[tuple[str, str]],
) -> GroupMatchingScores:
    """Score a group assignment: pair precision / recall / F1 + Cluster Purity."""
    truth = canonical_edges(true_matches)
    predicted = groups.match_edges()
    precision, recall, f1, *_ = precision_recall_f1(predicted, truth)
    purity = cluster_purity(groups, truth)
    sizes = groups.group_sizes()
    return GroupMatchingScores(
        precision=precision,
        recall=recall,
        f1=f1,
        cluster_purity=purity,
        num_groups=len(groups),
        largest_group=sizes[0] if sizes else 0,
    )
