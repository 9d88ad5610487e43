"""Entity groups: the output of an entity group matching.

An :class:`EntityGroups` object is a partition of (a subset of) the record
ids into groups, each group standing for one real-world entity.  Groups are
interpreted as complete graphs: every pair of records within a group is a
match (predicted or transitive).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.graphs.graph import Edge, Node, canonical_edge


def member_pairs(group: Iterable[Node]) -> list[Edge]:
    """Every pair of ``group``'s members, each as :func:`canonical_edge`
    orients it.

    Members that sort naturally make every pair canonical as it is built.
    Mixed labels (ints with strings) do not sort, so, as in
    :class:`~repro.graphs.idgraph.IdGraph`, they are ordered by ``repr``
    and each pair is oriented by :func:`canonical_edge`.
    """
    try:
        members = sorted(group)  # type: ignore[type-var]
    except TypeError:
        members = sorted(group, key=repr)
        return [
            canonical_edge(left, right)
            for i, left in enumerate(members)
            for right in members[i + 1:]
        ]
    return [(left, right) for i, left in enumerate(members) for right in members[i + 1:]]


class EntityGroups:
    """A group assignment of records."""

    def __init__(self, groups: Iterable[Iterable[str]]) -> None:
        self._groups: list[frozenset[str]] = []
        seen: dict[str, int] = {}
        for group in groups:
            frozen = frozenset(group)
            if not frozen:
                continue
            for record_id in frozen:
                if record_id in seen:
                    raise ValueError(
                        f"record {record_id!r} appears in more than one group"
                    )
                seen[record_id] = len(self._groups)
            self._groups.append(frozen)
        self._group_of = seen

    # -- basic access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self._groups)

    @property
    def groups(self) -> list[frozenset[str]]:
        return list(self._groups)

    @property
    def num_records(self) -> int:
        return len(self._group_of)

    def group_of(self, record_id: str) -> frozenset[str]:
        """The group containing ``record_id`` (KeyError when unassigned)."""
        return self._groups[self._group_of[record_id]]

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._group_of

    def same_group(self, left_id: str, right_id: str) -> bool:
        """True when both records are assigned and share a group."""
        if left_id not in self._group_of or right_id not in self._group_of:
            return False
        return self._group_of[left_id] == self._group_of[right_id]

    # -- derived quantities ----------------------------------------------------------

    def match_edges(self) -> set[Edge]:
        """All intra-group record pairs (the complete-graph interpretation)."""
        edges: set[Edge] = set()
        for group in self._groups:
            edges.update(member_pairs(group))
        return edges

    def group_sizes(self) -> list[int]:
        return sorted((len(group) for group in self._groups), reverse=True)

    def largest_group(self) -> frozenset[str]:
        if not self._groups:
            return frozenset()
        return max(self._groups, key=len)

    def non_singleton_groups(self) -> list[frozenset[str]]:
        return [group for group in self._groups if len(group) > 1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EntityGroups(groups={len(self._groups)}, records={self.num_records}, "
            f"largest={len(self.largest_group())})"
        )

    # -- constructors ------------------------------------------------------------------

    @classmethod
    def covering(
        cls, components: Iterable[Iterable[str]], record_ids: Iterable[str]
    ) -> "EntityGroups":
        """``components`` in their given order, then a singleton group per
        record of ``record_ids`` they leave uncovered, in that order."""
        groups = cls(components)
        group_of = groups._group_of
        for record_id in record_ids:
            if record_id not in group_of:
                group_of[record_id] = len(groups._groups)
                groups._groups.append(frozenset((record_id,)))
        return groups

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[str, str]], all_records: Iterable[str] | None = None
    ) -> "EntityGroups":
        """Groups = connected components of a prediction edge list."""
        from repro.core.transitive import groups_from_edges

        return cls(groups_from_edges(edges, all_records))

    @classmethod
    def from_ground_truth(cls, dataset) -> "EntityGroups":
        """The ground-truth group assignment of a generated dataset."""
        return cls(dataset.entity_groups().values())
