"""Tests for transitive matches and entity groups."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.groups import EntityGroups
from repro.core.transitive import (
    groups_from_edges,
    transitive_closure_edges,
    transitive_matches,
)
from repro.datagen import figure2_dataset
from repro.graphs.graph import canonical_edge


class TestTransitiveClosure:
    def test_path_implies_all_pairs(self):
        # The Figure 3 example: #11-#21, #21-#33, #33-#41 imply three more.
        edges = [("#11", "#21"), ("#21", "#33"), ("#33", "#41")]
        closure = transitive_closure_edges(edges)
        assert len(closure) == 6
        implied = transitive_matches(edges)
        assert implied == {("#11", "#33"), ("#11", "#41"), ("#21", "#41")}

    def test_no_edges(self):
        assert transitive_closure_edges([]) == set()
        assert transitive_matches([]) == set()

    def test_complete_component_has_no_implied_matches(self):
        edges = [("a", "b"), ("b", "c"), ("a", "c")]
        assert transitive_matches(edges) == set()

    def test_two_components_stay_separate(self):
        edges = [("a", "b"), ("c", "d")]
        closure = transitive_closure_edges(edges)
        assert ("a", "c") not in closure
        assert ("a", "b") in closure

    @given(st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda e: e[0] != e[1]),
        max_size=25,
    ))
    @settings(max_examples=50, deadline=None)
    def test_closure_is_idempotent_and_superset(self, edges):
        edges = [(f"r{u}", f"r{v}") for u, v in edges]
        closure = transitive_closure_edges(edges)
        assert {tuple(sorted(e)) for e in edges} <= closure
        assert transitive_closure_edges(closure) == closure


class TestGroupsFromEdges:
    def test_groups_partition(self):
        groups = groups_from_edges([("a", "b"), ("b", "c"), ("x", "y")])
        assert {frozenset(g) for g in groups} == {frozenset("abc"), frozenset("xy")}

    def test_singletons_appended(self):
        groups = groups_from_edges([("a", "b")], all_records=["a", "b", "z"])
        assert {frozenset(g) for g in groups} == {frozenset("ab"), frozenset("z")}

    def test_a_self_match_is_the_record_alone(self):
        # Union-find puts a record matched with itself in a group of its
        # own, and the closure implies no pair from it.
        assert groups_from_edges([("a", "a"), ("c", "b")]) == [{"b", "c"}, {"a"}]
        assert transitive_closure_edges([("a", "a")]) == set()


class TestEntityGroups:
    def test_basic_accessors(self):
        groups = EntityGroups([["a", "b"], ["c"]])
        assert len(groups) == 2
        assert groups.num_records == 3
        assert groups.same_group("a", "b")
        assert not groups.same_group("a", "c")
        assert not groups.same_group("a", "zz")
        assert groups.group_of("c") == frozenset({"c"})
        assert "a" in groups and "zz" not in groups

    def test_duplicate_record_rejected(self):
        with pytest.raises(ValueError):
            EntityGroups([["a", "b"], ["b", "c"]])

    def test_empty_groups_skipped(self):
        groups = EntityGroups([[], ["a"]])
        assert len(groups) == 1

    def test_match_edges_complete_graphs(self):
        groups = EntityGroups([["a", "b", "c"], ["x", "y"]])
        assert groups.match_edges() == {
            ("a", "b"), ("a", "c"), ("b", "c"), ("x", "y"),
        }

    def test_match_edges_sort_int_labels_numerically(self):
        groups = EntityGroups([[3, 1, 2], [10, 9]])
        assert groups.match_edges() == {(1, 2), (1, 3), (2, 3), (9, 10)}

    @given(st.lists(
        st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=3), unique=True),
        max_size=4,
    ))
    @settings(max_examples=60, deadline=None)
    def test_match_edges_are_the_canonical_intra_group_pairs(self, raw):
        seen: set[str] = set()
        groups = []
        for group in raw:
            fresh = [record for record in group if record not in seen]
            seen.update(fresh)
            groups.append(fresh)
        expected = {
            canonical_edge(left, right)
            for group in groups
            for i, left in enumerate(group)
            for right in group[i + 1:]
        }
        assert EntityGroups(groups).match_edges() == expected

    def test_group_sizes_and_largest(self):
        groups = EntityGroups([["a"], ["b", "c", "d"], ["e", "f"]])
        assert groups.group_sizes() == [3, 2, 1]
        assert groups.largest_group() == frozenset({"b", "c", "d"})
        assert len(groups.non_singleton_groups()) == 2

    def test_from_edges_with_all_records(self):
        groups = EntityGroups.from_edges([("a", "b")], all_records=["a", "b", "c"])
        assert groups.num_records == 3

    def test_from_ground_truth(self):
        companies, _ = figure2_dataset()
        groups = EntityGroups.from_ground_truth(companies)
        assert groups.same_group("#12", "#40")
        assert not groups.same_group("#12", "#13")

    def test_empty(self):
        groups = EntityGroups([])
        assert len(groups) == 0
        assert groups.largest_group() == frozenset()
        assert groups.match_edges() == set()
