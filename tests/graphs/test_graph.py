"""Unit tests for the edge helpers and the int-id match graph."""

import pytest

from repro.graphs import IdGraph
from repro.graphs.graph import canonical_edge, sorted_edges


class TestCanonicalEdge:
    def test_orders_comparable_nodes(self):
        assert canonical_edge(2, 1) == (1, 2)
        assert canonical_edge(1, 2) == (1, 2)

    def test_orders_strings(self):
        assert canonical_edge("b", "a") == ("a", "b")

    def test_mixed_types_fall_back_to_repr(self):
        edge = canonical_edge("a", 1)
        assert set(edge) == {"a", 1}
        assert edge == canonical_edge(1, "a")


class TestSortedEdges:
    def test_orders_comparable_edges(self):
        assert sorted_edges([(2, 3), (1, 4), (1, 2)]) == [(1, 2), (1, 4), (2, 3)]

    def test_mixed_types_fall_back_to_repr(self):
        # A string's repr opens with a quote, which sorts before digits.
        assert sorted_edges([(2, "b"), ("a", 1)]) == [("a", 1), (2, "b")]


class TestGraphBasics:
    # The int-id match graph the clean-ups cut.

    def test_empty_graph(self):
        g = IdGraph([])
        assert g.labels == []
        assert g.adjacency == []
        assert g.pieces(range(0)) == []

    def test_construct_from_edges(self):
        # Ids follow the sorted labels; each adjacency list is sorted.
        g = IdGraph([("c", "a"), ("b", "c"), ("a", "d")])
        assert g.labels == ["a", "b", "c", "d"]
        assert g.ids == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert g.adjacency == [[2, 3], [2], [0, 1], [0]]

    def test_add_duplicate_edge_is_idempotent(self):
        assert IdGraph([(1, 2), (2, 1)]).adjacency == [[1], [0]]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            IdGraph([("x", "x")])

    def test_remove_edge(self):
        g = IdGraph([(1, 2), (2, 3), (1, 3)])
        g.remove_edge(2, 0)
        assert g.adjacency == [[1], [0, 2], [1]]

    def test_remove_missing_edge_raises(self):
        g = IdGraph([(1, 2), (3, 4)])
        with pytest.raises(ValueError):
            g.remove_edge(0, 2)

    def test_edges_are_named_by_their_labels(self):
        g = IdGraph([("b", "a"), (1, "a")])
        assert g.edge(g.ids["b"], g.ids["a"]) == ("a", "b")
        assert g.edge(g.ids["a"], g.ids[1]) == canonical_edge(1, "a")

    def test_pieces_hold_the_given_ids(self):
        g = IdGraph([(1, 2), (2, 3), (4, 5), (6, 7)])
        assert g.pieces(range(7)) == [[0, 1, 2], [3, 4], [5, 6]]
        assert g.pieces([4, 2]) == [[4, 3], [2, 1, 0]]
        g.remove_edge(0, 1)
        assert g.pieces([0, 1]) == [[0], [1, 2]]

    def test_mixed_labels_order_each_piece_by_its_own_labels(self):
        # The whole graph sorts by repr ("'a'" < "1" < "10" < "2"), but a
        # piece of ints, and each neighbour list of ints, sorts naturally.
        g = IdGraph([(1, 2), (2, 10), (10, 1), ("a", "b")])
        assert g.labels == ["a", "b", 1, 10, 2]
        assert not g.natural
        order, adjacency = g._relabel(g.pieces([g.ids[1]])[0])
        assert [g.labels[i] for i in order] == [1, 2, 10]
        assert adjacency == [[1, 2], [0, 2], [0, 1]]
