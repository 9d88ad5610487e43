"""Tests for edge density."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, density


class TestDensity:
    def test_empty_graph(self):
        assert density(Graph()) == 0.0

    def test_complete_graph_density_one(self):
        assert density(Graph.complete(range(5))) == pytest.approx(1.0)

    def test_path_density(self):
        g = Graph([(1, 2), (2, 3), (3, 4)])
        assert density(g) == pytest.approx(3 / 6)

    def test_single_node_has_density_zero(self):
        g = Graph()
        g.add_node(1)
        assert density(g) == 0.0

    def test_one_pair_is_complete(self):
        assert density(Graph([("a", "b")])) == 1.0

    def test_complete_graphs_of_every_size_have_density_one(self):
        for size in range(2, 9):
            assert density(Graph.complete(range(size))) == 1.0

    def test_isolated_node_lowers_density(self):
        g = Graph([(1, 2), (2, 3), (1, 3)])
        g.add_node(4)
        assert density(g) == pytest.approx(3 / 6)

    def test_two_components_count_every_missing_pair(self):
        # Two triangles: 6 of the 15 pairs of six records.
        g = Graph([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        assert density(g) == pytest.approx(6 / 15)

    @given(st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda e: e[0] != e[1]),
        max_size=40,
    ))
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, edges):
        assert density(Graph(edges)) == pytest.approx(nx.density(nx.Graph(edges)))
