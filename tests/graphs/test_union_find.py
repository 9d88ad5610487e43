"""Union-find correctness: unit behaviour plus property-based equivalence
with networkx's BFS connected components in the canonical component order."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import DisjointSet, union_find_components
from repro.graphs.union_find import component_order

nodes = st.integers(min_value=0, max_value=30).map(lambda i: f"n{i:02d}")
edges = st.lists(
    st.tuples(nodes, nodes).filter(lambda edge: edge[0] != edge[1]),
    max_size=120,
)


class TestDisjointSet:
    def test_singletons_after_add(self):
        dsu = DisjointSet(["a", "b"])
        assert dsu.find("a") == "a"
        assert not dsu.connected("a", "b")
        assert dsu.component_size("a") == 1

    def test_union_merges_and_tracks_size(self):
        dsu = DisjointSet()
        dsu.union("a", "b")
        dsu.union("b", "c")
        assert dsu.connected("a", "c")
        assert dsu.component_size("a") == 3
        assert len(dsu) == 3

    def test_self_union_is_a_noop(self):
        dsu = DisjointSet()
        dsu.union("a", "a")
        assert dsu.component_size("a") == 1

    def test_find_unknown_node_raises(self):
        with pytest.raises(KeyError):
            DisjointSet().find("ghost")

    def test_connected_with_unknown_node_is_false(self):
        dsu = DisjointSet(["a"])
        assert not dsu.connected("a", "ghost")

    def test_path_compression_flattens_the_forest(self):
        dsu = DisjointSet()
        for i in range(100):
            dsu.union(f"n{i}", f"n{i + 1}")
        root = dsu.find("n0")
        assert all(dsu._parent[dsu._parent[f"n{i}"]] == root for i in range(101))

    def test_components_ordering_by_size_then_repr(self):
        dsu = DisjointSet(["z"])
        dsu.union("b", "c")
        dsu.union("d", "e")
        dsu.union("e", "f")
        assert dsu.components() == [{"d", "e", "f"}, {"b", "c"}, {"z"}]


def networkx_components(edges, nodes=()) -> list[set]:
    """networkx's BFS components, sorted into the canonical order."""
    reference = nx.Graph()
    reference.add_nodes_from(nodes)
    reference.add_edges_from(edges)
    return sorted(nx.connected_components(reference), key=component_order)


class TestUnionFindEqualsBfs:
    """On random edge sets, union-find must equal networkx's BFS components
    exactly — same partition, same deterministic order."""

    @given(edges=edges)
    @settings(max_examples=200, deadline=None)
    def test_same_components_same_order(self, edges):
        assert union_find_components(edges) == networkx_components(edges)

    @given(edges=edges, isolated=st.sets(nodes, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_isolated_nodes_become_singletons(self, edges, isolated):
        isolated = sorted(isolated)
        assert union_find_components(edges, isolated) == (
            networkx_components(edges, isolated)
        )

    def test_a_random_string_graph_matches_networkx(self):
        rng = random.Random(5)
        edges = []
        for _ in range(300):
            u, v = rng.sample(range(80), 2)
            edges.append((f"r{u}", f"r{v}"))
        assert union_find_components(edges) == networkx_components(edges)

    def test_mixed_node_types_fall_back_to_repr_ordering(self):
        edges = [(1, "a"), ("b", 2.5)]
        assert union_find_components(edges) == networkx_components(edges)


class TestIncrementalGrowthEqualsRebuild:
    """The dynamic-extend contract the incremental subsystem leans on: a
    forest grown edge by edge (in any batch split) is indistinguishable
    from one rebuilt from scratch over the full edge set."""

    @given(edges=edges, split=st.integers(min_value=0, max_value=120))
    @settings(max_examples=200, deadline=None)
    def test_growing_in_two_batches_equals_one_rebuild(self, edges, split):
        split = min(split, len(edges))
        grown = DisjointSet()
        for u, v in edges[:split]:
            grown.union(u, v)
        # ... time passes, more edges arrive ...
        for u, v in edges[split:]:
            grown.union(u, v)

        rebuilt = DisjointSet()
        for u, v in edges:
            rebuilt.union(u, v)
        assert grown.components() == rebuilt.components()

    @given(
        edges=edges,
        late_nodes=st.sets(nodes, max_size=10),
        split=st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=100, deadline=None)
    def test_late_added_nodes_equal_construction_time_nodes(
        self, edges, late_nodes, split
    ):
        split = min(split, len(edges))
        grown = DisjointSet()
        for u, v in edges[:split]:
            grown.union(u, v)
        for node in sorted(late_nodes):
            grown.add(node)
        for u, v in edges[split:]:
            grown.union(u, v)

        rebuilt = DisjointSet(sorted(late_nodes))
        for u, v in edges:
            rebuilt.union(u, v)
        assert grown.components() == rebuilt.components()
        for node in late_nodes:
            assert grown.component_size(node) == rebuilt.component_size(node)

    @given(edges=edges)
    @settings(max_examples=100, deadline=None)
    def test_add_is_idempotent_under_growth(self, edges):
        dsu = DisjointSet()
        for u, v in edges:
            dsu.union(u, v)
            dsu.add(u)  # re-adding an existing node must change nothing
        assert dsu.components() == union_find_components(edges)
