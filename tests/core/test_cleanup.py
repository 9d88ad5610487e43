"""Tests for the GraLMatch Graph Cleanup (Algorithm 1) and the pre-cleanup."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cleanup import (
    CleanupConfig,
    CleanupReport,
    gralmatch_cleanup,
    merge_component_cleanups,
)
from repro.core.precleanup import PreCleanupConfig, pre_cleanup
from repro.graphs.graph import canonical_edge


def clique_edges(nodes):
    nodes = list(nodes)
    return [
        (nodes[i], nodes[j])
        for i in range(len(nodes))
        for j in range(i + 1, len(nodes))
    ]


class TestCleanupConfig:
    def test_defaults(self):
        config = CleanupConfig()
        assert config.gamma == 25
        assert config.mu == 5

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            CleanupConfig(mu=0)

    def test_gamma_below_mu_rejected(self):
        with pytest.raises(ValueError):
            CleanupConfig(gamma=3, mu=5)

    def test_for_num_sources(self):
        config = CleanupConfig.for_num_sources(8)
        assert config.mu == 8
        assert config.gamma == 40

    def test_sensitivity_variants(self):
        base = CleanupConfig(gamma=25, mu=5)
        assert base.mec_only() == CleanupConfig(gamma=5, mu=5)
        assert base.bc_only() == CleanupConfig(gamma=None, mu=5)
        assert base.half_gamma() == CleanupConfig(gamma=12, mu=5)
        assert base.bc_only().half_gamma() == CleanupConfig(gamma=None, mu=5)

    def test_half_gamma_floors_at_mu(self):
        assert CleanupConfig(gamma=6, mu=5).half_gamma().gamma == 5


class TestGralmatchCleanup:
    def test_false_positive_bridge_removed(self):
        # Two 4-cliques (two true entity groups) joined by one false edge —
        # the Figure 4 situation.
        left = clique_edges(["a1", "a2", "a3", "a4"])
        right = clique_edges(["b1", "b2", "b3", "b4"])
        bridge = [("a4", "b1")]
        groups, report = gralmatch_cleanup(
            left + right + bridge, CleanupConfig(gamma=10, mu=4)
        )
        group_sets = {frozenset(g) for g in groups}
        assert frozenset({"a1", "a2", "a3", "a4"}) in group_sets
        assert frozenset({"b1", "b2", "b3", "b4"}) in group_sets
        assert canonical_edge("a4", "b1") in report.removed_edges

    def test_small_components_untouched(self):
        edges = clique_edges(["a", "b", "c"])
        groups, report = gralmatch_cleanup(edges, CleanupConfig(gamma=25, mu=5))
        assert {frozenset(g) for g in groups} == {frozenset({"a", "b", "c"})}
        assert report.num_removed == 0

    def test_empty_input(self):
        groups, report = gralmatch_cleanup([], CleanupConfig())
        assert groups == []
        assert report.initial_largest_component == 0
        assert report.final_largest_component == 0

    def test_all_final_components_within_mu(self):
        # A long chain of records must be broken into <= mu sized groups.
        chain = [(f"r{i}", f"r{i+1}") for i in range(30)]
        mu = 4
        groups, _ = gralmatch_cleanup(chain, CleanupConfig(gamma=10, mu=mu))
        assert all(len(group) <= mu for group in groups)

    def test_mincut_phase_reported(self):
        # 3 cliques of 6 chained by single bridges, gamma low enough to force
        # minimum-cut splits.
        cliques = []
        for prefix in ("a", "b", "c"):
            cliques.extend(clique_edges([f"{prefix}{i}" for i in range(6)]))
        bridges = [("a5", "b0"), ("b5", "c0")]
        groups, report = gralmatch_cleanup(
            cliques + bridges, CleanupConfig(gamma=8, mu=6)
        )
        assert report.mincut_removals > 0
        assert all(len(group) <= 6 for group in groups)

    def test_bc_only_variant_skips_mincut(self):
        cliques = clique_edges([f"a{i}" for i in range(6)]) + clique_edges(
            [f"b{i}" for i in range(6)]
        )
        bridges = [("a5", "b0")]
        _, report = gralmatch_cleanup(
            cliques + bridges, CleanupConfig(gamma=None, mu=6)
        )
        assert report.mincut_removals == 0
        assert report.betweenness_removals > 0

    def test_mec_only_variant_skips_betweenness(self):
        cliques = clique_edges([f"a{i}" for i in range(6)]) + clique_edges(
            [f"b{i}" for i in range(6)]
        )
        bridges = [("a5", "b0")]
        _, report = gralmatch_cleanup(
            cliques + bridges, CleanupConfig(gamma=6, mu=6)
        )
        assert report.betweenness_removals == 0
        assert report.mincut_removals > 0

    def test_report_component_sizes(self):
        edges = clique_edges([f"n{i}" for i in range(8)])
        _, report = gralmatch_cleanup(edges, CleanupConfig(gamma=25, mu=4))
        assert report.initial_largest_component == 8
        assert report.final_largest_component <= 4

    @given(st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(lambda e: e[0] != e[1]),
        max_size=60,
    ))
    @settings(max_examples=30, deadline=None)
    def test_final_components_never_exceed_mu(self, raw_edges):
        edges = [(f"r{u}", f"r{v}") for u, v in raw_edges]
        mu = 4
        groups, report = gralmatch_cleanup(edges, CleanupConfig(gamma=8, mu=mu))
        assert all(len(group) <= mu for group in groups)
        # Removed edges must be a subset of the input edges.
        input_edges = {canonical_edge(u, v) for u, v in edges}
        assert report.removed_edges <= input_edges


class TestMergeComponentCleanups:
    def test_pieces_come_back_in_component_order(self):
        components, _ = merge_component_cleanups(
            [
                ([{"y", "z"}, {"x"}], CleanupReport()),
                ([{"b", "c", "d"}, {"a", "e"}], CleanupReport()),
            ],
            initial_largest_component=5,
        )
        assert components == [{"b", "c", "d"}, {"a", "e"}, {"y", "z"}, {"x"}]

    def test_removals_are_summed(self):
        first = CleanupReport(removed_edges={("a", "b")}, mincut_removals=1)
        second = CleanupReport(
            removed_edges={("x", "y"), ("x", "z")}, betweenness_removals=2
        )
        _, report = merge_component_cleanups(
            [([{"a"}, {"b"}], first), ([{"x"}, {"y", "z"}], second)],
            initial_largest_component=3,
        )
        assert report == CleanupReport(
            removed_edges={("a", "b"), ("x", "y"), ("x", "z")},
            mincut_removals=1,
            betweenness_removals=2,
            initial_largest_component=3,
            final_largest_component=2,
        )

    def test_nothing_to_merge(self):
        assert merge_component_cleanups([], initial_largest_component=0) == (
            [],
            CleanupReport(),
        )

    def test_equals_one_whole_graph_run(self):
        # Two components, each cleaned on its own, then merged.
        bridged = clique_edges(range(6)) + clique_edges(range(10, 16)) + [(5, 10)]
        pendant = clique_edges(range(20, 26)) + [(25, 26)]
        config = CleanupConfig(gamma=25, mu=5)
        merged = merge_component_cleanups(
            [gralmatch_cleanup(bridged, config), gralmatch_cleanup(pendant, config)],
            initial_largest_component=12,
        )
        assert merged == gralmatch_cleanup(bridged + pendant, config)


class TestPreCleanup:
    def test_disabled_keeps_everything(self):
        edges = [("a", "b"), ("b", "c")]
        kept, removed = pre_cleanup(edges, {}, PreCleanupConfig(enabled=False))
        assert len(kept) == 2
        assert removed == set()

    def test_small_components_untouched(self):
        edges = clique_edges(["a", "b", "c"])
        blockings = {edge: "token_overlap" for edge in edges}
        kept, removed = pre_cleanup(edges, blockings, PreCleanupConfig(max_component_size=50))
        assert removed == set()
        assert len(kept) == len(edges)

    def test_token_overlap_edges_removed_in_large_components(self):
        # A 12-node chain exceeds the threshold of 10; half its edges come
        # from the token-overlap blocking and must be dropped.
        chain = [(f"r{i}", f"r{i+1}") for i in range(12)]
        blockings = {
            canonical_edge(*edge): ("token_overlap" if i % 2 == 0 else "id_overlap")
            for i, edge in enumerate(chain)
        }
        kept, removed = pre_cleanup(
            chain, blockings, PreCleanupConfig(max_component_size=10)
        )
        assert removed
        assert all(blockings[edge] == "token_overlap" for edge in removed)
        assert all(blockings[canonical_edge(*edge)] == "id_overlap" for edge in kept)

    def test_unknown_blocking_edges_kept(self):
        chain = [(f"r{i}", f"r{i+1}") for i in range(12)]
        kept, removed = pre_cleanup(chain, {}, PreCleanupConfig(max_component_size=5))
        assert removed == set()
        assert len(kept) == len(chain)
