"""PositiveGraph against a whole-graph recomputation after every update.

Random sequences of positive keys joining, leaving and changing tag over
at most 12 nodes drive :class:`~repro.incremental.graph.PositiveGraph`
directly.  After every update its pre-cleanup removals, clean-up memo and
report, and both group lists (components in order, then singletons) must
equal ``pre_cleanup``, a whole-graph ``gralmatch_cleanup`` and
``groups_from_components`` over the current edges.  The thresholds are tiny, so the size rule, the min-cut
phase and the betweenness phase all fire; every sequence ends by removing
the remaining edges one at a time, which splits oversized components back
under the size threshold and returns their token-overlap edges to the
kept set.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cleanup import CleanupConfig, gralmatch_cleanup
from repro.core.precleanup import PreCleanupConfig, pre_cleanup
from repro.core.stages import groups_from_components
from repro.graphs.graph import canonical_edge
from repro.graphs.union_find import union_find_components
from repro.incremental.graph import PositiveGraph

NODES = [f"n{index:02d}" for index in range(12)]
TAGS = ["id_overlap", "token_overlap"]

KEYS = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
    lambda pair: pair[0] != pair[1]
).map(lambda pair: canonical_edge(*pair))
STEP = st.lists(st.tuples(KEYS, st.sampled_from([*TAGS, None])), max_size=6)


def make_graph(pre, cleanup, memo=None):
    return PositiveGraph(
        pre, lambda edges: gralmatch_cleanup(edges, cleanup), inherited_memo=memo
    )


def apply(graph, edges, step):
    """Apply one step's assignments to ``edges`` and hand the graph the
    keys whose tag actually changed, as an ingest does."""
    changes = {}
    for key, tag in step:
        if edges.get(key) != tag:
            changes[key] = tag
            if tag is None:
                del edges[key]
            else:
                edges[key] = tag
    before = dict(graph.memo)
    misses = graph.update(list(changes.items()))
    return misses, before


def assert_matches_recomputation(graph, edges, pre, cleanup, misses, before):
    kept, removed = pre_cleanup(list(edges), edges, pre)
    components, report = gralmatch_cleanup(kept, cleanup)
    groups, pre_groups = groups_from_components(components, NODES, list(edges))
    assert graph.tags == edges
    assert graph.pre_cleanup_removed == removed
    assert graph.cleanup_report() == report
    actual_groups, actual_pre_groups = graph.groups(NODES)
    assert actual_groups.groups == groups.groups
    assert actual_pre_groups.groups == pre_groups.groups

    kept_components = union_find_components(kept)
    expected_keys = {
        frozenset(edge for edge in kept if edge[0] in component)
        for component in kept_components
    }
    assert set(graph.memo) == expected_keys
    assert graph.num_kept_components == len(kept_components)
    for key, entry in graph.memo.items():
        pieces, piece_report = gralmatch_cleanup(sorted(key), cleanup)
        assert set(entry.subcomponents) == {frozenset(piece) for piece in pieces}
        assert entry.removed_edges == piece_report.removed_edges
    assert misses == len(expected_keys - set(before))


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(STEP, min_size=1, max_size=12),
    max_component_size=st.integers(2, 5),
    mu=st.integers(1, 3),
    gamma_over_mu=st.integers(0, 2),
    reload_at=st.integers(0, 12),
    teardown=st.randoms(use_true_random=False),
)
def test_random_updates_match_the_whole_graph_recomputation(
    steps, max_component_size, mu, gamma_over_mu, reload_at, teardown
):
    pre = PreCleanupConfig(max_component_size=max_component_size)
    cleanup = CleanupConfig(gamma=mu + gamma_over_mu, mu=mu)
    graph = make_graph(pre, cleanup)
    edges: dict = {}
    for index, step in enumerate(steps):
        if index == reload_at:
            # As after a load: a fresh graph fed every edge, serving its
            # clean-ups from the memo the old graph held.
            graph = make_graph(pre, cleanup, memo=graph.memo)
            rebuilt = graph.update(list(edges.items()))
            assert rebuilt == 0
        misses, before = apply(graph, edges, step)
        assert_matches_recomputation(graph, edges, pre, cleanup, misses, before)

    remaining = sorted(edges)
    teardown.shuffle(remaining)
    for key in remaining:
        misses, before = apply(graph, edges, [(key, None)])
        assert_matches_recomputation(graph, edges, pre, cleanup, misses, before)
    assert graph.memo == {} and graph.cleanup_report() == gralmatch_cleanup([], cleanup)[1]


def test_a_split_back_under_the_threshold_returns_token_edges_to_the_kept_set():
    pre = PreCleanupConfig(max_component_size=3)
    cleanup = CleanupConfig(gamma=3, mu=2)
    graph = make_graph(pre, cleanup)
    edges: dict = {}
    # A path a-b-c-d: four nodes, over the size threshold of 3, so its two
    # token-overlap edges are removed and the id-overlap edge stays kept.
    path = [
        (("a", "b"), "token_overlap"),
        (("b", "c"), "id_overlap"),
        (("c", "d"), "token_overlap"),
    ]
    misses, before = apply(graph, edges, path)
    assert_matches_recomputation(graph, edges, pre, cleanup, misses, before)
    assert graph.pre_cleanup_removed == {("a", "b"), ("c", "d")}

    # Removing the id-overlap edge splits it into two 2-node components:
    # both token-overlap edges are kept again and cleaned afresh.
    misses, before = apply(graph, edges, [(("b", "c"), None)])
    assert_matches_recomputation(graph, edges, pre, cleanup, misses, before)
    assert graph.pre_cleanup_removed == set()
    assert set(graph.memo) == {frozenset({("a", "b")}), frozenset({("c", "d")})}
    assert misses == 2

    # A retag to id overlap after the component regrows keeps that edge.
    misses, before = apply(
        graph, edges, [(("b", "c"), "token_overlap"), (("a", "b"), "id_overlap")]
    )
    assert_matches_recomputation(graph, edges, pre, cleanup, misses, before)
    assert graph.pre_cleanup_removed == {("b", "c"), ("c", "d")}
