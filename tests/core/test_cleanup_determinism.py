"""Hash-seed independence of the GraLMatch clean-up tie-breaking.

``gralmatch_cleanup`` repeatedly picks *one* minimum cut / one maximum-
betweenness edge out of several equally good candidates.  Those tie-breaks
used to follow ``set`` iteration order, so the removed edges — and with them
the final groups — varied with ``PYTHONHASHSEED`` (ROADMAP open item,
observed as post F1 97.40 vs 96.28 on the same 212-record input).  The
graphs layer now iterates adjacency in sorted order; these tests pin that
behaviour with a tie-heavy graph run under several explicit hash seeds in
subprocesses.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.core.cleanup import CleanupConfig, gralmatch_cleanup
from repro.graphs import IdGraph

SRC = str(Path(__file__).resolve().parents[2] / "src")


def tie_heavy_edges() -> list[tuple[str, str]]:
    """Two 5-cliques joined by two symmetric bridges (tied min cuts),
    plus a 6-cycle component (every edge has equal betweenness)."""
    edges: list[tuple[str, str]] = []
    left = [f"a{i}" for i in range(5)]
    right = [f"b{i}" for i in range(5)]
    for clique in (left, right):
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                edges.append((u, v))
    edges += [("a0", "b0"), ("a4", "b4")]
    cycle = [f"c{i}" for i in range(6)]
    edges += list(zip(cycle, cycle[1:] + cycle[:1]))
    return edges


_WORKER = """
import json, sys
sys.path.insert(0, {src!r})
from repro.core.cleanup import CleanupConfig, gralmatch_cleanup
edges = [tuple(edge) for edge in json.loads(sys.argv[1])]
components, report = gralmatch_cleanup(edges, CleanupConfig(gamma=6, mu=5))
print(json.dumps({{
    "removed": sorted(map(list, report.removed_edges)),
    "components": sorted(sorted(component) for component in components),
}}))
"""


def _run_under_hash_seed(seed: int) -> dict:
    payload = json.dumps(tie_heavy_edges())
    result = subprocess.run(
        [sys.executable, "-c", _WORKER.format(src=SRC), payload],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONHASHSEED": str(seed), "PATH": "/usr/bin:/bin"},
    )
    return json.loads(result.stdout)


def test_cleanup_identical_across_hash_seeds():
    outcomes = [_run_under_hash_seed(seed) for seed in (0, 1, 42)]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    # The clean-up must actually have made tie-broken removals for the
    # assertion above to mean anything.
    assert outcomes[0]["removed"]


def test_cleanup_in_process_matches_subprocess_runs():
    components, report = gralmatch_cleanup(
        tie_heavy_edges(), CleanupConfig(gamma=6, mu=5)
    )
    observed = {
        "removed": sorted(map(list, report.removed_edges)),
        "components": sorted(sorted(component) for component in components),
    }
    assert observed == _run_under_hash_seed(7)


def test_graph_iteration_is_sorted():
    graph = IdGraph([("b", "a"), ("c", "a"), ("b", "c"), ("d", "b")])
    assert graph.labels == ["a", "b", "c", "d"]
    assert graph.adjacency == [[1, 2], [0, 2, 3], [0, 1], [1]]
    graph.remove_edge(1, 0)
    assert graph.adjacency == [[2], [2, 3], [0, 1], [1]]
    assert graph.pieces([3]) == [[3, 1, 2, 0]]
