"""The version 3 state writer, kept as a fixture: older states must load.

Version 3 wrote one pickle per concern into ``rev<N>/`` on every save,
with each blocking part's prepared index pickled whole and no journal.
:func:`save_v3` writes that layout from an in-memory state whose indexes
an ingest built, so tests can load a version 3 (or, edited further, a
version 2) state and check that it ingests like the state it came from.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

from repro.incremental import MatchState


def save_v3(state: MatchState, state_dir: Path) -> Path:
    """Write ``state`` as a version 3 state directory; returns it."""
    assert all(shared is not None for shared in state.part_states), (
        "a version 3 state pickles the prepared indexes: ingest first"
    )
    payloads = {
        "components.pkl": {
            "matcher": state.matcher,
            "blocking": state.blocking,
            "cleanup_config": state.cleanup_config,
            "pre_cleanup_config": state.pre_cleanup_config,
            "cleanup_strategy": state.cleanup_strategy,
            "runtime_config": state.runtime_config,
        },
        "records.pkl": {"name": state.name, "records": state.records},
        "blocking_state.pkl": {
            "part_states": state.part_states,
            "owned_pairs": state.owned_pairs,
        },
        "matching_state.pkl": {"profiles": state.profiles, "decisions": state.decisions},
        "graph_state.pkl": {
            "cleanup_memo": state.cleanup_memo,
            "groups": state.groups,
            "pre_cleanup_groups": state.pre_cleanup_groups,
            "cleanup_report": state.cleanup_report,
            "pre_cleanup_removed": state.pre_cleanup_removed,
            "num_candidates": state.num_candidates,
            "num_ingests": state.num_ingests,
            "payload_rev": 1,
        },
    }
    payload_dir = state_dir / "rev1"
    payload_dir.mkdir(parents=True)
    for file_name, payload in payloads.items():
        (payload_dir / file_name).write_bytes(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
    manifest = {
        "format": "repro-match-state",
        "format_version": 3,
        "name": state.name,
        "num_records": len(state.records),
        "num_ingests": state.num_ingests,
        "num_candidates": state.num_candidates,
        "num_decisions": len(state.decisions),
        "num_groups": len(state.groups) if state.groups is not None else 0,
        "cleanup_strategy": state.cleanup_strategy,
        "blocking_parts": [part.name for part in state.parts()],
        "matcher_type": type(state.matcher).__name__,
        "payload_dir": "rev1",
        "files": list(payloads),
    }
    (state_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return state_dir
