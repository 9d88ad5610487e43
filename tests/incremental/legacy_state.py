"""Writers of older state formats, kept as fixtures: older states must load.

Version 3 wrote one pickle per concern into ``rev<N>/`` on every save,
with each blocking part's prepared index pickled whole and no journal.
:func:`save_v3` writes that layout from an in-memory state whose indexes
an ingest built, so tests can load a version 3 (or, edited further, a
version 2) state and check that it ingests like the state it came from.
Version 4 is version 5's layout, base and journal, with token overlap's
index pickled as dictionaries, as in every older version:
:func:`downgrade_to_v4` rewrites a saved state into it.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

from repro.blocking.token_overlap import TokenIndex
from repro.datagen.records import Dataset
from repro.incremental import MatchState, read_manifest
from tests.blocking.reference import DictFormIndex, dict_index


def dict_form_states(parts, part_states, records, with_memo=True) -> list:
    """``part_states`` with each token-overlap index replaced by its
    dictionary form (of the records it covers), memo included unless
    ``with_memo`` is false."""
    return [
        DictFormIndex(
            dict_index(part, Dataset("legacy", records[: len(shared.ids)])),
            shared.memo if with_memo else None,
        )
        if isinstance(shared, TokenIndex)
        else shared
        for part, shared in zip(parts, part_states)
    ]


def save_v3(state: MatchState, state_dir: Path, with_memo: bool = True) -> Path:
    """Write ``state`` as a version 3 state directory; returns it.  Without
    ``with_memo``, the token-overlap index is pickled as by the builds
    before the top-n memo."""
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
            "part_states": dict_form_states(
                state.parts(), state.part_states, state.records, with_memo
            ),
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


def downgrade_to_v4(state_dir: Path) -> Path:
    """Rewrite a saved version 5 state, base and journal, as version 4:
    the base's token-overlap indexes become dictionaries and the manifest
    says version 4.  Returns ``state_dir``."""
    manifest = read_manifest(state_dir)
    assert manifest["format_version"] == 5
    payload_dir = state_dir / manifest["payload_dir"]
    blocking = pickle.loads((payload_dir / "components.pkl").read_bytes())["blocking"]
    records = pickle.loads((payload_dir / "records.pkl").read_bytes())["records"]
    blocking_path = payload_dir / "blocking_state.pkl"
    payload = pickle.loads(blocking_path.read_bytes())
    payload["part_states"] = dict_form_states(
        blocking.partition(), payload["part_states"], records
    )
    blocking_path.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    base_bytes = sum((payload_dir / name).stat().st_size for name in manifest["files"])
    manifest.update(format_version=4, base_bytes=base_bytes)
    (state_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return state_dir
