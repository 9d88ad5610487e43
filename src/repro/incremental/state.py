"""The persistent match state: everything one matching task has learned.

A :class:`MatchState` co-models the database side of an incremental entity
group matching: the record corpus in ingestion order, the pipeline
components the state was created with (matcher, blocking recipe, clean-up
thresholds), every per-blocking shared index from the shardable ``prepare``
protocol, the per-record owned candidate lists, the appendable
:class:`~repro.matching.profiles.ProfileStore`, every pairwise decision
ever scored, and the graph-side bookkeeping (kept-edge union-find,
per-component clean-up memo, current groups).

On disk a state is a *directory*: a ``manifest.json`` carrying the format
name + version and summary counters, plus one pickle per concern inside a
*versioned payload subdirectory* the manifest points at.  Saves are
transactional: a new payload directory is fully written first, then the
manifest is atomically renamed into place (the single commit point), then
superseded payload directories are removed — a crash at any instant leaves
the manifest pointing at one complete, consistent payload set.  Loading
reads exactly one format version, :data:`STATE_FORMAT_VERSION`, and raises
:class:`MatchStateError` naming the offending path on any other version, a
missing file or a payload that fails to unpickle.
"""

from __future__ import annotations

import json
import pickle
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.blocking.base import Blocking, CandidatePair
from repro.core.cleanup import CleanupConfig, CleanupReport
from repro.core.groups import EntityGroups
from repro.core.precleanup import PreCleanupConfig
from repro.datagen.records import Dataset, Record
from repro.graphs.graph import Edge
from repro.graphs.union_find import DisjointSet
from repro.matching.base import PairwiseMatcher
from repro.matching.decisions import DecisionCache
from repro.runtime import RuntimeConfig

#: Format marker written to (and demanded from) every state manifest.
STATE_FORMAT = "repro-match-state"
#: The one on-disk layout this build writes and reads; bump when it changes
#: incompatibly.  Version 2 stores the decision cache as an array-backed
#: :class:`DecisionCache`.
STATE_FORMAT_VERSION = 2

#: Manifest file name; its presence marks a completely written state.
MANIFEST_FILE = "manifest.json"

#: Payload subdirectories are named ``rev<N>``; the manifest's
#: ``payload_dir`` names the committed one.
_PAYLOAD_DIR_PREFIX = "rev"

#: Pickle payloads, one per concern, keyed by file name.  Splitting keeps a
#: reload of (say) just the records cheap and the write sizes inspectable.
_COMPONENTS_FILE = "components.pkl"
_RECORDS_FILE = "records.pkl"
_BLOCKING_FILE = "blocking_state.pkl"
_MATCHING_FILE = "matching_state.pkl"
_GRAPH_FILE = "graph_state.pkl"

_STATE_FILES = (
    _COMPONENTS_FILE,
    _RECORDS_FILE,
    _BLOCKING_FILE,
    _MATCHING_FILE,
    _GRAPH_FILE,
)


class MatchStateError(RuntimeError):
    """A state directory is missing, incomplete, or of the wrong format."""


@dataclass(frozen=True)
class ComponentCleanup:
    """Memoised clean-up of one connected component.

    Keyed by the component's exact (frozen) edge set: any change to the
    component — a new edge, a vanished candidate, a flipped pre-cleanup
    verdict — changes the key and forces a re-clean, which is what makes
    memo reuse provably equivalent to a full re-run.
    """

    subcomponents: tuple[frozenset[str], ...]
    removed_edges: frozenset[Edge]
    mincut_removals: int
    betweenness_removals: int


@dataclass
class MatchState:
    """In-memory form of one persistent matching task."""

    name: str

    # -- fixed components (chosen at creation, immutable afterwards) --------
    matcher: PairwiseMatcher
    blocking: Blocking
    cleanup_config: CleanupConfig
    pre_cleanup_config: PreCleanupConfig
    cleanup_strategy: str = "gralmatch"
    #: Default execution-engine settings; an override may be passed when the
    #: state is opened (the engine never changes results, only speed).
    #: Never a trace path: see :meth:`__post_init__`.
    runtime_config: RuntimeConfig = field(default_factory=RuntimeConfig)

    # -- corpus -------------------------------------------------------------
    #: All ingested records, in ingestion order (== batch dataset order).
    records: list[Record] = field(default_factory=list)

    # -- blocking state ------------------------------------------------------
    #: Per partitioned part: the shardable shared index (None before the
    #: first ingest, and always None for non-shardable parts).
    part_states: list[Any] = field(default_factory=list)
    #: Per part: record id -> that record's owned candidate pairs.  The
    #: part's full emission stream is the dataset-order concatenation.
    owned_pairs: list[dict[str, tuple[CandidatePair, ...]]] = field(
        default_factory=list
    )
    #: Non-shardable parts fall back to whole-part regeneration per ingest.
    whole_part_pairs: dict[int, tuple[CandidatePair, ...]] = field(
        default_factory=dict
    )

    # -- matching state ------------------------------------------------------
    #: Appendable profile store (None when the matcher runs unprofiled).
    profiles: Any = None
    #: Every decision ever scored, keyed by canonical pair but stored as
    #: parallel arrays (:class:`~repro.matching.decisions.DecisionCache`).
    #: Decisions are pair-local and deterministic, so their rows are reused
    #: verbatim whenever a pair reappears in the candidate set.
    decisions: DecisionCache = field(default_factory=DecisionCache)

    # -- graph state ---------------------------------------------------------
    #: Kept (post-pre-cleanup) edges of the latest ingest.
    kept_edges: set[Edge] = field(default_factory=set)
    #: Growable union-find over the kept edges; rebuilt only when an ingest
    #: removes edges (see IncrementalMatcher._kept_components).
    kept_dsu: DisjointSet | None = None
    #: Per-component clean-up memo of the latest ingest (pruned each ingest
    #: to the components that still exist).
    cleanup_memo: dict[frozenset, ComponentCleanup] = field(default_factory=dict)

    # -- latest results ------------------------------------------------------
    groups: EntityGroups | None = None
    pre_cleanup_groups: EntityGroups | None = None
    cleanup_report: CleanupReport = field(default_factory=CleanupReport)
    pre_cleanup_removed: set[Edge] = field(default_factory=set)
    num_candidates: int = 0
    num_ingests: int = 0
    #: Monotonic save counter; names the payload directory of the next save.
    payload_rev: int = 0

    def __post_init__(self) -> None:
        # A trace path names one invocation's output file, not an engine
        # setting.  Dropping it here, where creation and load both pass,
        # keeps a reopened state from overwriting its creator's trace; a
        # call traces only when it asks to.
        if self.runtime_config.trace is not None:
            self.runtime_config = replace(self.runtime_config, trace=None)

    # -- derived -------------------------------------------------------------

    def dataset(self) -> Dataset:
        """The corpus as a :class:`Dataset` (records in ingestion order)."""
        return Dataset(self.name, self.records)

    def parts(self) -> list[Blocking]:
        """The blocking's partitioned parts (stable across save/load:
        partitioning is structural, derived from the pickled blocking)."""
        return self.blocking.partition()

    # -- persistence ---------------------------------------------------------

    def manifest(self) -> dict[str, Any]:
        """The summary the manifest file carries (also what ``repro state
        show`` prints)."""
        return {
            "format": STATE_FORMAT,
            "format_version": STATE_FORMAT_VERSION,
            "name": self.name,
            "num_records": len(self.records),
            "num_ingests": self.num_ingests,
            "num_candidates": self.num_candidates,
            "num_decisions": len(self.decisions),
            "num_groups": len(self.groups) if self.groups is not None else 0,
            "cleanup_strategy": self.cleanup_strategy,
            "blocking_parts": [part.name for part in self.parts()],
            "matcher_type": type(self.matcher).__name__,
            "payload_dir": f"{_PAYLOAD_DIR_PREFIX}{self.payload_rev}",
            "files": list(_STATE_FILES),
        }

    def save(self, state_dir: str | Path) -> Path:
        """Serialise into ``state_dir`` (created if needed); returns the dir.

        Transactional: the payloads are fully written into a fresh
        ``rev<N>`` subdirectory, then the manifest — which names that
        subdirectory — is atomically renamed into place, then superseded
        ``rev*`` directories are removed.  The manifest rename is the
        single commit point: a crash at any instant leaves the manifest
        pointing at one complete payload set (the previous save's or this
        one's), never a mix; leftover uncommitted directories are swept by
        the next successful save.
        """
        state_dir = Path(state_dir)
        state_dir.mkdir(parents=True, exist_ok=True)
        self.payload_rev += 1
        payloads: dict[str, Any] = {
            _COMPONENTS_FILE: {
                "matcher": self.matcher,
                "blocking": self.blocking,
                "cleanup_config": self.cleanup_config,
                "pre_cleanup_config": self.pre_cleanup_config,
                "cleanup_strategy": self.cleanup_strategy,
                "runtime_config": self.runtime_config,
            },
            _RECORDS_FILE: {"name": self.name, "records": self.records},
            _BLOCKING_FILE: {
                "part_states": self.part_states,
                "owned_pairs": self.owned_pairs,
                "whole_part_pairs": self.whole_part_pairs,
            },
            _MATCHING_FILE: {
                # ProfileStore pickles as its columnar arrays, exactly like
                # the worker-shipping path.
                "profiles": self.profiles,
                "decisions": self.decisions,
            },
            _GRAPH_FILE: {
                "kept_edges": self.kept_edges,
                "kept_dsu": self.kept_dsu,
                "cleanup_memo": self.cleanup_memo,
                "groups": self.groups,
                "pre_cleanup_groups": self.pre_cleanup_groups,
                "cleanup_report": self.cleanup_report,
                "pre_cleanup_removed": self.pre_cleanup_removed,
                "num_candidates": self.num_candidates,
                "num_ingests": self.num_ingests,
                "payload_rev": self.payload_rev,
            },
        }
        payload_dir = state_dir / f"{_PAYLOAD_DIR_PREFIX}{self.payload_rev}"
        if payload_dir.exists():  # leftover from an interrupted save
            shutil.rmtree(payload_dir)
        payload_dir.mkdir()
        for file_name, payload in payloads.items():  # repro-lint: disable=unordered-iteration -- dict literal; fixed source order
            with (payload_dir / file_name).open("wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        manifest_temp = state_dir / (MANIFEST_FILE + ".tmp")
        manifest_temp.write_text(
            json.dumps(self.manifest(), indent=2) + "\n", encoding="utf-8"
        )
        # The commit point: after this single atomic rename the manifest
        # names the new payload directory; before it, the old manifest
        # still names the old (untouched) one.
        manifest_temp.replace(state_dir / MANIFEST_FILE)
        for stale in state_dir.glob(f"{_PAYLOAD_DIR_PREFIX}*"):
            if stale.is_dir() and stale != payload_dir:
                shutil.rmtree(stale, ignore_errors=True)
        return state_dir

    @classmethod
    def load(cls, state_dir: str | Path) -> "MatchState":
        """Deserialise a state directory written by :meth:`save`."""
        state_dir = Path(state_dir)
        manifest = read_manifest(state_dir)
        payload_dir = state_dir / str(manifest.get("payload_dir", ""))
        if not payload_dir.is_dir():
            raise MatchStateError(
                f"match state at {state_dir} is incomplete: missing payload "
                f"directory {manifest.get('payload_dir')!r}"
            )
        payloads: dict[str, Any] = {}
        for file_name in _STATE_FILES:
            path = payload_dir / file_name
            if not path.exists():
                raise MatchStateError(
                    f"match state at {state_dir} is incomplete: missing {file_name}"
                )
            try:
                with path.open("rb") as handle:
                    payloads[file_name] = pickle.load(handle)
            # Unpickling runs the payload classes' own restore code, so a
            # damaged file can fail with any exception type.
            except Exception as error:
                raise MatchStateError(
                    f"match state at {state_dir} has an unreadable payload "
                    f"{path.relative_to(state_dir)}: {type(error).__name__}: {error}"
                ) from error
        components = payloads[_COMPONENTS_FILE]
        graph = payloads[_GRAPH_FILE]
        state = cls(
            name=payloads[_RECORDS_FILE]["name"],
            matcher=components["matcher"],
            blocking=components["blocking"],
            cleanup_config=components["cleanup_config"],
            pre_cleanup_config=components["pre_cleanup_config"],
            cleanup_strategy=components["cleanup_strategy"],
            runtime_config=components["runtime_config"],
            records=payloads[_RECORDS_FILE]["records"],
            part_states=payloads[_BLOCKING_FILE]["part_states"],
            owned_pairs=payloads[_BLOCKING_FILE]["owned_pairs"],
            whole_part_pairs=payloads[_BLOCKING_FILE]["whole_part_pairs"],
            profiles=payloads[_MATCHING_FILE]["profiles"],
            decisions=payloads[_MATCHING_FILE]["decisions"],
            kept_edges=graph["kept_edges"],
            kept_dsu=graph["kept_dsu"],
            cleanup_memo=graph["cleanup_memo"],
            groups=graph["groups"],
            pre_cleanup_groups=graph["pre_cleanup_groups"],
            cleanup_report=graph["cleanup_report"],
            pre_cleanup_removed=graph["pre_cleanup_removed"],
            num_candidates=graph["num_candidates"],
            num_ingests=graph["num_ingests"],
            payload_rev=graph["payload_rev"],
        )
        if manifest.get("num_records") != len(state.records):
            raise MatchStateError(
                f"match state at {state_dir} is inconsistent: manifest says "
                f"{manifest.get('num_records')} records, payload holds "
                f"{len(state.records)}"
            )
        return state


def is_state_dir(state_dir: str | Path) -> bool:
    """True when ``state_dir`` holds a completely written match state."""
    return (Path(state_dir) / MANIFEST_FILE).exists()


def read_manifest(state_dir: str | Path) -> dict[str, Any]:
    """Read and validate a state directory's manifest."""
    state_dir = Path(state_dir)
    manifest_path = state_dir / MANIFEST_FILE
    if not manifest_path.exists():
        raise MatchStateError(
            f"no match state at {state_dir}: missing {MANIFEST_FILE} "
            "(either the path is wrong or a save was interrupted)"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise MatchStateError(
            f"corrupt manifest at {manifest_path}: {error}"
        ) from error
    if manifest.get("format") != STATE_FORMAT:
        raise MatchStateError(
            f"{manifest_path} is not a {STATE_FORMAT} manifest "
            f"(format={manifest.get('format')!r})"
        )
    version = manifest.get("format_version")
    if version != STATE_FORMAT_VERSION:
        raise MatchStateError(
            f"match state at {state_dir} has format version {version!r}; "
            f"this build reads version {STATE_FORMAT_VERSION}"
        )
    return manifest
