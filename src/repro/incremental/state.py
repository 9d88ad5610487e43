"""The persistent match state: everything one matching task has learned.

A :class:`MatchState` co-models the database side of an incremental entity
group matching: the record corpus in ingestion order, the pipeline
components the state was created with (matcher, blocking recipe, clean-up
thresholds), each blocking part's prepared index and per-record owned
candidate lists, the appendable
:class:`~repro.matching.profiles.ProfileStore`, every pairwise decision
ever scored, and the graph-side results (per-component clean-up memo,
current groups and reports).  What an ingest derives from these (the
candidate counts and the positive graph) is never written.

On disk a state is a *directory*: a ``manifest.json`` carrying the format
name + version, summary counters and the committed files, all inside a
*payload subdirectory* ``rev<N>`` the manifest names.  The subdirectory
holds a *base*, one pickle per concern (a full snapshot), and a *journal*
of numbered segment files, one per save since the base.  A segment holds
only what changed since the save before it: the appended records,
decision rows and profile ids, the owned lists of the records rescored,
the clean-up memo entries and pre-cleanup removals added and removed,
and, whole, each blocking part's notes
(:meth:`~repro.blocking.base.Blocking.saved_notes`: token overlap's top-n
memo) and the small results.  Loading reads the base and applies the
segments in order.

Two things are rebuilt rather than written.  A segment never holds a
blocking index: the first ingest after loading brings each of the base's
indexes forward over the records the journal appended
(:meth:`MatchState.catch_up_indexes`).  And no payload holds the group
lists or the report's removed edges: an ingest accepts only a
``component_local`` clean-up strategy, whose memo holds one entry per kept
component, so loading derives them from the memo and the pre-cleanup
removals.

A save appends a segment when its target still holds the manifest this
state last committed or was loaded from, and the journal's bytes would not
exceed the base's; otherwise it writes a new base into a fresh ``rev<N>``
(a *compaction*), so a load reads at most about twice a base.  Either way
the manifest, written to a temporary file and atomically renamed into
place, is the single commit point: a crash at any instant leaves it naming
one complete base and the segments committed with it.  A segment written
by a save that crashed before its commit is not in the manifest, so
loading ignores it and the next save overwrites it; a compaction's
leftover directory is swept by the next save.

Loading reads :data:`STATE_FORMAT_VERSION` only.  Any other version, a
missing file or a payload that fails to unpickle raises
:class:`MatchStateError` naming the path; the version error says how to
carry an older state forward.
"""

from __future__ import annotations

import io
import json
import pickle
import shutil
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Any

from repro.blocking.base import Blocking
from repro.core.cleanup import CleanupConfig, CleanupReport
from repro.core.groups import EntityGroups
from repro.core.precleanup import PreCleanupConfig
from repro.datagen.records import Dataset, Record
from repro.graphs.graph import Edge, canonical_edge, sorted_edges
from repro.graphs.union_find import component_order, union_find_components
from repro.matching.base import PairwiseMatcher
from repro.matching.decisions import DecisionCache
from repro.runtime import RuntimeConfig

#: Format marker written to (and demanded from) every state manifest.
STATE_FORMAT = "repro-match-state"
#: The on-disk layout this build writes and the only one it reads: a base
#: plus a journal, with token overlap's index pickled as integer arrays.
#: Bump it when the layout changes incompatibly.
STATE_FORMAT_VERSION = 5

#: One owned candidate pair as stored: ``(left_id, right_id, blocking)``,
#: the fields of a :class:`~repro.blocking.base.CandidatePair`.
OwnedPair = tuple[str, str, str]

#: Manifest file name; its presence marks a completely written state.
MANIFEST_FILE = "manifest.json"

#: Payload subdirectories are named ``rev<N>``; the manifest's
#: ``payload_dir`` names the committed one.
_PAYLOAD_DIR_PREFIX = "rev"

#: Base pickles, one per concern, keyed by file name.  Splitting keeps a
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
    """A state directory is missing, incomplete, or of the wrong format, or
    a state was asked for a change it cannot keep."""


#: The components that decide a state's results.  They are written with a
#: base only, never with a journal segment, so :class:`MatchState` fixes
#: them at creation: a change would persist on some save paths and not on
#: others.
_FIXED_COMPONENTS = frozenset(
    {"matcher", "blocking", "cleanup_config", "pre_cleanup_config", "cleanup_strategy"}
)


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
class Journal:
    """Where a state's committed form lives, and what changed since.

    Appended records, decision rows and profiles are found from the sizes
    at the last commit, and the changes to the clean-up memo and to the
    pre-cleanup removals from a copy of their keys then; the ingest path
    records the records each blocking part rescored.  Everything
    accumulates until a save commits, so a save that fails before its
    commit loses nothing.
    """

    #: The directory the committed base lives in (resolved); None when the
    #: state was never saved.
    state_dir: Path | None = None
    #: Bytes of the committed base and of each committed segment.
    base_bytes: int = 0
    segments: list[int] = field(default_factory=list)
    #: Records, decision rows and profile rows at the last commit.
    num_records: int = 0
    num_decisions: int = 0
    num_profiles: int = 0
    #: The clean-up memo's keys and the pre-cleanup removals at the last
    #: commit.
    memo_keys: dict[frozenset, None] = field(default_factory=dict)
    pre_cleanup_removed: set[Edge] = field(default_factory=set)
    #: Per part index: ids of the records rescored since, in order.
    rescored: dict[int, dict[str, None]] = field(default_factory=dict)

    def mark(self, state: "MatchState") -> None:
        """Take ``state`` as committed: start tracking changes afresh."""
        self.num_records = len(state.records)
        self.num_decisions = len(state.decisions)
        self.num_profiles = 0 if state.profiles is None else len(state.profiles)
        self.memo_keys = dict.fromkeys(state.cleanup_memo)
        self.pre_cleanup_removed = set(state.pre_cleanup_removed)
        self.rescored = {}


@dataclass
class MatchState:
    """In-memory form of one persistent matching task.

    The components that decide results (matcher, blocking, both clean-up
    configs and the strategy) are chosen at creation: reassigning one
    raises :class:`MatchStateError`.  ``runtime_config`` sets only engine
    defaults and stays assignable.
    """

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
    #: Per partitioned part: its prepared shared index (None until the
    #: first ingest builds it), over the first :attr:`indexed_records`.
    part_states: list[Any] = field(default_factory=list)
    #: How many leading records the indexes cover: all of them, except
    #: after loading a journal, whose records :meth:`catch_up_indexes`
    #: folds in (never saved).
    indexed_records: int = field(default=0, compare=False, repr=False)
    #: Per part: the notes of its index the latest loaded segment held
    #: (:meth:`~repro.blocking.base.Blocking.saved_notes`), which
    #: :meth:`catch_up_indexes` folds back in (never saved).
    part_notes: list[Any] = field(default_factory=list, compare=False, repr=False)
    #: Per part: record id -> that record's owned candidate pairs.  The
    #: part's full emission stream is the dataset-order concatenation.
    owned_pairs: list[dict[str, tuple[OwnedPair, ...]]] = field(
        default_factory=list
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
    #: Per-component clean-up memo of the latest ingest: one entry per
    #: kept component, keyed by its edge set.
    cleanup_memo: dict[frozenset, ComponentCleanup] = field(default_factory=dict)

    # -- latest results ------------------------------------------------------
    #: The final and pre-cleanup groups; read them as :attr:`groups` and
    #: :attr:`pre_cleanup_groups`.
    _groups: EntityGroups | None = field(default=None, repr=False)
    _pre_cleanup_groups: EntityGroups | None = field(default=None, repr=False)
    #: Set by a load that left both group lists to derive from the memo
    #: (never saved).
    _groups_pending: bool = field(default=False, compare=False, repr=False)
    cleanup_report: CleanupReport = field(default_factory=CleanupReport)
    pre_cleanup_removed: set[Edge] = field(default_factory=set)
    num_candidates: int = 0
    num_ingests: int = 0
    #: Revision of the committed base; a compaction writes a higher one.
    payload_rev: int = 0

    # -- persistence ---------------------------------------------------------
    #: The committed form and the changes since (never saved).
    journal: Journal = field(default_factory=Journal, compare=False, repr=False)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in _FIXED_COMPONENTS and name in self.__dict__:
            raise MatchStateError(
                f"cannot reassign {name!r} of match state {self.name!r}: the "
                "components that decide results are fixed when a state is "
                "created; create a new state to change one"
            )
        super().__setattr__(name, value)

    def __post_init__(self) -> None:
        # A trace path names one invocation's output file, not an engine
        # setting.  Dropping it here, where creation and load both pass,
        # keeps a reopened state from overwriting its creator's trace; a
        # call traces only when it asks to.
        if self.runtime_config.trace is not None:
            self.runtime_config = replace(self.runtime_config, trace=None)

    # -- derived -------------------------------------------------------------

    @property
    def groups(self) -> EntityGroups | None:
        """The final groups of the latest ingest (None before the first).

        Loading leaves both group lists to be derived from the clean-up
        memo when first read: an ingest sets them without reading them
        (:meth:`_derive_groups`).
        """
        if self._groups_pending:
            self._derive_groups()
        return self._groups

    @groups.setter
    def groups(self, groups: EntityGroups | None) -> None:
        self._groups = groups
        self._groups_pending = False

    @property
    def pre_cleanup_groups(self) -> EntityGroups | None:
        """The groups before clean-up (see :attr:`groups`)."""
        if self._groups_pending:
            self._derive_groups()
        return self._pre_cleanup_groups

    @pre_cleanup_groups.setter
    def pre_cleanup_groups(self, groups: EntityGroups | None) -> None:
        self._pre_cleanup_groups = groups
        self._groups_pending = False

    def dataset(self) -> Dataset:
        """The corpus as a :class:`Dataset` (records in ingestion order)."""
        return Dataset(self.name, self.records)

    def parts(self) -> list[Blocking]:
        """The blocking's partitioned parts (stable across save/load:
        partitioning is structural, derived from the pickled blocking)."""
        return self.blocking.partition()

    def blocking_notes(self) -> list[Any]:
        """Per part, the notes of its index a journal segment keeps: the
        index's own once it covers every record, else those loaded."""
        if self.indexed_records < len(self.records):
            return self.part_notes
        return [
            None if shared is None else part.saved_notes(shared)
            for part, shared in zip(self.parts(), self.part_states)
        ]

    def catch_up_indexes(self, num_records: int) -> None:
        """Bring every part's index forward to the first ``num_records``
        records.

        After loading a journal the indexes are the base's.  Each takes the
        records the journal appended through ``extend_index`` (no dirty set:
        those records were rescored before the save), or ``prepare`` when
        the base held none, and then the notes of the latest segment through
        ``note_rescored``.  By the ``delta_update`` and
        :meth:`~repro.blocking.base.Blocking.saved_notes` contracts that
        gives back the index the saving process held, so the next ingest
        rescores exactly what that process would.
        """
        if self.indexed_records >= num_records:
            return
        dataset = Dataset(self.name, self.records[:num_records])
        appended = self.records[self.indexed_records:num_records]
        self.part_states = [
            part.note_rescored(
                part.prepare(dataset)
                if shared is None
                else part.extend_index(shared, dataset, appended),
                [notes],
            )
            for part, shared, notes in zip(self.parts(), self.part_states, self.part_notes)
        ]
        self.indexed_records = num_records

    # -- persistence ---------------------------------------------------------

    def manifest(self) -> dict[str, Any]:
        """The summary the manifest file carries (also what ``repro state
        show`` prints): the counters, the base and the committed journal."""
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
            "base_bytes": self.journal.base_bytes,
            "segments": _segment_entries(self.journal.segments),
        }

    def save(self, state_dir: str | Path) -> Path:
        """Serialise into ``state_dir`` (created if needed); returns the dir.

        Appends a journal segment when ``state_dir`` still holds the
        manifest this state last committed or was loaded from (its payload
        directory and segments) and the journal's bytes would stay within
        the base's; otherwise writes a new base (a compaction).  The
        manifest rename is the single commit point (see the module
        docstring), and the change tracking starts afresh only after it.
        """
        state_dir = Path(state_dir)
        journal = self.journal
        committed = _committed_manifest(state_dir)
        payload_dir = f"{_PAYLOAD_DIR_PREFIX}{self.payload_rev}"
        if (
            journal.state_dir == state_dir.resolve()
            and committed is not None
            and committed.get("payload_dir") == payload_dir
            and committed.get("segments") == _segment_entries(journal.segments)
            and (state_dir / payload_dir).is_dir()
        ):
            segment = _BoundedBuffer(journal.base_bytes - sum(journal.segments))
            try:
                pickle.dump(self._segment_payload(), segment, protocol=pickle.HIGHEST_PROTOCOL)
            except _OverBudget:
                segment = None
            if segment is not None:
                data = segment.getvalue()
                segments = [*journal.segments, len(data)]
                # Overwrites a segment an interrupted save left uncommitted.
                (state_dir / payload_dir / _segment_file(len(segments))).write_bytes(data)
                self._commit(state_dir, self.payload_rev, journal.base_bytes, segments)
                return state_dir
        self._write_base(state_dir)
        return state_dir

    def _write_base(self, state_dir: Path) -> None:
        """Compaction: the whole state into a ``rev<N>`` numbered past this
        state's own and every one ``state_dir`` holds, so that it never
        writes into a directory a manifest there names, even a manifest this
        build refuses."""
        state_dir.mkdir(parents=True, exist_ok=True)
        self.catch_up_indexes(len(self.records))
        rev = max([self.payload_rev, *_payload_revs(state_dir)]) + 1
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
            },
            _MATCHING_FILE: {
                # ProfileStore pickles as its columnar arrays, exactly like
                # the worker-shipping path.
                "profiles": self.profiles,
                "decisions": self.decisions,
            },
            _GRAPH_FILE: {
                "cleanup_memo": self.cleanup_memo,
                "pre_cleanup_removed": self.pre_cleanup_removed,
                **self._results(),
                "payload_rev": rev,
            },
        }
        payload_dir = state_dir / f"{_PAYLOAD_DIR_PREFIX}{rev}"
        payload_dir.mkdir()
        base_bytes = 0
        for file_name, payload in payloads.items():  # repro-lint: disable=unordered-iteration -- dict literal; fixed source order
            with (payload_dir / file_name).open("wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                base_bytes += handle.tell()
        self._commit(state_dir, rev, base_bytes, [])

    def _commit(
        self, state_dir: Path, rev: int, base_bytes: int, segments: list[int]
    ) -> None:
        """Rename the manifest naming ``rev<rev>`` and ``segments`` into
        place, then take the state as committed and sweep every other
        payload directory."""
        journal = self.journal
        payload_dir = f"{_PAYLOAD_DIR_PREFIX}{rev}"
        manifest = self.manifest()
        manifest.update(
            payload_dir=payload_dir,
            base_bytes=base_bytes,
            segments=_segment_entries(segments),
        )
        manifest_temp = state_dir / (MANIFEST_FILE + ".tmp")
        manifest_temp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        # The commit point: after this single atomic rename the manifest
        # names the new base or segment; before it, the old manifest still
        # names the old (untouched) files.
        manifest_temp.replace(state_dir / MANIFEST_FILE)
        self.payload_rev = rev
        journal.state_dir = state_dir.resolve()
        journal.base_bytes = base_bytes
        journal.segments = segments
        journal.mark(self)
        for stale in state_dir.glob(f"{_PAYLOAD_DIR_PREFIX}*"):
            if stale.is_dir() and stale.name != payload_dir:
                shutil.rmtree(stale, ignore_errors=True)

    def _results(self) -> dict[str, Any]:
        """The graph results a base or a segment holds.

        The group lists and the report's removed edges are left out:
        loading derives them from the clean-up memo (:meth:`_derive_groups`).
        """
        return {
            "groups": None,
            "pre_cleanup_groups": None,
            "cleanup_report": replace(self.cleanup_report, removed_edges=set()),
            "num_candidates": self.num_candidates,
            "num_ingests": self.num_ingests,
        }

    def _take_results(self, payload: dict[str, Any]) -> None:
        """Adopt the graph results of a base or a segment."""
        self.cleanup_report = payload["cleanup_report"]
        self.num_candidates = payload["num_candidates"]
        self.num_ingests = payload["num_ingests"]

    def _derive_groups(self) -> None:
        """Set both group lists from the clean-up memo."""
        self.groups, self.pre_cleanup_groups = self._memo_groups()

    def _memo_groups(self) -> tuple[EntityGroups, EntityGroups]:
        """Both group lists as an ingest left them, from the clean-up memo.

        The memo holds one entry per kept component, keyed by its edges, so
        the final components are its pieces, and the positive components
        join its keys' edges with the pre-cleanup removals; both lists are
        in :func:`~repro.graphs.union_find.component_order`, then the
        uncovered records.
        """
        memo = self.cleanup_memo
        final = sorted(
            (piece for key in memo for piece in memo[key].subcomponents),
            key=component_order,
        )
        positive = union_find_components(
            chain(chain.from_iterable(memo), self.pre_cleanup_removed)
        )
        record_ids = [record.record_id for record in self.records]
        return (
            EntityGroups.covering(final, record_ids),
            EntityGroups.covering(positive, record_ids),
        )

    def _segment_payload(self) -> dict[str, Any]:
        """What changed since the last commit (see the module docstring)."""
        journal = self.journal
        memo = self.cleanup_memo
        committed = journal.memo_keys
        removed, was_removed = self.pre_cleanup_removed, journal.pre_cleanup_removed
        profiles = self.profiles
        return {
            "records": self.records[journal.num_records:],
            "owned_pairs": [
                {
                    record_id: owned[record_id]
                    for record_id in journal.rescored.get(index, ())
                }
                for index, owned in enumerate(self.owned_pairs)
            ],
            "part_notes": self.blocking_notes(),
            "profiles": (
                [] if profiles is None else profiles.record_ids[journal.num_profiles:]
            ),
            "decisions": self.decisions.tail(journal.num_decisions),
            "memo_added": {key: memo[key] for key in memo if key not in committed},
            "memo_removed": [key for key in committed if key not in memo],
            "pre_cleanup_added": sorted_edges(removed - was_removed),
            "pre_cleanup_restored": sorted_edges(was_removed - removed),
            **self._results(),
        }

    def _apply_segment(self, segment: dict[str, Any], record_of: dict[str, Record]) -> None:
        """Replay one segment."""
        new_records = segment["records"]
        self.records.extend(new_records)
        for record in new_records:
            record_of[record.record_id] = record
        for owned, changed in zip(self.owned_pairs, segment["owned_pairs"]):
            owned.update(changed)
        self.part_notes = segment["part_notes"]
        if segment["profiles"]:
            # Profiles are a pure function of record order, so the same
            # appends in the same order give back the same columns.
            profiled = [record_of[record_id] for record_id in segment["profiles"]]
            if self.profiles is None:
                self.profiles = self.matcher.prepare_profiles(profiled)
            else:
                self.profiles.add_records(profiled)
        tail = segment["decisions"]
        if tail.pairs:
            self.decisions.extend([canonical_edge(*pair) for pair in tail.pairs], tail)
        memo = self.cleanup_memo
        for key in segment["memo_removed"]:
            del memo[key]
        memo.update(segment["memo_added"])
        self.pre_cleanup_removed.difference_update(segment["pre_cleanup_restored"])
        self.pre_cleanup_removed.update(segment["pre_cleanup_added"])
        self._take_results(segment)

    @classmethod
    def load(cls, state_dir: str | Path) -> "MatchState":
        """Deserialise a state directory written by :meth:`save`: its base,
        then its committed journal segments in order.

        Payload keys this build does not read are ignored, so a state saved
        by an earlier build that stored more still loads.  The group lists
        and the report's removed edges are derived from the clean-up memo:
        the lists when first read, the edges here.
        """
        state_dir = Path(state_dir)
        manifest = read_manifest(state_dir)
        payload_dir = state_dir / str(manifest.get("payload_dir", ""))
        if not payload_dir.is_dir():
            raise MatchStateError(
                f"match state at {state_dir} is incomplete: missing payload "
                f"directory {manifest.get('payload_dir')!r}"
            )
        payloads = {
            file_name: _read_payload(state_dir, payload_dir / file_name)
            for file_name in _STATE_FILES
        }
        components = payloads[_COMPONENTS_FILE]
        blocking = payloads[_BLOCKING_FILE]
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
            part_states=blocking["part_states"],
            owned_pairs=blocking["owned_pairs"],
            profiles=payloads[_MATCHING_FILE]["profiles"],
            decisions=payloads[_MATCHING_FILE]["decisions"],
            cleanup_memo=graph["cleanup_memo"],
            pre_cleanup_removed=graph["pre_cleanup_removed"],
            payload_rev=graph["payload_rev"],
        )
        state._take_results(graph)
        parts = state.parts()
        if (state.part_states or state.owned_pairs) and not (
            len(state.part_states) == len(state.owned_pairs) == len(parts)
        ):
            raise MatchStateError(
                f"match state at {state_dir} is inconsistent: {_BLOCKING_FILE} "
                f"holds {len(state.part_states)} part states and "
                f"{len(state.owned_pairs)} owned-pair maps, but the blocking "
                f"partitions into {len(parts)} parts "
                f"{[part.name for part in parts]}"
            )

        journal = state.journal
        state.indexed_records = len(state.records)
        entries = manifest.get("segments", [])
        record_of = (
            {record.record_id: record for record in state.records} if entries else {}
        )
        for entry in entries:
            state._apply_segment(
                _read_payload(state_dir, payload_dir / entry["file"]), record_of
            )
        journal.segments = [entry["bytes"] for entry in entries]
        journal.state_dir = state_dir.resolve()
        journal.base_bytes = manifest.get("base_bytes", 0)
        # No payload holds the group lists or the report's removed edges;
        # the lists exist from the first ingest on.
        state._groups_pending = state.num_ingests > 0
        memo = state.cleanup_memo
        state.cleanup_report = replace(
            state.cleanup_report,
            removed_edges=set().union(*(memo[key].removed_edges for key in memo)),
        )
        if manifest.get("num_records") != len(state.records):
            raise MatchStateError(
                f"match state at {state_dir} is inconsistent: manifest says "
                f"{manifest.get('num_records')} records, payload holds "
                f"{len(state.records)}"
            )
        journal.mark(state)
        return state


class _OverBudget(Exception):
    """A segment outgrew what the journal may still add."""


class _BoundedBuffer(io.BytesIO):
    """An in-memory file that refuses to grow past ``limit`` bytes.

    The pickler hands it the segment in frames of at most 64 KiB, so a
    segment that belongs in a new base (after a bulk ingest, say) stops
    being pickled soon after it outgrows the journal.
    """

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit

    def write(self, data) -> int:
        # Protocol 5 hands large arrays over as buffers, not bytes.
        if self.tell() + memoryview(data).nbytes > self.limit:
            raise _OverBudget
        return super().write(data)


def _segment_file(index: int) -> str:
    """File name of the journal's ``index``-th segment (from 1)."""
    return f"segment-{index:06d}.pkl"


def _read_payload(state_dir: Path, path: Path) -> Any:
    """Unpickle one committed file, naming it in any failure."""
    if not path.exists():
        raise MatchStateError(
            f"match state at {state_dir} is incomplete: missing "
            f"{path.name} in {path.parent.relative_to(state_dir)}"
        )
    try:
        with path.open("rb") as handle:
            return pickle.load(handle)
    # Unpickling runs the payload classes' own restore code, so a damaged
    # file can fail with any exception type.
    except Exception as error:
        raise MatchStateError(
            f"match state at {state_dir} has an unreadable payload "
            f"{path.relative_to(state_dir)}: {type(error).__name__}: {error}"
        ) from error


def _segment_entries(segments: list[int]) -> list[dict[str, Any]]:
    """The manifest's list of segments, from their sizes."""
    return [
        {"file": _segment_file(index), "bytes": size}
        for index, size in enumerate(segments, start=1)
    ]


def _committed_manifest(state_dir: Path) -> dict[str, Any] | None:
    """The manifest ``state_dir`` has committed, or None when it holds no
    state this build reads."""
    try:
        return read_manifest(state_dir)
    except MatchStateError:
        return None


def _payload_revs(state_dir: Path) -> list[int]:
    """The revisions of the ``rev<N>`` directories ``state_dir`` holds,
    committed or not."""
    start = len(_PAYLOAD_DIR_PREFIX)
    return [
        int(path.name[start:])
        for path in state_dir.glob(f"{_PAYLOAD_DIR_PREFIX}*")
        if path.name[start:].isdecimal() and path.is_dir()
    ]


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
            f"match state at {state_dir} has format version {version!r}; this "
            f"build reads version {STATE_FORMAT_VERSION} only.  To carry a version "
            "2-4 state forward, open it with a build of any commit from 3ecba85 "
            "to 634e084, ingest an empty batch and save it: that build's "
            "`repro ingest EMPTY.csv --state DIR`, with EMPTY.csv holding only "
            "a header row, does all three"
        )
    return manifest
