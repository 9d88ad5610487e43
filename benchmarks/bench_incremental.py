"""Incremental ingestion: delta cost vs. full re-run, with equivalence.

For a synthetic companies corpus, measures what it costs to absorb the last
``delta`` records into a warm persistent match state versus re-running the
whole batch pipeline from scratch, across delta sizes × worker counts.
Before any timing counts, every configuration asserts **batch equivalence
bitwise**: the post-ingest candidates, decisions (probabilities compared
exactly) and final groups must equal the one-shot pipeline run over the
full corpus.  The warm state is saved to a state directory and every
timed ingest runs on a matcher loaded from it.  The same delta is also
timed as the first ingest of the freshly opened matcher, which first
builds the candidate counts and the positive graph that a saved state
does not hold.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_incremental.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_incremental.py           # full numbers

A final section ingests three batches on one warm process pool and records
the pool ledger per batch, proving the pool spawns once for the whole
sequence and the persistent profile store ships once per revision (batches
after the first pay no pool-start or re-pickle overhead).

Full runs assert that small-delta ingestion beats the full re-run and write
``benchmarks/results/BENCH_incremental.json``.  Quick runs skip the
wall-clock assertion (CI boxes are too noisy to gate on ratios) and write
``BENCH_incremental_quick.json`` so the committed full-run reference
numbers are never overwritten by a smoke run.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path
from collections.abc import Sequence

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.cli import positive_int
from repro.core.cleanup import CleanupConfig
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.core.precleanup import PreCleanupConfig
from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.records import Dataset
from repro.evaluation import format_table
from repro.incremental import IncrementalMatcher
from repro.matching import LogisticRegressionMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs
from repro.obs.resources import effective_cpu_count, peak_rss_bytes
from repro.runtime import RuntimeConfig

RESULTS_DIR = Path(__file__).parent / "results"


def build_dataset(entities: int, seed: int) -> Dataset:
    return generate_benchmark(
        GenerationConfig(num_entities=entities, num_sources=4, seed=seed,
                         acquisition_rate=0.05, merger_rate=0.05)
    ).companies


def train_matcher(dataset: Dataset) -> LogisticRegressionMatcher:
    pairs = build_labeled_pairs(dataset, negative_ratio=3, seed=0)
    record_pairs, labels = as_record_pairs(pairs)
    return LogisticRegressionMatcher(num_iterations=120).fit(record_pairs, labels)


def make_pipeline(matcher, runtime: RuntimeConfig | None) -> EntityGroupMatchingPipeline:
    return EntityGroupMatchingPipeline(
        matcher=matcher,
        blocking=CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]),
        cleanup_config=CleanupConfig.for_num_sources(4),
        pre_cleanup_config=PreCleanupConfig(max_component_size=30),
        runtime=runtime,
    )


def time_full_run(matcher, dataset: Dataset, runtime: RuntimeConfig | None,
                  repeats: int):
    """Best-of wall clock (and result) of the one-shot batch pipeline."""
    best, result = float("inf"), None
    for _ in range(repeats):
        with make_pipeline(matcher, runtime) as pipeline:
            start = time.perf_counter()  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
            result = pipeline.run(dataset)
            best = min(best, time.perf_counter() - start)  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
    return best, result


def warm_state(matcher, prefix, runtime: RuntimeConfig | None, state_dir: Path) -> Path:
    """Ingest the prefix once and save the state for repeatable deltas."""
    with IncrementalMatcher.from_pipeline(
        make_pipeline(matcher, runtime), name="bench"
    ) as incremental:
        incremental.ingest(prefix)
        return incremental.save(state_dir)


def time_delta_ingest(state_dir: Path, delta, runtime: RuntimeConfig | None,
                      repeats: int):
    """Best-of wall clocks of ingesting ``delta`` into the warm state.

    Each repeat loads a fresh copy of the saved warm state (outside the
    timed region), so repeated ingests never see their own side effects.
    The first time is the first ingest of the freshly opened matcher, which
    also builds its candidate counts and positive graph from the stored
    owned lists.  The second ingests into a matcher that an untimed empty
    ingest has already built them for, as every later ingest finds them.
    """
    first, best, matcher, report = float("inf"), float("inf"), None, None
    for _ in range(repeats):
        for warm in (False, True):
            if matcher is not None:  # release the previous repeat's warm pool
                matcher.close()
            matcher = IncrementalMatcher.load(state_dir, runtime=runtime)
            if warm:
                matcher.ingest([])
            start = time.perf_counter()  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
            report = matcher.ingest(delta)
            elapsed = time.perf_counter() - start  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
            if warm:
                best = min(best, elapsed)
            else:
                first = min(first, elapsed)
    return first, best, matcher, report


def measure_warm_pool(matcher, records, batch_size: int) -> list[dict[str, object]]:
    """Ingest three batches on one warm process pool and expose its ledger.

    Structural proof for the pool fix: the pool spawns exactly once (batches
    after the first show a spawn delta of zero — no process start or
    re-pickle overhead in their matching stage), and the persistent profile
    store is re-published once per growing batch (one revision each), never
    once per ``map_chunks`` call.
    """
    runtime = RuntimeConfig(workers=2, batch_size=batch_size, executor="process")
    size = (len(records) + 2) // 3
    batches = [records[i:i + size] for i in range(0, len(records), size)]
    per_batch: list[dict[str, object]] = []
    previous = {"spawns": 0, "publishes": 0, "publish_reuses": 0, "fetches": 0}
    with IncrementalMatcher.from_pipeline(
        make_pipeline(matcher, runtime), name="bench-warm"
    ) as incremental:
        for index, batch in enumerate(batches, start=1):
            start = time.perf_counter()  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
            incremental.ingest(batch)
            seconds = time.perf_counter() - start  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
            stats = incremental.runtime.pool_stats()
            per_batch.append({
                "batch": index,
                "records": len(batch),
                "seconds": round(seconds, 3),
                "pool_spawns_delta": stats["spawns"] - previous["spawns"],
                "publishes_delta": stats["publishes"] - previous["publishes"],
                "fetches_delta": stats["fetches"] - previous["fetches"],
                "cpu_count": effective_cpu_count(),
                "peak_rss_bytes": peak_rss_bytes(),
            })
            previous = stats
        store = incremental.state.profiles
        assert store is not None and store.revision == 2, (
            "expected one store revision per growing batch after the first"
        )
    assert per_batch[0]["pool_spawns_delta"] == 1, "pool should spawn on batch 1"
    assert all(row["pool_spawns_delta"] == 0 for row in per_batch[1:]), (
        "warm pool was rebuilt after the first batch"
    )
    return per_batch


def assert_batch_equivalent(incremental: IncrementalMatcher, batch_result) -> None:
    assert incremental.candidates() == batch_result.candidates, "candidates drifted"
    decisions = incremental.decisions()
    assert decisions == batch_result.decisions, "decisions drifted"
    assert [d.probability for d in decisions] == [
        d.probability for d in batch_result.decisions
    ], "probabilities drifted"
    assert incremental.groups.groups == batch_result.groups.groups, "groups drifted"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entities", type=positive_int, default=300,
                        help="company record groups in the synthetic corpus")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workers", default="1,2",
                        help="comma-separated worker counts")
    parser.add_argument("--deltas", default="0.02,0.1,0.25",
                        help="comma-separated delta sizes as corpus fractions")
    parser.add_argument("--batch-size", type=positive_int, default=1024)
    parser.add_argument("--repeats", type=positive_int, default=3,
                        help="best-of repeats per point")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload, single repeat, no wall-clock "
                             "assertion (the CI smoke run)")
    args = parser.parse_args(argv)

    if args.quick:
        args.entities, args.repeats, args.workers = 60, 1, "1"

    worker_counts = [int(w) for w in args.workers.split(",")]
    delta_fractions = [float(d) for d in args.deltas.split(",")]
    dataset = build_dataset(args.entities, args.seed)
    matcher = train_matcher(dataset)
    records = dataset.records
    print(f"workload: {len(records)} records, deltas {delta_fractions}, "
          f"workers {worker_counts}, {effective_cpu_count()} cpu core(s)")

    rows: list[dict[str, object]] = []
    small_delta_beats_full = True
    for workers in worker_counts:
        runtime = None if workers == 1 else RuntimeConfig(
            workers=workers, batch_size=args.batch_size, executor="thread"
        )
        full_seconds, batch_result = time_full_run(
            matcher, dataset, runtime, args.repeats
        )
        for fraction in delta_fractions:
            delta_size = max(1, int(len(records) * fraction))
            prefix, delta = records[:-delta_size], records[-delta_size:]
            with tempfile.TemporaryDirectory() as scratch:
                state_dir = warm_state(matcher, prefix, runtime, Path(scratch) / "state")
                first_seconds, ingest_seconds, incremental, report = time_delta_ingest(
                    state_dir, delta, runtime, args.repeats
                )
            try:
                assert_batch_equivalent(incremental, batch_result)
            finally:
                incremental.close()
            speedup = full_seconds / ingest_seconds
            if fraction == min(delta_fractions) and ingest_seconds >= full_seconds:
                small_delta_beats_full = False
            rows.append({
                "Workers": workers,
                "Delta": f"{delta_size} ({fraction:.0%})",
                "Full run (s)": round(full_seconds, 3),
                "Ingest (s)": round(ingest_seconds, 3),
                "Speedup": round(speedup, 2),
                # The same ingest as a freshly opened matcher's first.
                "First after open (s)": round(first_seconds, 3),
                "Pairs scored": f"{report.pairs_scored}/{report.num_candidates}",
                # Blocking rescores, summed over both parts (new + dirty).
                "Records rescored": report.records_rescored,
                "Recleaned": (
                    f"{report.components_recleaned}/{report.components_total}"
                ),
                "cpu_count": effective_cpu_count(),
                "peak_rss_bytes": peak_rss_bytes(),
            })

    print(format_table(rows, title="Delta ingest vs full batch re-run"))
    print("equivalence: incremental == batch (candidates, probabilities, "
          "groups), bitwise — OK")

    warm_pool_batches = measure_warm_pool(matcher, records, args.batch_size)
    print(format_table(
        warm_pool_batches,
        title="Warm process pool across a 3-batch ingest (workers=2)",
    ))
    print("warm pool: spawned once, store republished once per revision — OK")

    if not args.quick:
        assert small_delta_beats_full, (
            "small-delta ingestion failed to beat the full batch re-run"
        )

    report_doc = {
        "benchmark": "incremental_ingest",
        "quick": args.quick,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": {
            "entities": args.entities,
            "seed": args.seed,
            "records": len(records),
            "delta_fractions": delta_fractions,
            "batch_size": args.batch_size,
            "repeats": args.repeats,
            "cpu_count": effective_cpu_count(),
            "peak_rss_bytes": peak_rss_bytes(),
        },
        "rows": rows,
        "equivalence": {"incremental_equals_batch_bitwise": True},
        "warm_pool": {
            "config": {"workers": 2, "executor": "process"},
            "per_batch": warm_pool_batches,
            "pool_spawned_once": True,
            "store_shipped_once_per_revision": True,
        },
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    filename = (
        "BENCH_incremental_quick.json" if args.quick else "BENCH_incremental.json"
    )
    path = RESULTS_DIR / filename
    path.write_text(json.dumps(report_doc, indent=2) + "\n", encoding="utf-8")
    print(f"[saved to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
