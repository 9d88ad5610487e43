"""Serial vs. parallel stage throughput of the runtime engine.

Measures the two data-parallel pipeline stages on the synthetic companies
benchmark under increasing worker counts, in three regimes:

* ``cpu`` — ``PipelineRuntime.run_matching`` (the "Inference Time" column
  of Table 4) with a pure-Python compute-bound matcher (Jaro–Winkler name
  similarity) on a process pool.  Throughput scales with *physical cores*;
  on a single-core machine the table honestly shows pool overhead instead
  of speedup.
* ``latency`` — the same stage with a matcher paying per-request latency
  and a max batch size per request (the remote / LLM-API matching regime of
  Section 5.2) on a thread pool.  Throughput scales with the *worker count*
  regardless of core count, because workers overlap request latency that a
  single connection pays sequentially.
* ``blocking`` — ``PipelineRuntime.run_blocking`` on a process pool, each
  blocking split into ``workers`` record spans: the token inverted index is
  built once in the parent, the per-span scoring fans out.  Like ``cpu``,
  this is compute-bound and scales with physical cores; every row asserts
  the candidates are byte-identical to serial.

Run as a script (the CI smoke invocation)::

    PYTHONPATH=src python benchmarks/bench_runtime_scaling.py --smoke

or at full scale::

    PYTHONPATH=src python benchmarks/bench_runtime_scaling.py --entities 300 --workers 1,2,4
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path
from collections.abc import Sequence

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.cli import positive_int
from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.records import Dataset
from repro.evaluation import format_table
from repro.matching.base import PairwiseMatcher, RecordPair
from repro.matching.heuristic import ThresholdNameMatcher
from repro.runtime import PipelineRuntime, RuntimeConfig

RESULTS_DIR = Path(__file__).parent / "results"


class SimulatedLatencyMatcher(PairwiseMatcher):
    """A matcher that pays request latency like a remote inference API.

    Stand-in for remote inference (an LLM API, a model server): requests
    carry at most ``max_pairs_per_request`` pairs and each request costs
    ``seconds_per_request`` of latency, so one call over N pairs sleeps
    ``ceil(N / cap)`` request latencies *sequentially* — exactly what a
    single connection would pay — while concurrent runtime workers overlap
    their requests.  Decisions are delegated to an inner matcher, so results
    stay deterministic across worker counts.
    """

    def __init__(
        self,
        inner: PairwiseMatcher,
        seconds_per_request: float,
        max_pairs_per_request: int = 128,
    ) -> None:
        self.inner = inner
        self.seconds_per_request = seconds_per_request
        self.max_pairs_per_request = max_pairs_per_request
        self.threshold = inner.threshold

    def predict_proba(self, pairs: Sequence[RecordPair]) -> list[float]:
        num_requests = -(-len(pairs) // self.max_pairs_per_request) if pairs else 0
        time.sleep(num_requests * self.seconds_per_request)
        return self.inner.predict_proba(pairs)


def build_blocking() -> CombinedBlocking:
    return CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=5)])


def build_dataset(num_entities: int, seed: int) -> Dataset:
    """The synthetic companies dataset."""
    benchmark = generate_benchmark(
        GenerationConfig(num_entities=num_entities, num_sources=4, seed=seed,
                         acquisition_rate=0.05, merger_rate=0.05)
    )
    return benchmark.companies


def measure_throughput(
    matcher: PairwiseMatcher,
    dataset: Dataset,
    candidates: list,
    config: RuntimeConfig,
    repeats: int,
) -> tuple[float, list]:
    """Best-of-``repeats`` pairs/second for one runtime configuration."""
    runtime = PipelineRuntime(config)
    best_seconds = float("inf")
    decisions = None
    for _ in range(repeats):
        start = time.perf_counter()  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
        decisions = runtime.run_matching(matcher, dataset, candidates)
        best_seconds = min(best_seconds, time.perf_counter() - start)  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
    return len(candidates) / best_seconds, decisions


def run_blocking_scaling(
    dataset: Dataset,
    worker_counts: Sequence[int],
    repeats: int,
) -> list[dict[str, object]]:
    """Candidate-generation throughput per worker count.

    The engine scores each blocking in ``workers`` record spans, so the
    serial baseline scores one span per blocking in-process and every
    parallel row exercises the span fan-out.
    """
    blocking = build_blocking()
    rows: list[dict[str, object]] = []
    serial_throughput = None
    serial_candidates = None
    for workers in worker_counts:
        runtime = PipelineRuntime(RuntimeConfig(workers=workers, executor="process"))
        best_seconds = float("inf")
        candidates = None
        for _ in range(repeats):
            start = time.perf_counter()  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
            candidates = runtime.run_blocking(blocking, dataset)
            best_seconds = min(best_seconds, time.perf_counter() - start)  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
        throughput = len(candidates) / best_seconds
        if serial_throughput is None:
            serial_throughput, serial_candidates = throughput, candidates
        assert candidates == serial_candidates, (
            f"candidates diverged from serial at workers={workers}"
        )
        rows.append({
            "Mode": "blocking",
            "Executor": "process" if workers > 1 else "serial",
            "Workers": workers,
            "Batch size": f"spans={workers}",
            "Pairs": len(candidates),
            "Pairs / s": round(throughput, 1),
            "Speedup": round(throughput / serial_throughput, 2),
        })
    return rows


def run_scaling(
    mode: str,
    dataset: Dataset,
    candidates: list,
    worker_counts: Sequence[int],
    batch_size: int,
    repeats: int,
    latency: float,
) -> list[dict[str, object]]:
    """One table row per worker count, with speedup relative to serial."""
    if mode == "cpu":
        matcher: PairwiseMatcher = ThresholdNameMatcher(similarity_threshold=0.88)
        executor = "process"
    else:
        matcher = SimulatedLatencyMatcher(
            ThresholdNameMatcher(similarity_threshold=0.88),
            seconds_per_request=latency,
            max_pairs_per_request=batch_size,
        )
        executor = "thread"

    rows: list[dict[str, object]] = []
    serial_throughput = None
    serial_decisions = None
    for workers in worker_counts:
        config = RuntimeConfig(workers=workers, batch_size=batch_size, executor=executor)
        throughput, decisions = measure_throughput(
            matcher, dataset, candidates, config, repeats
        )
        if serial_throughput is None:
            serial_throughput, serial_decisions = throughput, decisions
        assert decisions == serial_decisions, (
            f"parallel decisions diverged from serial at workers={workers}"
        )
        rows.append({
            "Mode": mode,
            "Executor": executor if workers > 1 else "serial",
            "Workers": workers,
            "Batch size": batch_size,
            "Pairs": len(candidates),
            "Pairs / s": round(throughput, 1),
            "Speedup": round(throughput / serial_throughput, 2),
        })
    return rows


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entities", type=int, default=200,
                        help="company record groups in the synthetic dataset")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workers", default="1,2,4",
                        help="comma-separated worker counts (first is the serial baseline)")
    parser.add_argument("--batch-size", type=int, default=512)
    parser.add_argument("--repeats", type=positive_int, default=2,
                        help="best-of repeats per point")
    parser.add_argument("--latency", type=float, default=0.05,
                        help="per-call seconds of the simulated remote matcher")
    parser.add_argument("--modes", default="cpu,latency,blocking",
                        help="comma-separated subset of {cpu,latency,blocking}")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload + single repeat (the CI smoke run)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.entities, args.repeats, args.workers = 40, 1, "1,2"

    worker_counts = [int(w) for w in args.workers.split(",")]
    modes = args.modes.split(",")
    dataset = build_dataset(args.entities, args.seed)
    # The matcher modes score a fixed candidate list; the blocking mode
    # measures candidate generation itself, so it never needs this pass.
    candidates = (build_blocking().candidate_pairs(dataset)
                  if set(modes) - {"blocking"} else [])
    print(f"workload: {len(dataset)} records, "
          f"{len(candidates) or 'mode-generated'} candidate pairs, "
          f"{os.cpu_count()} cpu core(s)")

    rows: list[dict[str, object]] = []
    for mode in modes:
        if mode == "blocking":
            rows.extend(run_blocking_scaling(dataset, worker_counts, args.repeats))
        else:
            rows.extend(run_scaling(mode, dataset, candidates, worker_counts,
                                    args.batch_size, args.repeats, args.latency))

    table = format_table(rows, title="Runtime scaling — stage throughput")
    print(table)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "runtime_scaling.txt"
    path.write_text(table + "\n", encoding="utf-8")
    print(f"[saved to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
