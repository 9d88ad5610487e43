"""Pairwise-matching throughput: the profile-store hot path.

Measures the matching layer's prepare-once/score-many optimisation on the
synthetic companies benchmark, in two sections:

* **feature extraction** (single process) — pairs/second of the logistic
  matcher's feature extraction through two implementations:

  - ``seed``: the historical extractor, re-deriving every normalisation per
    pair with the untrimmed Levenshtein DP (replicated here verbatim as the
    frozen "before" baseline and per-pair oracle),
  - ``profile_store``: the library's one feature path — profiles prepared
    once per record, features as array expressions over the packed
    columns — preparation time is included.

  Both matrices, and the record-pair ``extract_batch`` that fitting uses,
  are asserted bitwise equal before any timing counts.

* **run_matching** — end-to-end ``PipelineRuntime.run_matching`` throughput
  with the trained logistic matcher, workers × executor.  Every row's
  decisions are asserted **bitwise identical** to ``matcher.decide`` on the
  record pairs (same probabilities, same verdicts): the engine's single
  route trades work for speed, never output.  Each row records the
  effective ``cpu_count`` it ran under, and parallel speedup assertions are
  skipped (and recorded as skipped) when the box has fewer cores than
  workers — a 2-worker row on a 1-core runner measures engine overhead, not
  parallelism.

The candidate set is the real blocking output (token-overlap + id-overlap),
topped up with sliding-window pairs until pairs/records >= 10 — the
pairs >> records regime the profile subsystem targets.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_matching_throughput.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_matching_throughput.py           # full numbers

Full runs assert the >= 3x extraction speedup and write
``benchmarks/results/BENCH_matching.json``.  Quick runs skip the timing
assertion (CI boxes are too noisy to gate on wall-clock ratios) and write
``BENCH_matching_quick.json`` instead, so the committed full-run reference
numbers are never overwritten by a smoke run.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from collections.abc import Sequence

import numpy as np

from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.blocking.base import CandidatePair
from repro.cli import positive_int
from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.identifiers import SECURITY_ID_FIELDS
from repro.datagen.records import CompanyRecord, Dataset, SecurityRecord
from repro.evaluation import format_table
from repro.matching import LogisticRegressionMatcher
from repro.matching.features import PairFeatureExtractor
from repro.matching.decisions import DecisionVector
from repro.matching.pairs import as_record_pairs, build_labeled_pairs
from repro.matching.profiles import ProfileStore
from repro.obs.resources import effective_cpu_count, peak_rss_bytes
from repro.runtime import PipelineRuntime, RuntimeConfig
from repro.text.normalize import normalize_identifier, normalize_text, strip_corporate_terms
from repro.text.similarity import (
    jaccard_similarity,
    jaro_winkler_similarity,
    longest_common_substring,
    overlap_coefficient,
)
from repro.text.tokenize import word_tokenize

RESULTS_DIR = Path(__file__).parent / "results"

#: The serial run_matching throughput of the pre-profile-subsystem build
#: (the first recorded BENCH_matching.json) — full runs pin the engine's
#: serial route at >= 3x this floor.
_SEED_SERIAL_PAIRS_PER_S = 35_000.0


# -- the frozen "before" baseline -------------------------------------------


def _seed_levenshtein(a: str, b: str) -> int:
    """The pre-optimisation edit distance: full DP, no affix trimming."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(b) > len(a):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def _seed_levenshtein_similarity(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    return 1.0 - _seed_levenshtein(a, b) / max(len(a), len(b))


def _seed_lcs_similarity(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return longest_common_substring(a, b) / min(len(a), len(b))


class SeedPairFeatureExtractor:
    """The extractor as it stood before the profile subsystem landed.

    Re-derives every record-local value for both sides of every pair and
    uses the unoptimised similarity kernels — the honest "before" of the
    BENCH_matching.json trajectory.
    """

    def extract(self, left, right) -> np.ndarray:
        left_name = self._record_name(left)
        right_name = self._record_name(right)
        left_name_norm = normalize_text(left_name)
        right_name_norm = normalize_text(right_name)
        left_tokens = left_name_norm.split()
        right_tokens = right_name_norm.split()
        left_stripped = strip_corporate_terms(left_name)
        right_stripped = strip_corporate_terms(right_name)
        left_description = self._record_attribute(left, "description")
        right_description = self._record_attribute(right, "description")
        description_tokens_left = word_tokenize(left_description)
        description_tokens_right = word_tokenize(right_description)
        overlaps, conflicts, isin_overlap = self._record_identifier_features(left, right)
        values = (
            jaro_winkler_similarity(left_name_norm, right_name_norm),
            _seed_levenshtein_similarity(left_name_norm, right_name_norm),
            jaccard_similarity(left_tokens, right_tokens),
            overlap_coefficient(left_tokens, right_tokens),
            _seed_lcs_similarity(left_name_norm, right_name_norm),
            jaro_winkler_similarity(left_stripped, right_stripped),
            jaccard_similarity(left_stripped.split(), right_stripped.split()),
            jaccard_similarity(description_tokens_left, description_tokens_right)
            if description_tokens_left and description_tokens_right
            else 0.0,
            1.0 if left_description and right_description else 0.0,
            self._record_equality(left, right, "city"),
            self._record_equality(left, right, "region"),
            self._record_equality(left, right, "country_code"),
            self._record_equality(left, right, "industry"),
            self._record_equality(left, right, "security_type"),
            float(overlaps),
            float(conflicts),
            isin_overlap,
            self._record_equality(left, right, "ticker"),
            1.0 if left.source == right.source else 0.0,
        )
        return np.asarray(values, dtype=np.float64)

    @staticmethod
    def _record_name(record) -> str:
        for attribute in ("name", "title"):
            value = getattr(record, attribute, None)
            if value:
                return str(value)
        return ""

    @staticmethod
    def _record_attribute(record, attribute: str) -> str:
        value = getattr(record, attribute, None)
        return str(value) if value else ""

    def _record_equality(self, left, right, attribute: str) -> float:
        left_value = normalize_text(self._record_attribute(left, attribute))
        right_value = normalize_text(self._record_attribute(right, attribute))
        if not left_value or not right_value:
            return 0.5
        return 1.0 if left_value == right_value else 0.0

    @staticmethod
    def _record_identifier_features(left, right) -> tuple[int, int, float]:
        overlaps = 0
        conflicts = 0
        isin_overlap = 0.0
        if isinstance(left, SecurityRecord) and isinstance(right, SecurityRecord):
            for field in SECURITY_ID_FIELDS:
                left_value = normalize_identifier(getattr(left, field))
                right_value = normalize_identifier(getattr(right, field))
                if not left_value or not right_value:
                    continue
                if left_value == right_value:
                    overlaps += 1
                else:
                    conflicts += 1
            isin_overlap = 1.0 if overlaps else 0.0
        if isinstance(left, CompanyRecord) and isinstance(right, CompanyRecord):
            left_isins = {normalize_identifier(value) for value in left.security_isins}
            right_isins = {normalize_identifier(value) for value in right.security_isins}
            left_isins.discard("")
            right_isins.discard("")
            shared = left_isins & right_isins
            overlaps = len(shared)
            if left_isins and right_isins and not shared:
                conflicts = 1
            isin_overlap = 1.0 if shared else 0.0
        return overlaps, conflicts, isin_overlap


# -- workload ----------------------------------------------------------------


def build_dataset(num_entities: int, seed: int) -> Dataset:
    benchmark = generate_benchmark(
        GenerationConfig(num_entities=num_entities, num_sources=4, seed=seed,
                         acquisition_rate=0.05, merger_rate=0.05)
    )
    return benchmark.companies


def build_candidates(dataset: Dataset, min_ratio: float) -> list[CandidatePair]:
    """Blocking candidates, topped up to ``pairs / records >= min_ratio``.

    The blocking output is the realistic similarity distribution; the
    deterministic sliding-window top-up only widens the set so the bench
    sits in the pairs >> records regime the profile store targets.
    """
    blocking = CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=30)])
    candidates = blocking.candidate_pairs(dataset)
    seen = {candidate.key for candidate in candidates}
    records = dataset.records
    target = int(min_ratio * len(records))
    offset = 1
    while len(candidates) < target and offset < len(records):
        for index in range(len(records) - offset):
            left = records[index]
            right = records[index + offset]
            pair = CandidatePair(left.record_id, right.record_id, "window")
            if pair.key in seen:
                continue
            seen.add(pair.key)
            candidates.append(pair)
            if len(candidates) >= target:
                break
        offset += 1
    return candidates


def train_matcher(dataset: Dataset) -> LogisticRegressionMatcher:
    pairs = build_labeled_pairs(dataset, negative_ratio=3, seed=0)
    record_pairs, labels = as_record_pairs(pairs)
    return LogisticRegressionMatcher(num_iterations=120).fit(record_pairs, labels)


# -- measurements ------------------------------------------------------------


def measure_extraction(
    dataset: Dataset, candidates: Sequence[CandidatePair], repeats: int
) -> tuple[list[dict[str, object]], dict[str, float]]:
    """Pairs/second of the seed and columnar extraction, plus the speedup."""
    record_pairs = [
        (dataset.record(c.left_id), dataset.record(c.right_id)) for c in candidates
    ]
    id_pairs = [(c.left_id, c.right_id) for c in candidates]
    current = PairFeatureExtractor()
    seed_extractor = SeedPairFeatureExtractor()

    def best_of(run) -> tuple[float, np.ndarray]:
        best, matrix = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
            matrix = run()
            best = min(best, time.perf_counter() - start)  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
        return best, matrix

    seed_seconds, seed_matrix = best_of(
        lambda: np.stack([seed_extractor.extract(left, right) for left, right in record_pairs])
    )

    def profiled() -> np.ndarray:
        # Preparation is part of the measured cost: the speedup must hold
        # end to end, not just on warm caches.
        store = ProfileStore.prepare(dataset.records)
        return current.extract_batch_profiles(store, id_pairs)

    profile_seconds, profile_matrix = best_of(profiled)

    # Both implementations must agree bitwise before any timing counts.
    assert np.array_equal(seed_matrix, profile_matrix), (
        "columnar extraction drifted from the seed extractor"
    )
    assert np.array_equal(seed_matrix, current.extract_batch(record_pairs)), (
        "record-pair extract_batch drifted from the seed extractor"
    )

    num_pairs = len(candidates)
    rows = [
        {
            "Extraction": label,
            "Pairs": num_pairs,
            "Seconds": round(seconds, 3),
            "Pairs / s": round(num_pairs / seconds, 1),
            "Speedup vs seed": round(seed_seconds / seconds, 2),
            "cpu_count": effective_cpu_count(),
            "peak_rss_bytes": peak_rss_bytes(),
        }
        for label, seconds in (
            ("seed (per-pair recompute)", seed_seconds),
            ("profile store (columnar, incl. prepare)", profile_seconds),
        )
    ]
    return rows, {"profile_store_vs_seed": seed_seconds / profile_seconds}


def measure_run_matching(
    dataset: Dataset,
    candidates: Sequence[CandidatePair],
    matcher: LogisticRegressionMatcher,
    worker_counts: Sequence[int],
    executors: Sequence[str],
    batch_size: int,
    repeats: int,
) -> list[dict[str, object]]:
    """Throughput rows: workers × executor.

    Asserts, for every configuration, that a
    :class:`~repro.matching.decisions.DecisionVector` came back and that its
    decisions are bitwise identical to ``matcher.decide`` on the record
    pairs — probabilities compared exactly, not approximately.  Each row
    records the effective ``cpu_count`` it ran under: a parallel row
    measured with fewer cores than workers documents overhead, not speedup,
    and the reference-number assertions skip it (``speedup_meaningful``).
    """
    oracle = matcher.decide(
        [(dataset.record(c.left_id), dataset.record(c.right_id)) for c in candidates]
    )
    rows: list[dict[str, object]] = []
    baseline = None
    cpus = effective_cpu_count()
    for workers in worker_counts:
        for executor in executors:
            if workers == 1 and executor != executors[0]:
                continue  # serial runs don't touch a pool; one row is enough
            config = RuntimeConfig(
                workers=workers, batch_size=batch_size, executor=executor
            )
            with PipelineRuntime(config) as runtime:
                best = float("inf")
                decisions = None
                for _ in range(repeats):
                    start = time.perf_counter()  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
                    decisions = runtime.run_matching(matcher, dataset, candidates)
                    best = min(best, time.perf_counter() - start)  # repro-lint: disable=obs-clock-discipline -- wall clock is this benchmark's artefact
            assert isinstance(decisions, DecisionVector)
            assert decisions == oracle, (
                f"decisions drifted at workers={workers}, executor={executor}"
            )
            assert [d.probability for d in decisions] == [
                d.probability for d in oracle
            ], "probabilities drifted from matcher.decide"
            throughput = len(candidates) / best
            if baseline is None:
                baseline = throughput
            rows.append({
                "Workers": workers,
                "Executor": executor if workers > 1 else "serial",
                "Pairs / s": round(throughput, 1),
                "Speedup": round(throughput / baseline, 2),
                "cpu_count": cpus,
                "peak_rss_bytes": peak_rss_bytes(),
                # A 2-worker row on a 1-core box measures overhead, not
                # parallel speedup — consumers must not gate on it.
                "speedup_meaningful": workers <= cpus,
            })
    return rows


# -- entry point -------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entities", type=positive_int, default=150,
                        help="company record groups in the synthetic dataset")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workers", default="1,2",
                        help="comma-separated worker counts (first is serial)")
    parser.add_argument("--executors", default="process,thread",
                        help="comma-separated subset of {process,thread}")
    parser.add_argument("--batch-size", type=positive_int, default=1024)
    parser.add_argument("--repeats", type=positive_int, default=5,
                        help="best-of repeats per point")
    parser.add_argument("--min-ratio", type=float, default=10.0,
                        help="minimum candidate pairs per record")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload, single repeat, no timing "
                             "assertion (the CI smoke run)")
    args = parser.parse_args(argv)

    if args.quick:
        args.entities, args.repeats, args.workers = 40, 1, "1,2"

    worker_counts = [int(w) for w in args.workers.split(",")]
    executors = args.executors.split(",")
    dataset = build_dataset(args.entities, args.seed)
    candidates = build_candidates(dataset, args.min_ratio)
    ratio = len(candidates) / len(dataset)
    print(f"workload: {len(dataset)} records, {len(candidates)} candidate pairs "
          f"(pairs/records = {ratio:.1f}), {effective_cpu_count()} cpu core(s)")

    matcher = train_matcher(dataset)
    extraction_rows, speedups = measure_extraction(dataset, candidates, args.repeats)
    matching_rows = measure_run_matching(
        dataset, candidates, matcher, worker_counts, executors,
        args.batch_size, args.repeats,
    )

    print(format_table(extraction_rows, title="Feature extraction — single process"))
    print(format_table(matching_rows, title="run_matching — workers × executor"))
    print(f"profile store speedup: {speedups['profile_store_vs_seed']:.2f}x vs seed")
    print("determinism: every configuration == matcher.decide, bitwise — OK")

    # Parallel speedup is only a meaningful claim when the box actually has
    # the cores: on cpu_count < workers the same rows measure pure engine
    # overhead and the assertion is recorded as skipped instead of failed.
    speedup_checks: list[dict[str, object]] = []
    for row in matching_rows:
        if row["Workers"] == 1:
            continue
        check = {
            "workers": row["Workers"],
            "executor": row["Executor"],
            "speedup": row["Speedup"],
            "cpu_count": row["cpu_count"],
        }
        if not row["speedup_meaningful"]:
            check["status"] = "skipped (cpu_count < workers)"
            print(f"speedup assertion skipped: {row['Workers']} {row['Executor']} "
                  f"workers on {row['cpu_count']} core(s)")
        elif row["Executor"] == "thread":
            # Feature extraction is mostly pure Python: the GIL serialises
            # thread workers, so a thread row documents overhead only.
            check["status"] = "skipped (thread executor, GIL-bound)"
        elif args.quick:
            check["status"] = "skipped (quick run)"
        else:
            assert row["Speedup"] >= 1.0, (
                f"parallel matching lost to serial: "
                f"{row['Speedup']}x at workers={row['Workers']}, "
                f"executor={row['Executor']} on {row['cpu_count']} core(s)"
            )
            check["status"] = "asserted >= 1.0x"
        speedup_checks.append(check)

    serial_throughput = next(
        row["Pairs / s"] for row in matching_rows if row["Workers"] == 1
    )

    if not args.quick:
        assert ratio >= 10.0, f"candidate set too thin: pairs/records = {ratio:.1f}"
        assert speedups["profile_store_vs_seed"] >= 3.0, (
            "profile-store extraction fell below the pinned 3x speedup: "
            f"{speedups['profile_store_vs_seed']:.2f}x"
        )
        # Serial end-to-end run_matching at >= 3x the pre-profile-subsystem
        # 35.0k pairs/s baseline (the first recorded BENCH_matching.json
        # serial row).
        assert serial_throughput >= 3.0 * _SEED_SERIAL_PAIRS_PER_S, (
            "serial run_matching fell below 3x the seed baseline: "
            f"{serial_throughput:.0f} pairs/s vs "
            f"{3.0 * _SEED_SERIAL_PAIRS_PER_S:.0f} required"
        )

    report = {
        "benchmark": "matching_throughput",
        "quick": args.quick,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": {
            "entities": args.entities,
            "seed": args.seed,
            "records": len(dataset),
            "candidate_pairs": len(candidates),
            "pairs_per_record": round(ratio, 2),
            "batch_size": args.batch_size,
            "repeats": args.repeats,
            "cpu_count": effective_cpu_count(),
            "peak_rss_bytes": peak_rss_bytes(),
        },
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "extraction": {
            "rows": extraction_rows,
            "speedups": {key: round(value, 3) for key, value in speedups.items()},
        },
        "run_matching": {
            "rows": matching_rows,
            "parallel_speedup_checks": speedup_checks,
            "serial_pairs_per_s": serial_throughput,
            "seed_serial_pairs_per_s": _SEED_SERIAL_PAIRS_PER_S,
        },
        "determinism": {"all_configs_equal_decide_bitwise": True},
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    filename = "BENCH_matching_quick.json" if args.quick else "BENCH_matching.json"
    path = RESULTS_DIR / filename
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[saved to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
