"""Compare two result directories: the check a performance change runs.

Usage::

    python3 e2ebench/run.py compare BASE_DIR HEAD_DIR

Each directory holds the result files of runs on one commit (``--out``).
Runs pair up by workload, trace mode and seed.  For every workload and
metric this prints both sides' median and quartiles, the share of paired
runs the head won (ties count for neither side) and a verdict:

* ``improved`` — the head won at least 90% of the pairs and its median
  beats the base median by more than the base's quartile distance, or every
  head run beats every base run;
* ``unresolved`` — either side's quartile distance, as a share of its
  median, is wider than the metric's bound;
* ``worse`` — the head median is worse than the base median by more than
  the bound;
* ``no worse`` — otherwise.

Per-layer metrics have no bound, so they only get ``improved`` or ``-``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def load_results(directory: Path) -> dict[tuple[str, int], dict[int, dict[str, float]]]:
    """``(workload, trace) → seed → metric → value`` for every result file."""
    results: dict[tuple[str, int], dict[int, dict[str, float]]] = {}
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        key = (record["workload"], record["trace"])
        results.setdefault(key, {})[record["seed"]] = {
            name: metric["value"] for name, metric in record["metrics"].items()
        }
    return results


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        value = values[0]
        return value, value, value
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def verdict(
    base: list[float], head: list[float], pairs: list[tuple[float, float]],
    better: str, bound: float | None,
) -> tuple[str, float]:
    """The verdict and the share of pairs the head won."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - h) > 0 for b, h in pairs)
    share = wins / len(pairs) if pairs else 0.0
    base_low, base_median, base_high = _quartiles(base)
    head_low, head_median, head_high = _quartiles(head)
    gain = sign * (base_median - head_median)
    separated = (max(head) < min(base)) if better == "lower" else (min(head) > max(base))
    if separated or (share >= 0.9 and gain > base_high - base_low):
        return "improved", share
    if bound is None:
        return "-", share
    if len(base) < 2 or len(head) < 2:
        return "unresolved", share
    spreads = [
        (high - low) / abs(median) if median else float("inf")
        for low, median, high in ((base_low, base_median, base_high),
                                  (head_low, head_median, head_high))
    ]
    if max(spreads) > bound:
        return "unresolved", share
    if -gain > bound * abs(base_median):
        return "worse", share
    return "no worse", share


def compare(base_dir: Path, head_dir: Path, benchmark: dict) -> list[str]:
    declared = {
        spec["name"]: (spec["better"], spec.get("bound"))
        for spec in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    base_results, head_results = load_results(base_dir), load_results(head_dir)
    lines = [
        f"{'workload':<16} {'trace':>5} {'metric':<32} {'base p50 [q1, q3]':>30} "
        f"{'head p50 [q1, q3]':>30} {'won':>9}  verdict"
    ]
    for key in sorted(set(base_results) & set(head_results)):
        base_runs, head_runs = base_results[key], head_results[key]
        seeds = sorted(set(base_runs) & set(head_runs))
        names = [name for name in declared if name in next(iter(base_runs.values()))]
        for name in names:
            better, bound = declared[name]
            base = [run[name] for run in base_runs.values() if name in run]
            head = [run[name] for run in head_runs.values() if name in run]
            if not base or not head:
                continue
            pairs = [(base_runs[seed][name], head_runs[seed][name]) for seed in seeds]
            outcome, share = verdict(base, head, pairs, better, bound)
            low, median, high = _quartiles(base)
            head_low, head_median, head_high = _quartiles(head)
            lines.append(
                f"{key[0]:<16} {key[1]:>5} {name:<32} "
                f"{f'{median:.4g} [{low:.4g}, {high:.4g}]':>30} "
                f"{f'{head_median:.4g} [{head_low:.4g}, {head_high:.4g}]':>30} "
                f"{f'{share:.0%} of {len(pairs)}':>9}  {outcome}"
            )
    return lines


def compare_main(argv: list[str], benchmark_file: Path) -> int:
    parser = argparse.ArgumentParser(
        prog="e2ebench/run.py compare",
        description="Compare two directories of benchmark results.",
    )
    parser.add_argument("base", type=Path, help="results of the parent commit")
    parser.add_argument("head", type=Path, help="results of the change")
    args = parser.parse_args(argv)
    for directory in (args.base, args.head):
        if not directory.is_dir():
            parser.error(f"not a directory: {directory}")
    benchmark = json.loads(benchmark_file.read_text(encoding="utf-8"))
    for line in compare(args.base, args.head, benchmark):
        print(line)
    return 0
