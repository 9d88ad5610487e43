"""Command line: run one workload, or compare two sets of results.

``run.py --workload NAME --seed N --seconds S --trace 0|1`` runs one
workload and prints, as its last stdout line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` list of ``BENCHMARK.json``, with
``--trace 1`` its ``per_layer`` list.  Each run also writes a result file
(samples, checks and machine stamp) under ``--out``, and a traced run its
trace as JSONL that ``repro report`` renders.

``run.py compare BASE HEAD`` compares two such result directories
(:mod:`e2ebench.compare`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

import numpy

from repro.obs import NULL_RECORDER
from repro.obs.resources import effective_cpu_count

from e2ebench.compare import compare_main
from e2ebench.tracing import layer_metrics, new_recorder, write_trace
from e2ebench.workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
DEFAULT_OUT = Path(__file__).resolve().parent / "results"


def commit() -> str | None:
    """The checkout's git commit, or ``None`` when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the library's Python sources, for checkouts without git."""
    digest = hashlib.sha256()
    source = ROOT / "src"
    for path in sorted(source.rglob("*.py")):
        digest.update(path.relative_to(source).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_stamp() -> dict[str, object]:
    return {
        "cpu_count": effective_cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def percentile(values: list[float], share: float) -> float:
    """Linear-interpolated percentile (0.0 for no samples)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def end_to_end_metrics(outcome: Outcome) -> tuple[dict[str, float], dict[str, int]]:
    """The end-to-end metric values, and the sample count behind each."""
    ops = outcome.op_seconds
    values = {
        "setup_s": statistics.median(outcome.setup_seconds),
        "op_s_p50": statistics.median(ops) if ops else 0.0,
        "op_s_p90": percentile(ops, 0.9),
        "peak_rss_mb": outcome.peak_rss_bytes / 2**20,
        "group_f1": outcome.group_f1,
    }
    counts = {
        "setup_s": len(outcome.setup_seconds),
        "op_s_p50": len(ops),
        "op_s_p90": len(ops),
        "peak_rss_mb": 1,
        "group_f1": outcome.group_f1_corpora,
    }
    return values, counts


def parse_run_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="e2ebench/run.py", description="Run one end-to-end benchmark workload."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; the default seeds are 1 to 10")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to time ops for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced decomposition, print per-layer metrics")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for result files and traces")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        return compare_main(argv[1:], BENCHMARK_FILE)
    args = parse_run_args(argv)
    declared = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    if args.trace:
        recorder, memory = new_recorder()
    else:
        recorder, memory = NULL_RECORDER, None
    work = Path(__file__).resolve().parent / "_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.seconds, work, recorder)
    outcome = workload.run()

    if args.trace:
        values, counts = layer_metrics(recorder.trace(), outcome.overhead), {}
        listed = declared["per_layer"]
    else:
        values, counts = end_to_end_metrics(outcome)
        listed = declared["end_to_end"]
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in listed
    }

    out = args.out / args.workload
    out.mkdir(parents=True, exist_ok=True)
    stem = f"seed{args.seed}-trace{args.trace}"
    if memory is not None:
        for name, value in values.items():
            recorder.metrics.gauge(name, value)
        write_trace(recorder, memory, out / f"seed{args.seed}.trace.jsonl")
    result = {
        "correct": outcome.failed == 0 and bool(outcome.op_seconds),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": machine_stamp(),
        "samples": {
            "setup_s": outcome.setup_seconds,
            "op_s": outcome.op_seconds,
            "setup_wall_s": outcome.setup_wall_seconds,
            "op_wall_s": outcome.op_wall_seconds,
        },
        "sample_counts": counts,
        "problems": outcome.problems,
        **result,
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {len(outcome.op_seconds)} timed ops, "
          f"{outcome.failed} failed of {outcome.attempted} attempted, "
          f"{len(outcome.setup_seconds)} set-ups, {effective_cpu_count()} cpu(s)")
    if outcome.op_wall_seconds:
        print(f"  wall clock: setup median {statistics.median(outcome.setup_wall_seconds):.6g} s, "
              f"op median {statistics.median(outcome.op_wall_seconds):.6g} s")
    for problem in outcome.problems:
        print(f"  problem: {problem}")
    for name, metric in metrics.items():
        count = f" (n={counts[name]})" if name in counts else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{count}")
    print(json.dumps(result))
    return 0
