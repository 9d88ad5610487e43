"""Launcher for the end-to-end benchmark.

Run from the repository root::

    python3 e2ebench/run.py --workload experiment-1k --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py compare BASE_RESULTS_DIR HEAD_RESULTS_DIR

It pins the BLAS thread pools to one thread before numpy can load (numpy's
OpenBLAS otherwise starts a second thread on a two-core machine), puts the
repository's ``src`` and root on ``sys.path``, and refuses to run unless the
library sources sit next to the benchmark — so it never measures a copy of
``repro`` installed elsewhere.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    root = Path(__file__).resolve().parent.parent
    source = root / "src"
    if not (source / "repro").is_dir():
        sys.stderr.write(
            f"e2ebench: no library sources at {source / 'repro'}; run this "
            "from a full checkout of the repository\n"
        )
        return 2
    sys.path[:0] = [str(source), str(root)]
    from e2ebench.cli import main as bench_main

    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
