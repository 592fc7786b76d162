"""Benchmark of fedunroll's federated training workloads.

    python3 benchmarks/run.py --workload s1-m10-compare --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; paths are resolved
from this file). `--trace 0` prints the end-to-end metrics; `--trace 1`
runs the same workload with span tracing on every other pass and prints
the per-layer metrics, writing the spans to `benchmarks/out/`. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread: the arrays are tiny (k = 4), so threads only add
    # scheduling noise. numpy reads these when it is first imported, below.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = "1"

    if not os.path.isfile(os.path.join(SRC, "fedunroll", "__init__.py")):
        print(f"fedunroll sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fedunroll

    if os.path.dirname(os.path.abspath(fedunroll.__file__)) != os.path.join(SRC, "fedunroll"):
        print(f"imported fedunroll from {fedunroll.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from bench_workloads import WORKLOADS, run_benchmark

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), SRC,
                           out_dir=os.path.join(HERE, "out"))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
