"""Paired benchmark runs: a base commit against the working tree.

    python3 tools/bench_pairs.py --base HEAD --workload s2-m100-fedlocal --seeds 71-80

Checks the base commit out with `git worktree add --detach` into a
temporary directory (removed on exit) and runs `benchmarks/run.py` on
it and on the working tree once per seed, each pair with the same seed
and length, alternating which side runs first. It refuses to run when
`benchmarks/` or `BENCHMARK.json` differ between the two, since the
comparison needs the same benchmark on both sides.

For every end-to-end metric that BENCHMARK.json declares, it prints each
side's median [first quartile, third quartile], the number of pairs the
working tree won (strictly better in the metric's direction) and the
number of exact ties, which count for neither side. It then lists every
run that exited non-zero, printed `"correct": false` or printed no JSON
result, and exits 1 if there was any. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def parse_seeds(text: str) -> List[int]:
    """'71-80' or '71,73,75' (or a mix) to a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: str, workload: str, seed: int, seconds: float) -> Tuple[int, Optional[dict]]:
    """Run the benchmark in `tree`; its exit code and its last stdout
    line parsed as JSON (None when that line is not a JSON object)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "benchmarks", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result if isinstance(result, dict) else None


def _metrics(result: Optional[dict]) -> Dict[str, float]:
    """{name: value} of a run's printed metrics ({} without a result)."""
    return {name: m["value"] for name, m in (result or {}).get("metrics", {}).items()}


def spread(values: List[float]) -> str:
    """Median [Q1, Q3] of the values."""
    if not values:
        return "n/a"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 71-80 or 71,72,75")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    same = subprocess.run(["git", "diff", "--quiet", args.base, "--", "benchmarks", "BENCHMARK.json"], cwd=ROOT)
    if same.returncode != 0:
        print(f"benchmarks/ or BENCHMARK.json differ from {args.base}; refusing to compare", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]

    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    base_tree = os.path.join(tmp, "base")
    runs: List[Tuple[int, str, int, Optional[dict]]] = []  # seed, side, exit code, result
    try:
        subprocess.run(["git", "worktree", "add", "--detach", base_tree, args.base],
                       cwd=ROOT, check=True, capture_output=True)
        trees = {"base": base_tree, "change": ROOT}
        for i, seed in enumerate(seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                code, result = run_once(trees[side], args.workload, seed, args.seconds)
                runs.append((seed, side, code, result))
                print(f"seed {seed} {side}: exit {code}, round_ms_p50 {_metrics(result).get('round_ms_p50')}",
                      file=sys.stderr, flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    by_side: Dict[str, Dict[int, dict]] = {side: {} for side in SIDES}
    for seed, side, _, result in runs:
        by_side[side][seed] = _metrics(result)
    print(f"{args.workload}: {len(seeds)} pairs, --seconds {args.seconds:g}, base {args.base}")
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [m[name] for m in by_side[side].values() if name in m] for side in SIDES}
        pairs = [(by_side["base"][s][name], by_side["change"][s][name]) for s in seeds
                 if name in by_side["base"].get(s, {}) and name in by_side["change"].get(s, {})]
        wins = sum((c < b) if lower else (c > b) for b, c in pairs)
        ties = sum(c == b for b, c in pairs)
        print(f"  {name} ({metric['unit']}): base {spread(values['base'])}  "
              f"change {spread(values['change'])}  change wins {wins}/{len(pairs)}, ties {ties}")
    for side in SIDES:
        attempted = sum(r["attempted"] for _, s, _, r in runs if s == side and r)
        failed = sum(r["failed"] for _, s, _, r in runs if s == side and r)
        print(f"  {side}: {failed} of {attempted} operations failed")
    bad = [(seed, side, code, result) for seed, side, code, result in runs
           if code != 0 or result is None or result.get("correct") is not True]
    for seed, side, code, result in bad:
        correct = "no JSON result" if result is None else f'"correct": {json.dumps(result.get("correct"))}'
        print(f"  FAILED RUN: {side} seed {seed}: exit {code}, {correct}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
