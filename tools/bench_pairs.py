"""Paired benchmark runs: a base commit against the working tree.

    python3 tools/bench_pairs.py --base HEAD --workload s2-m100-fedlocal --seeds 71-80
    python3 tools/bench_pairs.py --base HEAD --workload s1-m10-compare,s3-m100-grad-partial --seeds 71-80

Exports the base commit's files with `git archive` into a temporary
directory (removed on exit; nothing is written under `.git`, so a killed
run leaves no worktree registered) and runs `benchmarks/run.py` on
it and on the working tree once per seed and workload, each pair with
the same seed and length, alternating which side runs first. Every
workload name must be one of BENCHMARK.json's, given once; a name that
is not is a usage error before any run. It refuses to run when
`benchmarks/` or `BENCHMARK.json` differ between the two, an untracked
file there included, since the comparison needs the same benchmark on
both sides.

It prints one table per workload, each headed by both sides' code
size, the line count of src/fedunroll/*.py as `wc -l` gives it. For
every end-to-end metric that BENCHMARK.json declares, it prints each
side's median [first quartile, third quartile], the number of pairs
the working tree won (strictly better in the metric's direction) and
the number of exact ties, which count for neither side, and marks it
WORSE when the working tree's median is worse than the base's by more
than the metric's relative `bound`. It prints each side's count of failed
operations and marks the working tree's MORE FAILURES when its share of
failed operations exceeds the base's. It then lists every run that
exited non-zero, printed `"correct": false` or printed no JSON result,
and exits 1 if any workload had such a run, a WORSE metric or MORE
FAILURES. Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def parse_seeds(text: str) -> List[int]:
    """'71-80' or '71,73,75' (or a mix) to a list of seeds. A malformed
    part, an empty or reversed range and a seed given twice raise
    argparse.ArgumentTypeError: each pair must be one distinct run."""
    seeds: List[int] = []
    for part in text.split(","):
        lo, dash, hi = part.strip().partition("-")
        try:
            first, last = int(lo), int(hi if dash else lo)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad seed or range {part.strip()!r}") from None
        if last < first:
            raise argparse.ArgumentTypeError(f"empty seed range {part.strip()!r}")
        seeds.extend(range(first, last + 1))
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"seeds given more than once: {repeated}")
    return seeds


def export_tree(ref: str, dest: str) -> None:
    """Write the files of commit `ref` into the directory `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def source_lines(tree: str) -> int:
    """Lines of the package's modules, src/fedunroll/*.py, in `tree`:
    the newlines they hold, as `wc -l` counts them."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "fedunroll", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


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


def worse_beyond_bound(base: float, change: float, bound: float, lower: bool) -> bool:
    """True when `change` is worse than `base` in the metric's direction
    by more than `bound` times the base."""
    excess = change - base if lower else base - change
    return excess > bound * abs(base)


def failed_share_grew(base: Tuple[int, int], change: Tuple[int, int]) -> bool:
    """True when the change's share of failed operations exceeds the
    base's; each side is (failed, attempted), and a side that attempted
    nothing has a share of 0."""
    def share(failed: int, attempted: int) -> Fraction:
        return Fraction(failed, attempted) if attempted else Fraction(0)

    return share(*change) > share(*base)


def benchmark_differs(base: str) -> bool:
    """True when benchmarks/ or BENCHMARK.json differ between `base` and
    the working tree, an untracked file that git does not ignore
    included (`git diff` alone does not see those)."""
    paths = ["--", "benchmarks", "BENCHMARK.json"]
    same = subprocess.run(["git", "diff", "--quiet", base, *paths], cwd=ROOT)
    untracked = subprocess.run(["git", "ls-files", "--others", "--exclude-standard", *paths],
                               cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return same.returncode != 0 or bool(untracked)


def report(workload: str, seeds: List[int], runs: List[Tuple[int, str, int, Optional[dict]]],
           declared: List[dict], lines: Dict[str, int], header: str) -> bool:
    """Print one workload's table from its runs (seed, side, exit code,
    result); True when it shows a WORSE metric, MORE FAILURES or a
    failed run."""
    by_side: Dict[str, Dict[int, dict]] = {side: {} for side in SIDES}
    for seed, side, _, result in runs:
        by_side[side][seed] = _metrics(result)
    print(f"{workload}: {header}")
    print(f"  src/fedunroll/*.py lines: base {lines['base']}  change {lines['change']}")
    any_worse = False
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [m[name] for m in by_side[side].values() if name in m] for side in SIDES}
        pairs = [(by_side["base"][s][name], by_side["change"][s][name]) for s in seeds
                 if name in by_side["base"].get(s, {}) and name in by_side["change"].get(s, {})]
        wins = sum((c < b) if lower else (c > b) for b, c in pairs)
        ties = sum(c == b for b, c in pairs)
        flag = ""
        if values["base"] and values["change"] and worse_beyond_bound(
                statistics.median(values["base"]), statistics.median(values["change"]),
                metric["bound"], lower):
            flag = f"  WORSE (bound {metric['bound']:g})"
            any_worse = True
        print(f"  {name} ({metric['unit']}): base {spread(values['base'])}  "
              f"change {spread(values['change'])}  "
              f"change wins {wins}/{len(pairs)}, ties {ties}{flag}")
    tally = {side: (sum(r["failed"] for _, s, _, r in runs if s == side and r),
                    sum(r["attempted"] for _, s, _, r in runs if s == side and r))
             for side in SIDES}
    more_failures = failed_share_grew(tally["base"], tally["change"])
    for side in SIDES:
        flag = "  MORE FAILURES" if side == "change" and more_failures else ""
        print(f"  {side}: {tally[side][0]} of {tally[side][1]} operations failed{flag}")
    bad = [(seed, side, code, result) for seed, side, code, result in runs
           if code != 0 or result is None or result.get("correct") is not True]
    for seed, side, code, result in bad:
        correct = "no JSON result" if result is None else f'"correct": {json.dumps(result.get("correct"))}'
        print(f"  FAILED RUN: {side} seed {seed}: exit {code}, {correct}")
    return bool(bad) or any_worse or more_failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--workload", required=True, type=lambda text: [w.strip() for w in text.split(",")],
                        help="a workload of BENCHMARK.json, or several separated by commas")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 71-80 or 71,72,75")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    seeds, workloads = args.seeds, args.workload

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    known = [w["name"] for w in benchmark["workloads"]]
    unknown = [w for w in workloads if w not in known]
    if unknown or len(set(workloads)) != len(workloads):
        parser.error(f"--workload {','.join(workloads)}: name workloads of BENCHMARK.json"
                     f" ({', '.join(known)}), each once")
    if benchmark_differs(args.base):
        print(f"benchmarks/ or BENCHMARK.json differ from {args.base}; refusing to compare", file=sys.stderr)
        return 2

    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    base_tree = os.path.join(tmp, "base")
    runs: Dict[str, List[Tuple[int, str, int, Optional[dict]]]] = {w: [] for w in workloads}
    try:
        export_tree(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        lines = {side: source_lines(tree) for side, tree in trees.items()}
        for workload in workloads:
            for i, seed in enumerate(seeds):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    code, result = run_once(trees[side], workload, seed, args.seconds)
                    runs[workload].append((seed, side, code, result))
                    print(f"{workload} seed {seed} {side}: exit {code}, "
                          f"round_ms_p50 {_metrics(result).get('round_ms_p50')}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    header = f"{len(seeds)} pairs, --seconds {args.seconds:g}, base {args.base}"
    bad = [report(w, seeds, runs[w], benchmark["end_to_end"], lines, header) for w in workloads]
    return 1 if any(bad) else 0


if __name__ == "__main__":
    sys.exit(main())
