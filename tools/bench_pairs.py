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

    python3 tools/bench_pairs.py --base HEAD --workload s1-m10-compare --seeds 71-80 --claim round_ms_p50@s1-m10-compare

It prints one table per workload, each headed by both sides' code
size: the line count of src/fedunroll/*.py as `wc -l` gives it, then
the same lines split into code, docstring, comment and blank by the
standard library's tokenizer (a docstring is a string that is a
statement of its own; the split counts a last line without a newline,
which `wc -l` does not, and the package's modules have none). For
every end-to-end metric that BENCHMARK.json declares, it prints each
side's median [first quartile, third quartile], the number of pairs
the working tree won (strictly better in the metric's direction) and
the number of exact ties, which count for neither side, and the median
over the pairs of the relative change (change / base - 1, in percent):
a paired figure, so drift of the machine between pairs does not enter
it as it enters the difference of the two medians. It marks a metric
WORSE when the working tree's median is worse than the base's by more
than the metric's relative `bound`. It prints each side's count of failed
operations and marks the working tree's MORE FAILURES when its share of
failed operations exceeds the base's. It then lists every run that
exited non-zero, printed `"correct": false` or printed no JSON result,
and exits 1 if any workload had such a run, a WORSE metric or MORE
FAILURES.

With `--claim METRIC@WORKLOAD` it last prints `CLAIM MET` or `CLAIM NOT
MET` for that end-to-end metric on that workload, one of those run. A
claimed gain needs both: the working tree wins at least 9 of every 10
pairs run (a tie, or a pair missing a value, wins for neither side),
and its median is better than the base's by more than the distance
between the base's first and third quartiles. An unknown metric or a
workload not run is a usage error before any run; the verdict does not
change the exit code.

    python3 tools/bench_pairs.py --base HEAD --workload s2-m100-fedlocal --seeds 71-80 --json BENCH_x.json

With `--json PATH` it also writes what it printed to PATH as one JSON
object: the base ref, the seeds and the run length; both sides' code
size (`code_split`: the line count and its split by kind); per
workload (`summarize`) and per end-to-end metric both sides' median and
quartiles, the pairs with both values, the pairs won, the ties, the
median pair change in percent and the WORSE flag, then both sides'
failed and attempted operations, the MORE FAILURES flag and the failed
runs; the claim and its verdict (null without `--claim`); the exit
code; and the run's environment: the commit the base ref resolved to
(`base_commit`), which is the commit exported, and the Python version,
numpy version (null when numpy is not installed) and CPU count
(`os.cpu_count()`) of the interpreter that ran both sides. A base ref
that names no commit is a usage error before any run. Standard library
only.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
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


def resolve_commit(ref: str) -> Optional[str]:
    """The full SHA of the commit `ref` names, or None when it names none."""
    proc = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> Dict[str, object]:
    """The Python version, numpy version (None when numpy is not
    installed) and CPU count of this interpreter, which runs both sides."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version, "cpu_count": os.cpu_count()}


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


LINE_KINDS = ("code", "docstring", "comment", "blank")


def line_kinds(source: bytes) -> Dict[str, int]:
    """Lines of Python `source` by kind, from its tokens: a line with any
    code token is code, else one inside a docstring (a string that is a
    statement of its own) is docstring, else one holding a comment is
    comment, and the rest, whitespace only, are blank. Every line counts,
    a last one without a newline too."""
    ranks: Dict[int, int] = {}  # line number -> index into LINE_KINDS, the lowest wins

    def mark(tok, rank):
        for line in range(tok.start[0], tok.end[0] + 1):
            ranks[line] = min(ranks.get(line, rank), rank)

    toks = []  # the tokens but comments and line breaks inside statements
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type == tokenize.COMMENT:
            mark(tok, 2)
        elif tok.type not in (tokenize.ENCODING, tokenize.NL):
            toks.append(tok)
    starts = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
    for i, tok in enumerate(toks):
        if tok.type in starts or tok.type == tokenize.ENDMARKER:
            continue
        docstring = (tok.type == tokenize.STRING and (i == 0 or toks[i - 1].type in starts)
                     and toks[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        mark(tok, 1 if docstring else 0)
    counts = dict.fromkeys(LINE_KINDS, 0)
    for rank in ranks.values():
        counts[LINE_KINDS[rank]] += 1
    counts["blank"] = len(source.splitlines()) - len(ranks)
    return counts


def code_split(tree: str) -> Dict[str, int]:
    """{"lines": source_lines of `tree`, then each kind: the same
    modules' lines of that kind (line_kinds), summed over the modules}."""
    total = dict.fromkeys(LINE_KINDS, 0)
    for path in glob.glob(os.path.join(tree, "src", "fedunroll", "*.py")):
        with open(path, "rb") as fh:
            for kind, n in line_kinds(fh.read()).items():
                total[kind] += n
    return {"lines": source_lines(tree), **total}


def code_size(tree: str) -> str:
    """The code_split of `tree` as one line: the line count, then the split."""
    split = code_split(tree)
    return f"{split['lines']} ({', '.join(f'{kind} {split[kind]}' for kind in LINE_KINDS)})"


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


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(q: Optional[Dict[str, float]]) -> str:
    """Median [Q1, Q3] of one side's quartiles ({"q1", "median", "q3"},
    None without values)."""
    if q is None:
        return "n/a"
    return f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"


def median_pair_change(pairs: List[Tuple[float, float]]) -> Optional[float]:
    """Median over the (base, change) pairs of change / base - 1, in
    percent; pairs with a zero base have no relative change and are
    left out (None when none is left)."""
    rel = [c / b - 1.0 for b, c in pairs if b != 0]
    return 100.0 * statistics.median(rel) if rel else None


def percent(change: Optional[float]) -> str:
    """A change in percent as printed: signed, two decimals, or "n/a"."""
    return "n/a" if change is None else f"{change:+.2f} %"


def pair_change(pairs: List[Tuple[float, float]]) -> str:
    """median_pair_change of the pairs as printed (percent)."""
    return percent(median_pair_change(pairs))


def worse_beyond_bound(base: float, change: float, bound: float, lower: bool) -> bool:
    """True when `change` is worse than `base` in the metric's direction
    by more than `bound` times the base."""
    excess = change - base if lower else base - change
    return excess > bound * abs(base)


def claim_met(pairs: List[Tuple[float, float]], runs: int, lower: bool) -> Tuple[bool, str]:
    """Whether the (base, change) pairs of one metric show a gain, out of
    `runs` pairs run, and why: the change must win at least 9 of every
    10 pairs run, ties and pairs missing a value counting for neither
    side, and over the pairs its median must beat the base's by more
    than the base's quartile spread (Q3 - Q1)."""
    wins = sum((c < b) if lower else (c > b) for b, c in pairs)
    if not pairs:
        return False, f"change wins {wins}/{runs} pairs, no pair has both values"
    q1, base_median, q3 = quartiles([b for b, _ in pairs])
    change_median = statistics.median(c for _, c in pairs)
    gain = base_median - change_median if lower else change_median - base_median
    met = 10 * wins >= 9 * runs and gain > q3 - q1
    return met, (f"change wins {wins}/{runs} pairs (needs {(9 * runs + 9) // 10}), medians"
                 f" {base_median:.6g} -> {change_median:.6g} differ by {gain:.6g} in the better"
                 f" direction against the base's quartile spread {q3 - q1:.6g}")


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


def by_side(runs: List[Tuple[int, str, int, Optional[dict]]]) -> Dict[str, Dict[int, Dict[str, float]]]:
    """{side: {seed: {metric: value}}} of a workload's runs (seed, side,
    exit code, result)."""
    sides: Dict[str, Dict[int, Dict[str, float]]] = {side: {} for side in SIDES}
    for seed, side, _, result in runs:
        sides[side][seed] = _metrics(result)
    return sides


def metric_pairs(sides: Dict[str, Dict[int, Dict[str, float]]], seeds: List[int],
                 name: str) -> List[Tuple[float, float]]:
    """(base, change) values of metric `name`, for each seed whose two
    runs both printed it."""
    return [(sides["base"][s][name], sides["change"][s][name]) for s in seeds
            if name in sides["base"].get(s, {}) and name in sides["change"].get(s, {})]


def summarize(seeds: List[int], runs: List[Tuple[int, str, int, Optional[dict]]],
              declared: List[dict]) -> dict:
    """One workload's figures from its runs (seed, side, exit code,
    result): for each declared end-to-end metric both sides' quartiles
    (None without values), the pairs with both values, the change's wins
    and the ties among them, the median pair change in percent and
    whether the change is WORSE; both sides' failed and attempted
    operations and whether the change's share is larger; and the runs
    that failed."""
    sides = by_side(runs)
    metrics = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        entry = {key: metric[key] for key in ("unit", "better", "bound")}
        for side in SIDES:
            values = [m[name] for m in sides[side].values() if name in m]
            entry[side] = dict(zip(("q1", "median", "q3"), quartiles(values))) if values else None
        pairs = metric_pairs(sides, seeds, name)
        entry.update(
            pairs=len(pairs),
            wins=sum((c < b) if lower else (c > b) for b, c in pairs),
            ties=sum(c == b for b, c in pairs),
            median_pair_change_pct=median_pair_change(pairs),
            worse=bool(entry["base"] and entry["change"] and worse_beyond_bound(
                entry["base"]["median"], entry["change"]["median"], metric["bound"], lower)),
        )
        metrics[name] = entry
    tally = {side: (sum(r["failed"] for _, s, _, r in runs if s == side and r),
                    sum(r["attempted"] for _, s, _, r in runs if s == side and r))
             for side in SIDES}
    return {
        "metrics": metrics,
        "operations": {side: {"failed": f, "attempted": a} for side, (f, a) in tally.items()},
        "more_failures": failed_share_grew(tally["base"], tally["change"]),
        "failed_runs": [{"side": side, "seed": seed, "exit": code, "json_result": result is not None,
                         "correct": None if result is None else result.get("correct")}
                        for seed, side, code, result in runs
                        if code != 0 or result is None or result.get("correct") is not True],
    }


def report(workload: str, summary: dict, sizes: Dict[str, str], header: str) -> bool:
    """Print one workload's table from its summary; True when it shows a
    WORSE metric, MORE FAILURES or a failed run."""
    print(f"{workload}: {header}")
    print(f"  src/fedunroll/*.py lines: base {sizes['base']}  change {sizes['change']}")
    for name, m in summary["metrics"].items():
        flag = f"  WORSE (bound {m['bound']:g})" if m["worse"] else ""
        print(f"  {name} ({m['unit']}): base {spread(m['base'])}  "
              f"change {spread(m['change'])}  "
              f"change wins {m['wins']}/{m['pairs']}, ties {m['ties']}{flag}  "
              f"median pair change {percent(m['median_pair_change_pct'])}")
    for side in SIDES:
        ops = summary["operations"][side]
        flag = "  MORE FAILURES" if side == "change" and summary["more_failures"] else ""
        print(f"  {side}: {ops['failed']} of {ops['attempted']} operations failed{flag}")
    for run in summary["failed_runs"]:
        correct = (f'"correct": {json.dumps(run["correct"])}' if run["json_result"]
                   else "no JSON result")
        print(f"  FAILED RUN: {run['side']} seed {run['seed']}: exit {run['exit']}, {correct}")
    return (bool(summary["failed_runs"]) or summary["more_failures"]
            or any(m["worse"] for m in summary["metrics"].values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--workload", required=True, type=lambda text: [w.strip() for w in text.split(",")],
                        help="a workload of BENCHMARK.json, or several separated by commas")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 71-80 or 71,72,75")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--claim", metavar="METRIC@WORKLOAD",
                        help="judge a claimed gain in an end-to-end metric on a workload run")
    parser.add_argument("--json", metavar="PATH", help="also write the figures to PATH as JSON")
    args = parser.parse_args(argv)
    seeds, workloads = args.seeds, args.workload

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    known = [w["name"] for w in benchmark["workloads"]]
    unknown = [w for w in workloads if w not in known]
    if unknown or len(set(workloads)) != len(workloads):
        parser.error(f"--workload {','.join(workloads)}: name workloads of BENCHMARK.json"
                     f" ({', '.join(known)}), each once")
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    if args.claim is not None:
        claim_metric, _, claim_workload = args.claim.partition("@")
        if claim_metric not in declared or claim_workload not in workloads:
            parser.error(f"--claim {args.claim}: give METRIC@WORKLOAD, an end-to-end metric of"
                         f" BENCHMARK.json ({', '.join(declared)}) and a workload of --workload")
    base_commit = resolve_commit(args.base)
    if base_commit is None:
        parser.error(f"--base {args.base}: names no commit")
    if benchmark_differs(base_commit):
        print(f"benchmarks/ or BENCHMARK.json differ from {args.base}; refusing to compare", file=sys.stderr)
        return 2

    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    base_tree = os.path.join(tmp, "base")
    runs: Dict[str, List[Tuple[int, str, int, Optional[dict]]]] = {w: [] for w in workloads}
    try:
        export_tree(base_commit, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        splits = {side: code_split(tree) for side, tree in trees.items()}
        sizes = {side: code_size(tree) for side, tree in trees.items()}
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
    summaries = {w: summarize(seeds, runs[w], benchmark["end_to_end"]) for w in workloads}
    bad = [report(w, summaries[w], sizes, header) for w in workloads]
    claim = None
    if args.claim is not None:
        pairs = metric_pairs(by_side(runs[claim_workload]), seeds, claim_metric)
        met, why = claim_met(pairs, len(seeds), declared[claim_metric]["better"] == "lower")
        claim = {"metric": claim_metric, "workload": claim_workload, "met": met, "why": why}
        print(f"CLAIM {'MET' if met else 'NOT MET'}: {claim_metric} on {claim_workload}: {why}")
    code = 1 if any(bad) else 0
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump({"base": args.base, "base_commit": base_commit, "seeds": seeds,
                       "seconds": args.seconds, "environment": environment(),
                       "code_size": splits, "workloads": summaries, "claim": claim,
                       "exit_code": code}, fh, indent=2)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
