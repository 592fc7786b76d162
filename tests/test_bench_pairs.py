"""tools/bench_pairs.py: the seed list it pairs runs over, the export of
the base commit, the bound check on the medians, the comparison of
the failed operations' shares, the code-size count and the verdict on
a claimed gain."""

import argparse
import importlib.util
import json
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_ranges_and_lists_parse_in_order():
    assert bench_pairs.parse_seeds("71-73") == [71, 72, 73]
    assert bench_pairs.parse_seeds("71, 75,80-81") == [71, 75, 80, 81]
    assert bench_pairs.parse_seeds("9-9") == [9]


@pytest.mark.parametrize("text", ["80-71", "71-73,72", "5,5", "x", "71-", ""])
def test_empty_reversed_repeated_or_malformed_seeds_are_rejected(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_seeds(text)


def test_bad_seeds_are_a_usage_error_before_any_run(capsys):
    # argparse rejects the list before the base is exported or a run starts
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", "HEAD", "--workload", "s1-m10-compare", "--seeds", "80-71"])
    assert exc.value.code == 2
    assert "empty seed range" in capsys.readouterr().err


def _git(*args):
    return subprocess.run(["git", *args], cwd=bench_pairs.ROOT, capture_output=True, text=True)


@pytest.mark.skipif(_git("rev-parse", "--verify", "HEAD").returncode != 0,
                    reason="needs a git checkout with a commit")
def test_the_base_is_exported_without_a_worktree(tmp_path):
    before = _git("worktree", "list", "--porcelain").stdout
    bench_pairs.export_tree("HEAD", str(tmp_path / "base"))
    assert (tmp_path / "base" / "benchmarks" / "run.py").is_file()
    assert (tmp_path / "base" / "src" / "fedunroll" / "__init__.py").is_file()
    assert _git("worktree", "list", "--porcelain").stdout == before


@pytest.mark.parametrize("lower", [True, False])
def test_a_median_is_worse_only_beyond_the_relative_bound(lower):
    sign = 1.0 if lower else -1.0  # +: the change's value is worse
    worse = bench_pairs.worse_beyond_bound
    assert worse(10.0, 10.0 + sign * 3.0, 0.25, lower)       # 30 % worse
    assert not worse(10.0, 10.0 + sign * 2.0, 0.25, lower)   # 20 % worse, within the bound
    assert not worse(10.0, 10.0 - sign * 5.0, 0.25, lower)   # better
    assert not worse(10.0, 10.0, 0.25, lower)


def test_the_pair_change_is_the_median_of_each_pairs_relative_change():
    change = bench_pairs.pair_change  # each pair: (base, change)
    # drift: the medians of the sides differ by 0 (10 vs 10), yet every
    # pair of this change reads 10 % lower
    assert change([(10.0, 9.0), (20.0, 18.0), (40.0, 36.0)]) == "-10.00 %"
    assert change([(10.0, 11.0), (10.0, 12.5), (10.0, 20.0), (10.0, 10.0)]) == "+17.50 %"
    assert change([(0.0, 1.0), (4.0, 5.0)]) == "+25.00 %"   # a zero base has no ratio
    assert change([(0.0, 1.0)]) == change([]) == "n/a"


def test_only_a_larger_share_of_failed_operations_is_flagged():
    grew = bench_pairs.failed_share_grew  # each side: (failed, attempted)
    assert grew((0, 100), (1, 100))
    assert grew((1, 100), (1, 50))            # same count, fewer attempted
    assert not grew((1, 100), (2, 200))       # the same share
    assert not grew((2, 100), (1, 100))
    assert not grew((0, 100), (0, 120))
    assert not grew((3, 0), (0, 0))           # nothing attempted: share 0
    assert grew((0, 0), (1, 10))


def test_code_size_counts_the_package_modules_as_wc_does(tmp_path):
    pkg = tmp_path / "src" / "fedunroll"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("one\ntwo\n")
    (pkg / "b.py").write_text("three\nno final newline")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (pkg / "sub").mkdir()
    (pkg / "sub" / "c.py").write_text("nested\n")
    (tmp_path / "d.py").write_text("outside\n")
    assert bench_pairs.source_lines(str(tmp_path)) == 3
    assert bench_pairs.source_lines(str(tmp_path / "empty")) == 0


def _fake_runs(monkeypatch, change_values=None, change_code=0):
    """Stub out git, the export and the benchmark runs; every run prints
    all declared metrics at 10, except the change side's values given
    as {workload: {metric: value}}. Returns the (workload, seed, side)
    of every run."""
    calls = []

    def run_once(tree, workload, seed, seconds):
        side = "change" if tree == bench_pairs.ROOT else "base"
        calls.append((workload, seed, side))
        values = {m["name"]: 10.0 for m in _declared()}
        if side == "change":
            values.update((change_values or {}).get(workload, {}))
        result = {"metrics": {n: {"value": v} for n, v in values.items()},
                  "failed": 0, "attempted": 5, "correct": True}
        return (change_code if side == "change" else 0), result

    monkeypatch.setattr(bench_pairs, "benchmark_differs", lambda base: False)
    monkeypatch.setattr(bench_pairs, "export_tree", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def _declared():
    with open(os.path.join(bench_pairs.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


@pytest.mark.parametrize("workloads", ["nope", "s1-m10-compare,nope", "s1-m10-compare,s1-m10-compare", ""])
def test_unknown_or_repeated_workloads_are_a_usage_error_before_any_run(monkeypatch, capsys, workloads):
    calls = _fake_runs(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", "HEAD", "--workload", workloads, "--seeds", "1-2"])
    assert exc.value.code == 2
    assert "name workloads of BENCHMARK.json" in capsys.readouterr().err
    assert calls == []


def test_every_workload_gets_its_table_and_one_worse_workload_fails_the_command(monkeypatch, capsys):
    workloads = ["s1-m10-compare", "s3-m100-grad-partial"]
    argv = ["--base", "HEAD", "--workload", ",".join(workloads), "--seeds", "1-2", "--seconds", "1"]
    calls = _fake_runs(monkeypatch)
    assert bench_pairs.main(argv) == 0
    assert sorted(calls) == sorted((w, s, side) for w in workloads for s in (1, 2)
                                   for side in ("base", "change"))
    out = capsys.readouterr().out
    tables = [out.index(f"{w}: 2 pairs") for w in workloads]
    assert tables == sorted(tables) and "WORSE" not in out

    _fake_runs(monkeypatch, {"s3-m100-grad-partial": {"round_ms_p50": 20.0}})
    assert bench_pairs.main(argv) == 1
    out = capsys.readouterr().out
    s1_table, s3_table = out.split("s3-m100-grad-partial: 2 pairs")
    assert "WORSE" not in s1_table
    assert "round_ms_p50 (ms): base 10 [10, 10]  change 20 [20, 20]  change wins 0/2, ties 0  WORSE" in s3_table
    assert "median pair change +100.00 %" in s3_table and "median pair change +0.00 %" in s1_table

    _fake_runs(monkeypatch, change_code=1)
    assert bench_pairs.main(argv) == 1
    assert capsys.readouterr().out.count("FAILED RUN: change") == 4


def test_an_untracked_benchmark_file_counts_as_a_difference(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "run.py").write_text("print()\n")
    (tmp_path / "BENCHMARK.json").write_text("{}\n")
    (tmp_path / ".gitignore").write_text("benchmarks/out/\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    assert not bench_pairs.benchmark_differs("HEAD")
    (tmp_path / "benchmarks" / "out").mkdir()
    (tmp_path / "benchmarks" / "out" / "spans.csv").write_text("ignored\n")
    (tmp_path / "notes.txt").write_text("outside benchmarks/\n")
    assert not bench_pairs.benchmark_differs("HEAD")
    (tmp_path / "benchmarks" / "bench_new.py").write_text("new\n")
    assert bench_pairs.benchmark_differs("HEAD")
    (tmp_path / "benchmarks" / "bench_new.py").unlink()
    (tmp_path / "BENCHMARK.json").write_text("{\"changed\": 1}\n")
    assert bench_pairs.benchmark_differs("HEAD")


@pytest.mark.parametrize("lower", [True, False])
def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gain_beyond_the_base_spread(lower):
    sign = 1.0 if lower else -1.0  # +: the change's value is worse

    def pairs(*changes):  # the base reads 10, 10.1, ... in the worse direction, quartiles 0.45 apart
        return [(10.0 - sign * 0.1 * i, 10.0 - sign * 0.1 * i + sign * d) for i, d in enumerate(changes)]

    met = lambda p, runs=10: bench_pairs.claim_met(p, runs, lower)[0]
    assert met(pairs(*[-2.0] * 10))                      # 10/10, the gain beyond the spread
    assert met(pairs(*[-2.0] * 9, 1.0))                  # 9/10
    assert met(pairs(*[-2.0] * 9, 0.0))                  # 9 wins and a tie
    assert not met(pairs(*[-2.0] * 8, 1.0, 1.0))         # 8/10
    assert not met(pairs(*[-2.0] * 8, 0.0, 0.0))         # ties count for neither side
    assert not met(pairs(*[-2.0] * 9), runs=11)          # two pairs missing a value are not won
    assert not met(pairs(*[-0.3] * 10))                  # 10/10, but within the base's spread
    assert not met([], runs=10)
    _, why = bench_pairs.claim_met(pairs(*[-2.0] * 10), 10, lower)
    assert why.startswith("change wins 10/10 pairs (needs 9)")


@pytest.mark.parametrize("claim", ["round_ms_p99@s1-m10-compare", "round_ms_p50@nope",
                                   "round_ms_p50@s3-m100-grad-partial", "round_ms_p50", ""])
def test_an_unknown_claim_is_a_usage_error_before_any_run(monkeypatch, capsys, claim):
    calls = _fake_runs(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", "HEAD", "--workload", "s1-m10-compare", "--seeds", "1-2",
                          "--claim", claim])
    assert exc.value.code == 2
    assert "give METRIC@WORKLOAD" in capsys.readouterr().err
    assert calls == []


def test_the_claim_verdict_is_printed_last_and_leaves_the_exit_code(monkeypatch, capsys):
    argv = ["--base", "HEAD", "--workload", "s1-m10-compare,s3-m100-grad-partial", "--seeds", "1-2",
            "--claim", "round_ms_p50@s1-m10-compare"]
    _fake_runs(monkeypatch, {"s1-m10-compare": {"round_ms_p50": 9.0}})
    assert bench_pairs.main(argv) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("CLAIM MET: round_ms_p50 on s1-m10-compare: change wins 2/2 pairs")

    _fake_runs(monkeypatch)  # every pair ties
    assert bench_pairs.main(argv) == 0
    assert "CLAIM NOT MET: round_ms_p50 on s1-m10-compare: change wins 0/2" in capsys.readouterr().out

    _fake_runs(monkeypatch, {"s1-m10-compare": {"round_ms_p50": 9.0},
                             "s3-m100-grad-partial": {"run_s": 20.0}})
    assert bench_pairs.main(argv) == 1   # s3's WORSE run_s still fails the command
    out = capsys.readouterr().out
    assert "WORSE" in out and "CLAIM MET" in out
