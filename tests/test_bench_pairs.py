"""tools/bench_pairs.py: the seed list it pairs runs over, the export of
the base commit, the bound check on the medians, the comparison of
the failed operations' shares, the code-size count and its split by
line kind, the verdict on a claimed gain, the resolution of the base
ref, and the JSON file of the figures and the run's environment."""

import argparse
import importlib.util
import json
import os
import platform
import subprocess

import numpy as np

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


def test_code_size_splits_the_lines_into_code_docstring_comment_and_blank(tmp_path):
    pkg = tmp_path / "src" / "fedunroll"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        '"""Module\n\ndocstring."""\n'    # 3 docstring lines, the blank one inside included
        "\n"                              # blank
        "# a comment\n"                   # comment
        "x = 1  # code with a comment\n"  # code
        "\n"                              # blank
        "def f():\n"                      # code
        "    '''One line.'''\n"           # docstring
        "    return (\n"                  # code
        "        # inside a statement\n"  # comment
        '        "not a docstring"\n'     # code: a string inside an expression
        "    )\n"                         # code
        'y = """a\n\nb"""\n'              # 3 code lines: an assigned string
    )
    (pkg / "b.py").write_text('"""Only a docstring."""\n')
    (pkg / "notes.txt").write_text("not\ncounted\n")
    kinds = bench_pairs.line_kinds((pkg / "a.py").read_bytes())
    assert kinds == {"code": 8, "docstring": 4, "comment": 2, "blank": 2}
    assert bench_pairs.code_size(str(tmp_path)) == "17 (code 8, docstring 5, comment 2, blank 2)"
    assert bench_pairs.code_size(str(tmp_path / "empty")) == "0 (code 0, docstring 0, comment 0, blank 0)"


# the commit the stubbed git resolves every base ref to
_FAKE_COMMIT = "0123456789abcdef0123456789abcdef01234567"


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

    monkeypatch.setattr(bench_pairs, "resolve_commit", lambda ref: _FAKE_COMMIT)
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
    # the stubbed export leaves the base without modules
    assert out.count("  src/fedunroll/*.py lines: base 0 (code 0, docstring 0, comment 0, blank 0)"
                     f"  change {bench_pairs.code_size(bench_pairs.ROOT)}\n") == 2

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


def _git_in(repo, *args) -> str:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout


def test_the_base_ref_resolves_to_its_commit(tmp_path, monkeypatch):
    (tmp_path / "f.txt").write_text("x\n")
    _git_in(tmp_path, "init", "-q")
    _git_in(tmp_path, "add", "-A")
    _git_in(tmp_path, "commit", "-q", "-m", "base")
    _git_in(tmp_path, "tag", "-a", "v1", "-m", "an annotated tag")
    head = _git_in(tmp_path, "rev-parse", "HEAD").strip()
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    assert bench_pairs.resolve_commit("HEAD") == head
    assert bench_pairs.resolve_commit(head[:10]) == head
    assert bench_pairs.resolve_commit("v1") == head  # the tag's commit, not the tag object
    assert bench_pairs.resolve_commit("nope") is None
    assert bench_pairs.resolve_commit("HEAD~1") is None


def test_a_base_that_names_no_commit_is_a_usage_error_before_any_run(monkeypatch, capsys):
    calls = _fake_runs(monkeypatch)
    monkeypatch.setattr(bench_pairs, "resolve_commit", lambda ref: None)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", "nope", "--workload", "s1-m10-compare", "--seeds", "1-2"])
    assert exc.value.code == 2
    assert "--base nope: names no commit" in capsys.readouterr().err
    assert calls == []


def test_an_untracked_benchmark_file_counts_as_a_difference(tmp_path, monkeypatch):
    def git(*args):
        _git_in(tmp_path, *args)

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


def test_json_holds_the_tables_figures_and_the_claim_verdict(monkeypatch, capsys, tmp_path):
    workloads = ["s1-m10-compare", "s3-m100-grad-partial"]
    path = tmp_path / "BENCH_x.json"
    argv = ["--base", "HEAD", "--workload", ",".join(workloads), "--seeds", "1-3", "--seconds", "1",
            "--claim", "round_ms_p50@s1-m10-compare", "--json", str(path)]
    _fake_runs(monkeypatch, {"s1-m10-compare": {"round_ms_p50": 9.0},
                             "s3-m100-grad-partial": {"run_s": 20.0}})
    assert bench_pairs.main(argv) == 1
    out = capsys.readouterr().out
    doc = json.loads(path.read_text())
    assert (doc["base"], doc["seeds"], doc["seconds"], doc["exit_code"]) == ("HEAD", [1, 2, 3], 1.0, 1)
    assert doc["base_commit"] == _FAKE_COMMIT
    assert doc["environment"] == {"python": platform.python_version(), "numpy": np.__version__,
                                  "cpu_count": os.cpu_count()}
    # the stubbed export leaves the base without modules
    assert doc["code_size"] == {"base": {"lines": 0, "code": 0, "docstring": 0, "comment": 0, "blank": 0},
                                "change": bench_pairs.code_split(bench_pairs.ROOT)}
    assert list(doc["workloads"]) == workloads
    s1, s3 = (doc["workloads"][w] for w in workloads)
    assert list(s1["metrics"]) == [m["name"] for m in _declared()]
    p50 = s1["metrics"]["round_ms_p50"]
    assert (p50["unit"], p50["better"], p50["bound"]) == ("ms", "lower", 0.25)
    assert p50["base"] == {"q1": 10.0, "median": 10.0, "q3": 10.0}
    assert p50["change"] == {"q1": 9.0, "median": 9.0, "q3": 9.0}
    assert (p50["pairs"], p50["wins"], p50["ties"], p50["worse"]) == (3, 3, 0, False)
    assert p50["median_pair_change_pct"] == pytest.approx(-10.0)
    assert (s1["metrics"]["run_s"]["wins"], s1["metrics"]["run_s"]["ties"]) == (0, 3)
    run_s = s3["metrics"]["run_s"]
    assert run_s["worse"] and run_s["median_pair_change_pct"] == pytest.approx(100.0)
    assert "run_s (s): base 10 [10, 10]  change 20 [20, 20]  change wins 0/3, ties 0  WORSE" in out
    for summary in (s1, s3):
        assert summary["operations"] == {"base": {"failed": 0, "attempted": 15},
                                         "change": {"failed": 0, "attempted": 15}}
        assert summary["more_failures"] is False and summary["failed_runs"] == []
    claim = doc["claim"]
    assert (claim["metric"], claim["workload"], claim["met"]) == ("round_ms_p50", "s1-m10-compare", True)
    assert out.strip().splitlines()[-1] == f"CLAIM MET: round_ms_p50 on s1-m10-compare: {claim['why']}"

    _fake_runs(monkeypatch, change_code=1)
    assert bench_pairs.main(argv[:-4] + ["--json", str(path)]) == 1
    doc = json.loads(path.read_text())
    assert doc["claim"] is None and doc["exit_code"] == 1
    assert doc["workloads"]["s1-m10-compare"]["failed_runs"] == [
        {"side": "change", "seed": s, "exit": 1, "json_result": True, "correct": True} for s in (1, 2, 3)]
