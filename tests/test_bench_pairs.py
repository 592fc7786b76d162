"""tools/bench_pairs.py: the seed list it pairs runs over, the export of
the base commit, the bound check on the medians and the comparison of
the failed operations' shares."""

import argparse
import importlib.util
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


def test_only_a_larger_share_of_failed_operations_is_flagged():
    grew = bench_pairs.failed_share_grew  # each side: (failed, attempted)
    assert grew((0, 100), (1, 100))
    assert grew((1, 100), (1, 50))            # same count, fewer attempted
    assert not grew((1, 100), (2, 200))       # the same share
    assert not grew((2, 100), (1, 100))
    assert not grew((0, 100), (0, 120))
    assert not grew((3, 0), (0, 0))           # nothing attempted: share 0
    assert grew((0, 0), (1, 10))
