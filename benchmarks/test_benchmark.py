"""Tests of the benchmark itself: short runs of every workload, the
metric names against BENCHMARK.json, and one corrupted output per
correctness check, so that no check passes vacuously."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import bench_checks as checks  # noqa: E402
from bench_tracing import Tracer, instrument  # noqa: E402
from bench_workloads import WORKLOADS, run_benchmark  # noqa: E402

from fedunroll import (  # noqa: E402
    ExperimentConfig,
    SettingSpec,
    backward,
    forward_network,
    generate_setting,
    federation,
    math_core,
    run_baseline,
    run_unrolled_experiment,
    unrolled_net,
)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def _quiet(*_args):
    pass


# Short runs: fewer rounds and passes than the real workloads, enough
# rounds that the quality check holds on the chosen seed.
SHORT = {"s1-m10-compare": 3, "s2-m100-fedlocal": 2, "s3-m100-grad-partial": 30}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_completes_and_checks_pass(name):
    res = run_benchmark(name, seed=2, seconds=0, trace=False, src_dir=SRC, rounds=SHORT[name],
                        min_passes=1, setup_repeats=1, log=_quiet)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == SHORT[name] + len(WORKLOADS[name].baselines)
    assert list(res["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_restores_the_program(tmp_path):
    res = run_benchmark("s1-m10-compare", seed=2, seconds=0, trace=True, src_dir=SRC,
                        out_dir=str(tmp_path), rounds=2, min_passes=2, log=_quiet)
    assert res["correct"]
    assert sorted(res["metrics"]) == sorted(_declared("per_layer"))
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    # 10 layers x 2 epochs x 10 clients per round
    assert metrics["unrolled_net.forward_cell_calls"] == 20
    assert metrics["unrolled_net.client_cells"] == 200
    assert metrics["math_core.spd_cholesky_calls"] == 200
    with open(tmp_path / "spans_s1-m10-compare.csv") as fh:
        header, first = fh.readline().strip(), fh.readline()
    assert header == "span_id,parent_id,trace_id,name,start_ns,end_ns" and first
    for fn in (math_core.as_vector, unrolled_net.forward_cell, federation.run_round,
               federation.Transcript.verify):
        assert not hasattr(fn, "__wrapped__")


def test_self_time_subtracts_children():
    tracer = Tracer()
    from bench_tracing import self_times_ns

    tracer.spans.extend([(1, 0, 0, "b", 20, 50), (2, 0, 0, "c", 60, 70), (0, -1, 0, "a", 0, 100)])
    np.testing.assert_array_equal(self_times_ns(tracer.table()), [60, 30, 10])


def test_instrument_restores_functions_after_an_error():
    original = math_core.chol_solve
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            assert math_core.chol_solve is not original
            raise RuntimeError
    assert math_core.chol_solve is original


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "s1-m10-compare", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# every check rejects a corrupted output


@pytest.fixture(scope="module")
def small():
    cfg = ExperimentConfig(setting=1, M=4, n_per_client=60, seed=5, rounds=5, L=3)
    shards = generate_setting(SettingSpec(setting=1, M=4, n_per_client=60, seed=5))
    return cfg, shards, run_unrolled_experiment(cfg, shards)


def test_reported_rmse_check_rejects_a_perturbed_model_row(small):
    cfg, shards, res = small
    checks.check_reported_rmse("unrolled", res.models_raw, res.per_client_test_rmse, shards)
    bad = res.models_raw.copy()
    bad[2, 1] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_reported_rmse("unrolled", bad, res.per_client_test_rmse, shards)


def test_round_check_rejects_divergence_and_non_finite_records(small):
    cfg, shards, res = small
    checks.check_rounds_finite("unrolled", res.records, res.diverged)
    with pytest.raises(checks.CheckFailed):
        checks.check_rounds_finite("unrolled", res.records, True)
    bad = [r for r in res.records]
    bad[-1] = type(bad[-1])(**{**vars(bad[-1]), "loss_sum": float("nan")})
    with pytest.raises(checks.CheckFailed):
        checks.check_rounds_finite("unrolled", bad, False)


def test_quality_check_rejects_pooled_level_and_far_from_local(small):
    cfg, shards, res = small
    pooled, local = checks.least_squares_rmse(shards)
    checks.check_quality(res.mean_test_rmse, shards, multiple=2.5)
    with pytest.raises(checks.CheckFailed):
        checks.check_quality(pooled, shards, multiple=1e9)
    with pytest.raises(checks.CheckFailed):
        checks.check_quality(3.0 * local, shards, multiple=2.5)


@pytest.fixture(scope="module")
def gradients(small):
    cfg, shards, res = small
    forward = dict(L=cfg.L, seed=11)
    _, tape = forward_network(shards, res.params, **forward)
    grads = backward(tape, shards, policy="exact")

    def loss_at(p):
        return checks.sse(forward_network(shards, p, **forward)[0], shards, range(len(shards)))

    return res.params, grads, loss_at, tape


def _negated(grads):
    out = type(grads)(**{f: getattr(grads, f).copy() for f in checks.PARAM_FIELDS})
    for f in checks.PARAM_FIELDS:
        getattr(out, f)[...] *= -1.0
    return out


def test_fd_check_rejects_a_sign_flipped_gradient(gradients):
    params, grads, loss_at, _ = gradients
    coords = checks.fd_coordinates(params, grads)
    assert len(coords) == 2 * len(checks.PARAM_FIELDS)
    assert checks.check_gradient_fd(loss_at, params, grads, coords) <= checks.FD_TOL
    with pytest.raises(checks.CheckFailed):
        checks.check_gradient_fd(loss_at, params, _negated(grads), coords)


def test_policy_check_rejects_differing_gradients(small, gradients):
    cfg, shards, res = small
    _, grads, _, tape = gradients
    _, one = forward_network(shards, res.params, L=cfg.L, seed=11, client_indices=np.array([1]))
    checks.check_same_gradient(backward(one, shards, "exact"), backward(one, shards, "federated_local"))
    # with every client active the policies differ by design
    with pytest.raises(checks.CheckFailed):
        checks.check_same_gradient(grads, backward(tape, shards, "federated_local"))
    with pytest.raises(checks.CheckFailed):
        checks.check_same_gradient(grads, _negated(grads))


def test_local_exact_check_rejects_a_perturbed_row(small):
    cfg, shards, _ = small
    models = run_baseline("local_exact", shards, cfg).models_raw
    checks.check_local_exact(models, shards)
    bad = models.copy()
    bad[0, 3] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_local_exact(bad, shards)


@pytest.mark.parametrize("method", ["fedavg", "fedprox"])
def test_shared_model_check_rejects_a_client_that_differs(small, method):
    cfg, shards, _ = small
    models = run_baseline(method, shards, cfg).models_raw
    checks.check_shared_model(method, models)
    bad = models.copy()
    bad[3, 0] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.check_shared_model(method, bad)
    # a personalized method is not a shared model
    with pytest.raises(checks.CheckFailed):
        checks.check_shared_model("local", run_baseline("local", shards, cfg).models_raw)
