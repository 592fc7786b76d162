"""The benchmark's workloads, its timed loop and its metrics.

A run repeats whole passes of one workload until `--seconds` have gone
by and at least `min_passes` passes are done. A pass generates one data
instance, then trains on it through the library's public entry points:
`federation.run_unrolled_experiment`, followed on the comparison
workload by `baselines.run_baseline` for the seven baselines, the same
calls `fedunroll compare` makes. Pass p of a run with seed s uses data
seed 1000 * s + p, so a seed fixes every input of the run.

An operation is one training round of the unrolled run or one baseline
run. An operation fails when its round diverged, its run raised, or a
correctness check on its output did not hold.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

import numpy as np

import bench_checks as checks
from bench_calibration import speed_factor
from bench_tracing import LAYERS, Tracer, instrument, self_times_ns

BASELINES = ("local", "local_exact", "fedavg", "fedprox", "fedavg_ft", "fedprox_ft", "ditto")
SETUP_REPEATS = 9
# Fixed minibatch stream for the grad-mode finite-difference check: every
# probe draws the same batches, so the loss is a deterministic function.
FD_BATCH_SEED = 0xFD


@dataclass(frozen=True)
class Workload:
    name: str
    setting: int
    M: int
    n_per_client: int
    mode: str
    policy: str
    participation: float
    rounds: int          # unrolled rounds per pass
    min_passes: int      # passes every run makes; test_rmse averages over them
    quality_multiple: float  # allowed test RMSE over per-client least squares
    baselines: Tuple[str, ...] = ()
    batch_size: int = 64
    L: int = 10

    def config(self, data_seed: int, rounds: int):
        from fedunroll import ExperimentConfig

        return ExperimentConfig(
            setting=self.setting,
            M=self.M,
            n_per_client=self.n_per_client,
            seed=data_seed,
            L=self.L,
            rounds=rounds,
            mode=self.mode,
            policy=self.policy,
            participation=self.participation,
            batch_size=self.batch_size,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("s1-m10-compare", setting=1, M=10, n_per_client=200, mode="linear",
                 policy="exact", participation=1.0, rounds=25, min_passes=20,
                 quality_multiple=2.5, baselines=BASELINES),
        Workload("s2-m100-fedlocal", setting=2, M=100, n_per_client=20, mode="linear",
                 policy="federated_local", participation=1.0, rounds=4, min_passes=6,
                 quality_multiple=3.0),
        Workload("s3-m100-grad-partial", setting=3, M=100, n_per_client=200, mode="grad",
                 policy="exact", participation=0.3, rounds=30, min_passes=5,
                 quality_multiple=4.0),
    )
}


@dataclass
class PassResult:
    index: int
    data_seed: int
    shards: list
    train_s: float       # as measured
    speed: float         # factor to the reference speed (bench_calibration)
    rounds: int
    traced: bool
    unrolled: object = None            # ExperimentResult, or None if it raised
    baselines: Dict[str, object] = field(default_factory=dict)  # method -> result or None
    errors: List[str] = field(default_factory=list)
    unrolled_ok: bool = True
    baseline_ok: Dict[str, bool] = field(default_factory=dict)
    round_ms: Optional[np.ndarray] = None  # kept by `release`
    test_rmse: float = math.nan            # kept by `release`

    def release(self) -> None:
        """Keep the figures the metrics need and drop the shards and the
        trained models, so that the process holds one pass's data at a
        time and its peak memory does not grow with the number of passes."""
        self.round_ms = _round_times_ms(self)
        if self.unrolled is not None:
            self.test_rmse = self.unrolled.mean_test_rmse
        self.shards, self.unrolled, self.baselines = None, None, {}


def data_seed(seed: int, pass_index: int) -> int:
    return 1000 * seed + pass_index


def run_pass(w: Workload, seed: int, index: int, rounds: int, tracer: Optional[Tracer] = None) -> PassResult:
    """Generate one data instance and run the workload's training calls."""
    from fedunroll import SettingSpec, baselines, datagen, federation
    from fedunroll.errors import FedunrollError

    ds = data_seed(seed, index)
    cfg = w.config(ds, rounds)
    shards = datagen.generate_setting(
        SettingSpec(setting=w.setting, M=w.M, n_per_client=w.n_per_client, seed=ds))
    before = Counter(tracer.counts) if tracer is not None else None
    errors = []
    speed_before = speed_factor()
    t0 = time.perf_counter()
    try:
        unrolled = federation.run_unrolled_experiment(cfg, shards)
    except (FedunrollError, ArithmeticError) as exc:
        unrolled = None
        errors.append(f"unrolled raised {exc!r}")
    if tracer is not None:
        tracer.unrolled_counts.update(Counter(tracer.counts) - before)
    results = {}
    for method in w.baselines:
        try:
            results[method] = baselines.run_baseline(method, shards, cfg)
        except (FedunrollError, ArithmeticError) as exc:
            results[method] = None
            errors.append(f"{method} raised {exc!r}")
    train_s = time.perf_counter() - t0
    speed = (speed_before + speed_factor()) / 2.0
    return PassResult(index=index, data_seed=ds, shards=shards, train_s=train_s, speed=speed,
                      rounds=rounds, traced=tracer is not None, unrolled=unrolled,
                      baselines=results, errors=errors)


def check_pass(w: Workload, pres: PassResult) -> None:
    """Run the per-pass checks, marking failed operations on `pres`."""
    res = pres.unrolled
    if res is None:
        pres.unrolled_ok = False
    else:
        try:
            checks.check_rounds_finite("unrolled", res.records, res.diverged)
            if len(res.records) != pres.rounds:
                raise checks.CheckFailed(f"unrolled: {len(res.records)} records for {pres.rounds} rounds")
            checks.check_reported_rmse("unrolled", res.models_raw, res.per_client_test_rmse, pres.shards)
            checks.check_quality(res.mean_test_rmse, pres.shards, w.quality_multiple)
        except checks.CheckFailed as exc:
            pres.unrolled_ok = False
            pres.errors.append(f"pass {pres.index}: {exc}")
    for method, b in pres.baselines.items():
        ok = b is not None
        if ok:
            try:
                checks.check_reported_rmse(method, b.models_raw, b.per_client_test_rmse, pres.shards)
                if method == "local_exact":
                    checks.check_local_exact(b.models_raw, pres.shards)
                if method in ("fedavg", "fedprox"):
                    checks.check_shared_model(method, b.models_raw)
            except checks.CheckFailed as exc:
                ok = False
                pres.errors.append(f"pass {pres.index}: {exc}")
        pres.baseline_ok[method] = ok


def check_gradients(w: Workload, pres: PassResult) -> None:
    """Reverse pass against central differences at the trained parameters
    and, under federated_local, policy agreement with one active client.
    A failure marks the pass's unrolled rounds failed."""
    from fedunroll import learner, unrolled_net

    res = pres.unrolled
    if res is None:
        return
    cfg = w.config(pres.data_seed, pres.rounds)
    shards, params = pres.shards, res.params

    def forward(p, client_indices=None):
        kw = dict(L=cfg.L, mode=cfg.mode, dual_update=cfg.dual_update, seed=cfg.seed,
                  client_indices=client_indices)
        if cfg.mode == "grad":
            kw.update(batch_rng=np.random.default_rng(FD_BATCH_SEED), batch_size=cfg.batch_size)
        return unrolled_net.forward_network(shards, p, **kw)

    everyone = np.arange(len(shards))
    try:
        _, tape = forward(params)
        grads = learner.backward(tape, shards, policy="exact")
        coords = checks.fd_coordinates(params, grads)
        checks.check_gradient_fd(lambda p: checks.sse(forward(p)[0], shards, everyone),
                                 params, grads, coords)
        if w.policy == "federated_local":
            one = np.array([pres.data_seed % len(shards)])
            _, tape1 = forward(params, one)
            checks.check_same_gradient(learner.backward(tape1, shards, policy="exact"),
                                       learner.backward(tape1, shards, policy="federated_local"))
    except checks.CheckFailed as exc:
        pres.unrolled_ok = False
        pres.errors.append(f"pass {pres.index} gradient: {exc}")


def measure_setup(w: Workload, seed: int, src_dir: str, repeats: int) -> List[float]:
    """Seconds from `import fedunroll` through generating the shards, each
    in a fresh interpreter (so the import is really paid), at the
    reference speed."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import fedunroll\n"
        "fedunroll.generate_setting(fedunroll.SettingSpec(setting=int(sys.argv[2]), M=int(sys.argv[3]),"
        " n_per_client=int(sys.argv[4]), seed=int(sys.argv[5])))\n"
        "print(time.perf_counter() - t0)\n"
    )
    out = []
    for r in range(repeats):
        speed_before = speed_factor()
        proc = subprocess.run(
            [sys.executable, "-c", code, src_dir, str(w.setting), str(w.M), str(w.n_per_client),
             str(data_seed(seed, r))],
            capture_output=True, text=True, timeout=60, check=True,
        )
        speed = (speed_before + speed_factor()) / 2.0
        out.append(float(proc.stdout.strip().splitlines()[-1]) * speed)
    return out


def _round_times_ms(pres: PassResult) -> np.ndarray:
    """The pass's per-round times from its `wall_ms` records, at the
    reference speed."""
    if pres.unrolled is None or not pres.unrolled.records:
        return np.array([math.nan])
    wall = np.array([r.wall_ms for r in pres.unrolled.records], dtype=np.float64)
    return np.diff(wall, prepend=0.0) * pres.speed


def end_to_end_metrics(passes: List[PassResult], setup: List[float], quality_passes: int) -> Dict[str, tuple]:
    rounds_ms = [pres.round_ms for pres in passes]
    quality = [pres.test_rmse for pres in passes[:quality_passes]]
    return {
        "setup_s": (median(setup), "s"),
        "run_s": (median(pres.train_s * pres.speed for pres in passes), "s"),
        "round_ms_p50": (float(np.median(np.concatenate(rounds_ms))), "ms"),
        # per pass, then the median over passes: a burst of machine noise
        # that slows one pass then moves the tail of that pass only
        "round_ms_p95": (float(np.median([np.percentile(r, 95) for r in rounds_ms])), "ms"),
        "test_rmse": (float(np.mean(quality)), "rmse"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(passes: List[PassResult], tracer: Tracer) -> Dict[str, tuple]:
    traced = [pres for pres in passes if pres.traced]
    rounds = sum(pres.rounds for pres in traced)
    table = tracer.table()
    names, parents = table["name"], table["parent"]
    # span times at the reference speed of the pass they ran in
    speed = np.array([pres.speed for pres in passes])[table["trace_id"]]
    dur = (table["end_ns"] - table["start_ns"]) * speed / 1e6
    own = self_times_ns(table) * speed / 1e6
    in_unrolled = np.zeros(len(names), dtype=bool)
    for i, name in enumerate(names):
        in_unrolled[i] = name == "federation.run_unrolled_experiment" or (
            parents[i] >= 0 and in_unrolled[parents[i]])

    def per_round(name, values=dur, mask=None):
        sel = names == name
        if mask is not None:
            sel &= mask
        return float(values[sel].sum()) / rounds

    def per_call(name):
        return float(np.median(dur[names == name]))

    samples = np.asarray(tracer.round_samples, dtype=np.float64).reshape(-1, 3)
    ucounts = tracer.unrolled_counts
    eval_parent = np.zeros(len(names), dtype=bool)
    has_parent = parents >= 0
    eval_parent[has_parent] = names[parents[has_parent]] == "federation.run_unrolled_experiment"

    m: Dict[str, tuple] = {
        "datagen.generate_setting_ms": (per_call("datagen.generate_setting"), "ms"),
        "unrolled_net.forward_network_ms": (per_round("unrolled_net.forward_network"), "ms"),
        "unrolled_net.forward_cell_calls": (
            tracer.counts["unrolled_net.forward_cell_calls"] / rounds, "count"),
        "unrolled_net.client_cells": (tracer.counts["unrolled_net.client_cells"] / rounds, "count"),
        "unrolled_net.tape_bytes": (float(np.median(samples[:, 0])), "bytes"),
        "learner.backward_ms": (per_round("learner.backward"), "ms"),
        "learner.optimizer_step_ms": (per_round("learner.optimizer_step"), "ms"),
        "diagnostics.lagrangian_ms": (per_round("diagnostics.lagrangian"), "ms"),
        "federation.run_round_ms": (per_round("federation.run_round"), "ms"),
        "federation.run_round_self_ms": (per_round("federation.run_round", own), "ms"),
        "federation.transcript_verify_ms": (per_round("federation.transcript_verify"), "ms"),
        "federation.messages_per_round": (float(samples[:, 1].sum()) / rounds, "count"),
        "federation.payload_bytes_per_round": (float(samples[:, 2].sum()) / rounds, "bytes"),
        "baselines.evaluate_models_ms": (per_round("baselines.evaluate_models", mask=eval_parent), "ms"),
    }
    for method in BASELINES:
        times = [dur[sid] for sid, mth in tracer.baseline_methods.items() if mth == method]
        m[f"baselines.run_baseline_ms.{method}"] = (float(np.median(times)) if times else 0.0, "ms")
    for fn in ("as_vector", "spd_cholesky", "chol_solve"):
        key = f"math_core.{fn}"
        count = ucounts[key] if fn == "as_vector" else int(np.sum((names == key) & in_unrolled))
        m[f"{key}_calls"] = (count / rounds, "count")
    layer_of = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_pass"] = (float(own[layer_of == layer].sum()) / len(traced), "ms")
    # traced pass 2i+1 repeats untraced pass 2i on the same data
    pairs = [(b.train_s * b.speed, a.train_s * a.speed) for a, b in zip(passes[0::2], passes[1::2])]
    m["trace.overhead_s"] = (median(t - u for t, u in pairs), "s")
    m["trace.overhead_pct"] = (median(100.0 * (t - u) / u for t, u in pairs), "%")
    m["trace.spans_per_pass"] = (len(tracer.spans) / len(traced), "count")
    return m


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    src_dir: str,
    out_dir: Optional[str] = None,
    rounds: Optional[int] = None,
    min_passes: Optional[int] = None,
    setup_repeats: int = SETUP_REPEATS,
    log=print,
) -> dict:
    """Run one workload and return the result object the command prints."""
    w = WORKLOADS[name]
    rounds = w.rounds if rounds is None else rounds
    min_passes = w.min_passes if min_passes is None else min_passes
    if trace:
        min_passes = max(2, min_passes)

    setup = [] if trace else measure_setup(w, seed, src_dir, setup_repeats)

    # warm-up on an instance no pass uses; not timed and not counted
    run_pass(w, seed + 10**6, 0, 1)

    tracer = Tracer() if trace else None
    passes: List[PassResult] = []
    t_start = time.perf_counter()
    while (len(passes) < min_passes or time.perf_counter() - t_start < seconds
           or (trace and len(passes) % 2 == 1)):
        p = len(passes)
        if not trace:
            pres = run_pass(w, seed, p, rounds)
        elif p % 2 == 0:
            pres = run_pass(w, seed, p // 2, rounds)
        else:
            tracer.trace_id = p
            with instrument(tracer):
                pres = run_pass(w, seed, p // 2, rounds, tracer)
        # checked as soon as it ends, outside its timing, then released
        check_pass(w, pres)
        if p == 0:
            check_gradients(w, pres)
        pres.release()
        passes.append(pres)
    elapsed = time.perf_counter() - t_start

    attempted = failed = 0
    errors = []
    for pres in passes:
        attempted += pres.rounds + len(w.baselines)
        if not pres.unrolled_ok:
            failed += pres.rounds
        failed += sum(1 for ok in pres.baseline_ok.values() if not ok)
        errors.extend(pres.errors)

    if trace:
        metrics = per_layer_metrics(passes, tracer)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            tracer.write_spans(os.path.join(out_dir, f"spans_{name}.csv"))
    else:
        metrics = end_to_end_metrics(passes, setup, min_passes)

    log(f"workload {name} seed {seed} trace {int(trace)}: {len(passes)} passes x {rounds} rounds"
        f"{' + ' + str(len(w.baselines)) + ' baseline runs' if w.baselines else ''} in {elapsed:.1f} s;"
        f" times at reference speed, median speed factor {median(pres.speed for pres in passes):.3f},"
        f" unscaled median pass {median(pres.train_s for pres in passes):.3f} s")
    for err in errors:
        log(f"FAILED {err}")
    for key, (value, unit) in metrics.items():
        log(f"  {key:42s} {value:14.6g} {unit}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
