"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line with the measured values.

Criterion 4b sets an absolute error target that the trained network does
not reach: training minimizes the clients' training SSE, which sharing
nothing minimizes, so the network lands on per-client least squares
(about 0.015 test RMSE) while the target needs the shared coefficients
pooled. It is implemented exactly as stated and left to fail rather
than weakened. The sibling test next to criterion 3 runs the same
configuration under the unit dual-step convention.

The criteria that train for minutes (4a, 4b and 6 on their shared
fixture, 5 and 9) are marked `slow`; `pytest -m "not slow"` skips them.
"""

import math
import time

import numpy as np
import pytest

from conftest import make_shards, random_params

from fedunroll.baselines import run_baseline
from fedunroll.cli import main
from fedunroll.config import ExperimentConfig
from fedunroll.datagen import SettingSpec, generate_setting
from fedunroll.diagnostics import check_descent, lambda_report, trace_from_tape
from fedunroll.errors import NonFiniteInput
from fedunroll.federation import (
    full_participation,
    run_round,
    run_unrolled_experiment,
    sample_participants,
)
from fedunroll.learner import backward, fd_gradient, init_optimizer
from fedunroll.unrolled_net import (
    CellState,
    forward_network,
    init_params,
    init_state,
    phi4_global,
)

KINK_MARGIN = 1e-3
CLAMP_FLOOR = 1e-6


def criterion(num: str, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


def near_kink(field: str, value: float) -> bool:
    if field == "lam_raw":
        return abs(value) < KINK_MARGIN
    if field == "rho_raw":
        return abs(value - CLAMP_FLOOR) < KINK_MARGIN
    return False


def straight_line_cell(Xs, Ys, v0, z0, a0, w0, lam, rho, theta,
                       dual="rho_step", mode="linear", lr=0.01, steps=5):
    """Independent loop-based transcription of one layer, restated here
    so the acceptance check does not depend on the unit-test suite."""
    M, k = v0.shape
    a1 = np.empty((M, k))
    v1 = np.empty((M, k))
    z1 = np.empty((M, k))
    sa = np.empty((M, k))   # scaled multiplier alpha / step read by phi2-phi4
    for i in range(M):
        rho_i = rho[i] if rho[i] > CLAMP_FLOOR else CLAMP_FLOOR
        step = rho_i if dual == "rho_step" else 1.0
        for j in range(k):
            a1[i, j] = a0[i, j] + step * (z0[i, j] - v0[i, j] + w0[j])
            sa[i, j] = a1[i, j] / step
        if mode == "linear":
            A = Xs[i].T @ Xs[i] + rho_i * np.eye(k)
            b = rho_i * (w0 + z0[i] + sa[i]) + Xs[i].T @ Ys[i]
            v1[i] = np.linalg.solve(A, b)
        else:
            v = v0[i].copy()
            anchor = z0[i] + w0 + sa[i]
            for _ in range(steps):
                g = 2.0 * Xs[i].T @ (Xs[i] @ v - Ys[i]) + rho_i * (v - anchor)
                v = v - lr * g
            v1[i] = v
        for j in range(k):
            lam_j = lam[i, j] if lam[i, j] > 0 else 0.0
            z1[i, j] = rho_i * (v1[i, j] - w0[j] - sa[i, j]) / (lam_j + rho_i)
    # aggregation weights: the softmax of the logits, shifted by the largest
    es = [math.exp(theta[i] - max(theta)) for i in range(M)]
    S = sum(es)
    w1 = np.zeros(k)
    for i in range(M):
        w1 += (es[i] / S) * (v1[i] - z1[i] - sa[i])
    return a1, v1, z1, w1


# ---------------------------------------------------------------- 1


def test_criterion_1_reverse_pass_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240501)
    worst = 0.0
    probed = skipped = 0
    for inst in range(50):
        shards = make_shards(M=3, k=4, n=20, seed=int(rng.integers(10**6)))
        params = random_params(3, 4, 3, rng)
        seed = int(rng.integers(2**31))
        _, tape = forward_network(shards, params, L=3, seed=seed)
        grads = backward(tape, shards)
        for fieldname in ("lam_raw", "rho_raw", "p"):
            arr = getattr(params, fieldname)
            for pos in range(arr.size):
                idx = np.unravel_index(pos, arr.shape)
                if near_kink(fieldname, float(arr[idx])):
                    skipped += 1
                    continue
                an = getattr(grads, fieldname)[idx]
                # central differences at a single step size cannot resolve
                # components far below the loss scale (roundoff in the
                # difference dominates); when the default step misses the
                # bound, recheck against a coarser step — the tolerance
                # itself stays fixed
                rel = np.inf
                for h in (1e-5, 1e-4):
                    fd = fd_gradient(shards, params, (fieldname, idx), h=h, seed=seed)
                    rel = min(rel, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
                    if rel <= 5e-6:
                        break
                worst = max(worst, rel)
                probed += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    criterion(
        "1", ok,
        f"reverse pass vs central differences on 50 instances: "
        f"{probed} coordinates probed ({skipped} near-kink skipped), "
        f"worst relative error {worst:.3e} (tol 1e-5), {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------- 2


def test_criterion_2_cell_forward_matches_straight_line_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for inst in range(100):
        M = int(rng.integers(1, 5))
        k = int(rng.integers(2, 6))
        n = int(rng.integers(5, 25))
        mode = ["linear", "grad"][int(rng.integers(2))]
        dual = ["rho_step", "unit_step"][int(rng.integers(2))]
        shards = make_shards(M=M, k=k, n=n, seed=int(rng.integers(10**6)))
        params = random_params(M, k, 1, rng)
        state = CellState(
            v=rng.normal(size=(M, k)),
            z=rng.normal(size=(M, k)),
            alpha=rng.normal(size=(M, k)),
            w=rng.normal(size=k),
        )
        _, tape = forward_network(shards, params, L=1, mode=mode, dual_update=dual, state0=state)
        got = tape.cells[0]
        a1, v1, z1, w1 = straight_line_cell(
            [sh.X_train for sh in shards], [sh.Y_train for sh in shards],
            state.v, state.z, state.alpha, state.w,
            params.lam_raw[0], params.rho_raw[0], params.p[0],
            dual=dual, mode=mode,
        )
        worst = max(
            worst,
            float(np.max(np.abs(got.alpha - a1))),
            float(np.max(np.abs(got.v - v1))),
            float(np.max(np.abs(got.z - z1))),
            float(np.max(np.abs(got.w - w1))),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    criterion(
        "2", ok,
        f"layer forward vs independent transcription on 100 random "
        f"instances: worst absolute deviation {worst:.3e} (tol 1e-12), "
        f"{elapsed:.1f}s (<5s)",
    )


# ---------------------------------------------------------------- 3


def _descent_violations(dual_update: str, n_seeds: int = 20):
    per_seed = []
    for s in range(n_seeds):
        shards = generate_setting(
            SettingSpec(setting=1, M=10, n_per_client=200, seed=1000 + s)
        )
        params = init_params(10, 4, 20)
        params.rho_raw[:] = 100.0
        try:
            _, tape = forward_network(
                shards, params, L=20, dual_update=dual_update, seed=1000 + s
            )
            trace = trace_from_tape(tape)
            rep = check_descent(trace)
            per_seed.append(len(rep.violations))
        except (NonFiniteInput, FloatingPointError, OverflowError):
            per_seed.append(-1)  # blow-up counts as a descent failure
    return per_seed


def test_criterion_3_fixed_large_penalty_descent_verbatim_dual_step():
    t0 = time.perf_counter()
    per_seed = _descent_violations("rho_step")
    elapsed = time.perf_counter() - t0
    bad = sum(1 for v in per_seed if v != 0)
    ok = bad == 0
    criterion(
        "3", ok,
        f"penalty-scaled dual step, fixed penalty 100, 20 layers, 20 seeds: "
        f"{bad}/20 seeds violate monotone descent (slack 1e-9), "
        f"violations per seed {sorted(set(per_seed))}, {elapsed:.1f}s",
    )


def test_criterion_3_sibling_unit_dual_step_descends():
    # identical configuration under the unit-step dual convention; at a
    # fixed penalty both conventions give the same iterates up to rounding
    t0 = time.perf_counter()
    per_seed = _descent_violations("unit_step")
    elapsed = time.perf_counter() - t0
    bad = sum(1 for v in per_seed if v != 0)
    ok = bad == 0
    criterion(
        "3-sibling", ok,
        f"unit dual step, same configuration: {bad}/20 seeds violate "
        f"monotone descent, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- 4, 6


@pytest.fixture(scope="module")
def setting1_runs():
    t0 = time.perf_counter()
    means = {"unrolled": [], "local": [], "fedavg": []}
    trained = []
    for trial in range(5):
        seed = 42 + trial
        cfg = ExperimentConfig(
            seed=seed, setting=1, M=10, n_per_client=200, L=10, rounds=500
        )
        shards = generate_setting(
            SettingSpec(setting=1, M=10, n_per_client=200, seed=seed)
        )
        res_u = run_unrolled_experiment(cfg, shards)
        means["unrolled"].append(res_u.mean_test_rmse)
        trained.append(res_u.params)
        for method in ("local", "fedavg"):
            means[method].append(run_baseline(method, shards, cfg).mean_test_rmse)
    return {
        "per_trial": means,
        "mean": {m: float(np.mean(v)) for m, v in means.items()},
        "params": trained,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.mark.slow
def test_criterion_4a_method_ordering_on_setting_1(setting1_runs):
    m = setting1_runs["mean"]
    elapsed = setting1_runs["elapsed"]
    ok = (
        m["unrolled"] < m["local"] < m["fedavg"]
        and m["fedavg"] >= 5.0 * m["local"]
        and elapsed < 600.0
    )
    criterion(
        "4a", ok,
        f"setting 1, 5 trials, mean test rmse: unrolled {m['unrolled']:.4f} "
        f"< local {m['local']:.4f} < fedavg {m['fedavg']:.4f}, "
        f"fedavg/local ratio {m['fedavg'] / m['local']:.1f} (>=5), "
        f"{elapsed:.0f}s (<600s)",
    )


@pytest.mark.slow
def test_criterion_4b_unrolled_absolute_error_level(setting1_runs):
    m = setting1_runs["mean"]["unrolled"]
    ok = m <= 0.01
    criterion(
        "4b", ok,
        f"setting 1 unrolled mean test rmse {m:.4f} (target <= 0.01; "
        f"per-client least squares reaches ~0.015 on this benchmark, least "
        f"squares sharing coefficients 0-2 ~0.007)",
    )


@pytest.mark.slow
def test_criterion_6_consensus_weight_shrinkage_pattern(setting1_runs):
    hits = 0
    profiles = []
    for params in setting1_runs["params"]:
        prof = lambda_report(params).cross_client_mean
        profiles.append(np.round(prof, 3).tolist())
        if prof[3] < prof[0] and prof[3] < prof[1]:
            hits += 1
    ok = hits >= 4
    criterion(
        "6", ok,
        f"personal-coefficient consensus weight below shared-coefficient "
        f"weights in {hits}/5 trials (need >=4); mean weight profiles "
        f"{profiles}",
    )


# ---------------------------------------------------------------- 5


@pytest.mark.slow
def test_criterion_5_unrolled_beats_local_on_settings_2_and_3():
    t0 = time.perf_counter()
    details = []
    ok = True
    for setting in (2, 3):
        u_vals, l_vals = [], []
        for trial in range(5):
            seed = 42 + trial
            cfg = ExperimentConfig(
                seed=seed, setting=setting, M=10, n_per_client=200,
                L=10, rounds=500,
            )
            shards = generate_setting(
                SettingSpec(setting=setting, M=10, n_per_client=200, seed=seed)
            )
            u_vals.append(run_unrolled_experiment(cfg, shards).mean_test_rmse)
            l_vals.append(run_baseline("local", shards, cfg).mean_test_rmse)
        u, l = float(np.mean(u_vals)), float(np.mean(l_vals))
        ok = ok and u < l
        details.append(f"setting {setting}: unrolled {u:.4f} vs local {l:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1200.0
    criterion("5", ok, "; ".join(details) + f", {elapsed:.0f}s (<1200s)")


# ---------------------------------------------------------------- 7


def test_criterion_7_transcript_counts_scale_with_clients_and_participation():
    t0 = time.perf_counter()
    checks = []
    L = 10
    for M, n in ((10, 200), (100, 20)):
        shards = generate_setting(
            SettingSpec(setting=1, M=M, n_per_client=n, seed=17)
        )
        cfg = ExperimentConfig(seed=0, L=L, rounds=1)
        for frac in (1.0, 0.5):
            params = init_params(M, 4, L)
            opt = init_optimizer(params, kind=cfg.optimizer, lr=cfg.lr)
            state = init_state(M, 4, seed=0)
            if frac == 1.0:
                active = full_participation(M)
            else:
                active = sample_participants(M, frac, np.random.default_rng(1))
            rr = run_round(shards, params, opt, state, active, cfg, 1, 1)
            n_active = len(active)
            rr.transcript.verify(n_active=n_active, L=L)
            c = rr.transcript.counts()
            good = (
                c["client_vector"] == n_active * L
                and c["global_broadcast"] == L
                and c["loss_report"] == n_active
                and c["loss_sum_broadcast"] == 1
            )
            checks.append((M, frac, n_active, good))
    elapsed = time.perf_counter() - t0
    ok = all(g for *_, g in checks) and elapsed < 30.0
    criterion(
        "7", ok,
        "message counts and ordering verified for "
        + ", ".join(f"M={M} frac={f} ({n} active)" for M, f, n, _ in checks)
        + f", {elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------- 8


def test_criterion_8_degenerate_configurations_reduce_exactly():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    # single client: the broadcast equals that client's consensus vector
    # v - z - alpha / step (phi4 reads the scaled multiplier)
    vs, zs, As = (rng.normal(size=(1, 4)) for _ in range(3))
    _, w = phi4_global(vs - zs - As, np.array([1.0]))
    single_op = np.array_equal(w, (vs - zs - As)[0])

    shard = make_shards(M=1, k=4, n=30, seed=6)
    params1 = random_params(1, 4, 4, rng)
    _, tape = forward_network(shard, params1, L=4, seed=6)
    single_net = all(
        np.array_equal(rec.w, (rec.v - rec.z - rec.alpha / rec.step_w[:, None])[0])
        for rec in tape.cells
    )

    shards = generate_setting(SettingSpec(setting=1, M=5, n_per_client=60, seed=8))
    cfg = ExperimentConfig(seed=8, M=5, n_per_client=60, rounds=40)

    ditto0 = run_baseline("ditto", shards, cfg.replace(lambda_ditto=0.0))
    local = run_baseline("local", shards, cfg)
    d_ditto = float(np.max(np.abs(ditto0.models_raw - local.models_raw)))

    prox0 = run_baseline("fedprox", shards, cfg.replace(mu=0.0))
    favg = run_baseline("fedavg", shards, cfg)
    d_prox = float(np.max(np.abs(prox0.models_raw - favg.models_raw)))

    elapsed = time.perf_counter() - t0
    ok = single_op and single_net and d_ditto <= 1e-9 and d_prox <= 1e-9 and elapsed < 10.0
    criterion(
        "8", ok,
        f"single-client aggregation exact: op {single_op}, 4-layer net "
        f"{single_net}; ditto(0) vs local max dev {d_ditto:.1e} (<=1e-9); "
        f"fedprox(0) vs fedavg max dev {d_prox:.1e} (<=1e-9); "
        f"{elapsed:.1f}s (<10s)",
    )


# ---------------------------------------------------------------- 9


@pytest.mark.slow
def test_criterion_9_compare_pipeline_byte_deterministic(tmp_path):
    t0 = time.perf_counter()

    def invoke(sub):
        out = tmp_path / sub
        rc = main([
            "compare", "--setting", "1", "--trials", "2", "--seed", "42",
            "--out", str(out),
        ])
        return rc, out

    rc_a, a = invoke("a")
    rc_b, b = invoke("b")
    same = {
        name: (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("summary.csv", "final_rmse.csv")
    }
    elapsed = time.perf_counter() - t0
    ok = rc_a == 0 and rc_b == 0 and all(same.values())
    criterion(
        "9", ok,
        f"compare run twice (setting 1, 2 trials, seed 42, default methods "
        f"and 500 rounds): byte-identical outputs {same}, {elapsed:.0f}s",
    )
