"""Reference methods: standardization, exact solver, trainers and their
defining equalities, and the client-batched trainers against a
per-client training loop, and the divergence rule the baselines share
with the unrolled driver."""

import numpy as np
import pytest

from conftest import count_calls, make_shards, make_uneven_shards, overflow_evaluation_from_call

from fedunroll import baselines
from fedunroll.baselines import (
    GD_METHODS,
    RunResult,
    Standardizer,
    evaluate_models,
    evaluation_rows,
    local_exact,
    run_baseline,
)
from fedunroll.config import ExperimentConfig
from fedunroll.datagen import DataShard
from fedunroll.errors import InvalidSetting, NonFiniteInput
from fedunroll.math_core import design_matrix


def small_cfg(**kw) -> ExperimentConfig:
    base = dict(seed=0, rounds=50, local_epochs=2, baseline_lr=0.01)
    base.update(kw)
    return ExperimentConfig(**base)


class TestStandardizer:
    def test_prediction_preserved_by_raw_mapping(self):
        rng = np.random.default_rng(0)
        X = design_matrix(rng.uniform(-1, 1, 40), 3)
        std = Standardizer.fit(X)
        vs = rng.normal(size=4)
        raw = std.to_raw(vs)
        assert np.allclose(std.apply(X) @ vs, X @ raw, atol=1e-10)

    def test_columns_standardized(self):
        rng = np.random.default_rng(1)
        X = design_matrix(rng.uniform(-1, 1, 500), 3)
        Xs = Standardizer.fit(X).apply(X)
        assert np.allclose(Xs[:, 0], 1.0)          # intercept untouched
        assert np.allclose(Xs[:, 1:].mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Xs[:, 1:].std(axis=0), 1.0, atol=1e-12)

    def test_no_constant_column_scales_only(self):
        rng = np.random.default_rng(2)
        X = rng.normal(loc=3.0, size=(30, 3))
        std = Standardizer.fit(X)
        assert std.intercept_col is None
        assert np.array_equal(std.mu, np.zeros(3))
        vs = rng.normal(size=3)
        assert np.allclose(std.apply(X) @ vs, X @ std.to_raw(vs), atol=1e-10)

    def test_raw_mapping_of_a_model_stack_matches_each_row_bitwise(self):
        rng = np.random.default_rng(3)
        std = Standardizer.fit(design_matrix(rng.uniform(-1, 1, 50), 3))
        V = rng.normal(size=(6, 4))
        raw = std.to_raw(V)
        for i in range(6):
            assert np.array_equal(raw[i], std.to_raw(V[i]))

    def test_identity_map(self):
        std = Standardizer.identity(3)
        X = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert np.array_equal(std.apply(X), X)
        assert np.array_equal(std.to_raw(np.ones(3)), np.ones(3))


class TestExactSolver:
    def test_matches_lstsq(self):
        shards = make_shards(M=3, n=30, seed=5)
        for sh in shards:
            got = local_exact(sh)
            want, *_ = np.linalg.lstsq(sh.X_train, sh.Y_train, rcond=None)
            assert np.allclose(got, want, atol=1e-8)

    def test_recovers_noiseless_coefficients(self):
        shards = make_shards(M=2, n=25, seed=6, noise=0.0)
        for sh in shards:
            assert np.allclose(local_exact(sh), sh.gt_coeffs, atol=1e-9)

    def test_result_record_shape(self):
        shards = make_shards(M=4, seed=7)
        res = run_baseline("local_exact", shards, small_cfg())
        assert isinstance(res, RunResult)
        assert res.models_raw.shape == (4, 4)
        assert len(res.records) == 1
        assert res.records[0].round == 0


class TestTrainers:
    def test_local_gd_approaches_exact_solution(self):
        shards = make_shards(M=3, n=60, seed=8)
        res = run_baseline("local", shards, small_cfg(rounds=5000))
        exact = np.stack([local_exact(sh) for sh in shards])
        _, te_exact = evaluate_models(exact, *evaluation_rows(shards))
        assert abs(res.mean_test_rmse - te_exact.mean()) < 1e-4

    def test_fedavg_homogeneous_noiseless_converges(self):
        # identical ground truth and no noise: the averaged model can
        # fit every client exactly, so the error goes to numerical zero
        rng = np.random.default_rng(9)
        c = rng.uniform(-1, 1, 4)
        shards = []
        for i in range(5):
            X = design_matrix(rng.uniform(-1, 1, 60), 3)
            Xt = design_matrix(rng.uniform(-1, 1, 10), 3)
            shards.append(
                DataShard(
                    client_id=i + 1, X_train=X, Y_train=X @ c,
                    X_test=Xt, Y_test=Xt @ c, gt_coeffs=c.copy(),
                )
            )
        res = run_baseline("fedavg", shards, small_cfg(rounds=4500))
        assert res.mean_test_rmse < 1e-6

    def test_fedprox_zero_mu_equals_fedavg(self):
        shards = make_shards(M=4, n=40, seed=10)
        ra = run_baseline("fedavg", shards, small_cfg(), keep_trajectory=True)
        rp = run_baseline("fedprox", shards, small_cfg(mu=0.0), keep_trajectory=True)
        assert np.max(np.abs(ra.trajectory - rp.trajectory)) <= 1e-9

    def test_ditto_zero_coupling_equals_local(self):
        shards = make_shards(M=4, n=40, seed=11)
        rl = run_baseline("local", shards, small_cfg(), keep_trajectory=True)
        rd = run_baseline(
            "ditto", shards, small_cfg(lambda_ditto=0.0), keep_trajectory=True
        )
        assert np.max(np.abs(rl.trajectory - rd.trajectory)) <= 1e-9

    def test_fedprox_nonzero_mu_differs(self):
        shards = make_shards(M=3, n=30, seed=12)
        ra = run_baseline("fedavg", shards, small_cfg(), keep_trajectory=True)
        rp = run_baseline("fedprox", shards, small_cfg(mu=0.5), keep_trajectory=True)
        assert not np.allclose(ra.trajectory, rp.trajectory, atol=1e-12)

    def test_finetuned_variant_moves_off_global(self):
        shards = make_shards(M=3, n=40, seed=13)
        rg = run_baseline("fedavg", shards, small_cfg(rounds=100))
        rf = run_baseline("fedavg_ft", shards, small_cfg(rounds=100, ft_epochs=50))
        assert not np.allclose(rf.models_raw, rg.models_raw, atol=1e-12)
        assert rf.models_raw.std(axis=0).max() > 1e-6  # personalized now

    def test_global_methods_share_one_model(self):
        shards = make_shards(M=3, n=30, seed=14)
        res = run_baseline("fedavg", shards, small_cfg())
        assert np.array_equal(res.models_raw[0], res.models_raw[1])
        assert np.array_equal(res.models_raw[0], res.models_raw[2])

    def test_record_cadence_one_row_per_round(self):
        shards = make_shards(M=2, n=20, seed=15)
        for method in ("local", "fedavg", "fedavg_ft", "ditto"):
            res = run_baseline(method, shards, small_cfg(rounds=7))
            assert len(res.records) == 7, method
            assert [r.round for r in res.records] == list(range(1, 8)), method

    def test_zero_rounds_initial_evaluation_only(self):
        shards = make_shards(M=2, n=20, seed=16)
        res = run_baseline("local", shards, small_cfg(rounds=0))
        assert len(res.records) == 1
        assert res.records[0].round == 0

    def test_deterministic_rerun(self):
        shards = make_shards(M=3, n=30, seed=17)
        a = run_baseline("ditto", shards, small_cfg())
        b = run_baseline("ditto", shards, small_cfg())
        assert np.array_equal(a.models_raw, b.models_raw)
        assert a.mean_test_rmse == b.mean_test_rmse

    def test_minibatch_mode_runs_deterministically(self):
        shards = make_shards(M=2, n=40, seed=18)
        cfg = small_cfg(baseline_batch=16)
        a = run_baseline("local", shards, cfg)
        b = run_baseline("local", shards, cfg)
        assert np.array_equal(a.models_raw, b.models_raw)

    def test_standardization_off_hurts_conditioning(self):
        shards = make_shards(M=2, n=200, seed=19)
        on = run_baseline("local", shards, small_cfg(rounds=800))
        off = run_baseline("local", shards, small_cfg(rounds=800, standardize=False))
        assert on.mean_test_rmse < off.mean_test_rmse

    def test_unknown_method_rejected(self):
        shards = make_shards(M=2, seed=20)
        with pytest.raises(InvalidSetting):
            run_baseline("magic", shards, small_cfg())

    def test_per_client_rmse_vector(self):
        shards = make_shards(M=4, seed=21)
        res = run_baseline("local", shards, small_cfg())
        assert res.per_client_test_rmse.shape == (4,)
        assert res.mean_test_rmse == pytest.approx(res.per_client_test_rmse.mean())


# ---------------------------------------------------------------------------
# the per-client training loop the client-batched trainers replace, kept
# as a test-only oracle


def _oracle_mean_grad(X, Y, v):
    return (2.0 / X.shape[0]) * (X.T @ (X @ v - Y))


def _oracle_minibatches(rng, Xs, Ys, batch):
    """Every client's minibatch for one gradient step: clients in order,
    each drawing client keys its rows by uniforms from the one stream
    and takes its rows of the `batch` smallest keys."""
    out = []
    for X, Y in zip(Xs, Ys):
        if batch is None or batch >= X.shape[0]:
            out.append((X, Y))
        else:
            b = np.argsort(rng.random(X.shape[0]))[:batch]
            out.append((X[b], Y[b]))
    return out


def _oracle_run(method, shards, cfg):
    """Train one GD method client by client. Returns the final raw models,
    (round, epoch, models) per metrics record, and the trajectory."""
    M, k = len(shards), shards[0].X_train.shape[1]
    if cfg.standardize:
        std = Standardizer.fit(np.vstack([sh.X_train for sh in shards]))
    else:
        std = Standardizer.identity(k)
    Xs = [std.apply(sh.X_train) for sh in shards]
    Ys = [sh.Y_train for sh in shards]
    n = np.array([x.shape[0] for x in Xs], dtype=np.float64)
    agg_w = n / n.sum()
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed or 0), 0xBA7C]))
    batch, lr = cfg.baseline_batch, cfg.baseline_lr
    w = np.zeros(k)
    v = np.zeros((M, k))

    def models():
        if method in ("local", "ditto"):
            return np.stack([std.to_raw(v[i]) for i in range(M)])
        return np.tile(std.to_raw(w), (M, 1))

    def gd(V, epochs, pull=0.0, anchor=None):
        for _ in range(epochs):
            for i, (Xb, Yb) in enumerate(_oracle_minibatches(rng, Xs, Ys, batch)):
                g = _oracle_mean_grad(Xb, Yb, V[i])
                if anchor is not None:
                    g = g + pull * (V[i] - anchor)
                V[i] -= lr * g

    history, traj = [], []
    for rnd in range(1, cfg.rounds + 1):
        if method == "local":
            gd(v, cfg.local_epochs)
        else:
            updated = np.tile(w, (M, 1))
            prox = method in ("fedprox", "fedprox_ft")
            gd(updated, cfg.local_epochs, cfg.mu, w if prox else None)
            if method == "ditto":
                gd(v, cfg.local_epochs, cfg.lambda_ditto, w)
            w = agg_w @ updated
        history.append((rnd, cfg.local_epochs, models()))
        traj.append(models())
    if method in ("fedavg_ft", "fedprox_ft"):
        v = np.tile(w, (M, 1))
        gd(v, cfg.ft_epochs)
        final = np.stack([std.to_raw(v[i]) for i in range(M)])
        history[-1:] = [(cfg.rounds, cfg.local_epochs + cfg.ft_epochs, final)]
        return final, history, traj + [final]
    if not history:
        history.append((0, 0, models()))
    return models(), history, traj


def _oracle_cfg(**kw):
    return small_cfg(rounds=12, ft_epochs=3, mu=0.3, lambda_ditto=0.5, **kw)


class TestBatchedTrainersAgainstPerClientOracle:
    @pytest.mark.parametrize("batch", [None, 16])
    @pytest.mark.parametrize("method", GD_METHODS)
    def test_equal_shards_bitwise(self, method, batch):
        shards = make_shards(M=4, n=40, seed=22)
        cfg = _oracle_cfg(baseline_batch=batch)
        res = run_baseline(method, shards, cfg, keep_trajectory=True)
        final, history, traj = _oracle_run(method, shards, cfg)
        assert np.array_equal(res.models_raw, final)
        train, test = evaluation_rows(shards)
        assert len(res.records) == len(history)
        for rec, (rnd, epoch, models) in zip(res.records, history):
            tr, te = evaluate_models(models, train, test)
            assert (rec.round, rec.epoch) == (rnd, epoch)
            assert rec.train_rmse == float(tr.mean()) and rec.test_rmse == float(te.mean())
        assert np.array_equal(res.trajectory, np.stack(traj))

    @pytest.mark.parametrize("batch", [None, 8])
    @pytest.mark.parametrize("method", GD_METHODS)
    def test_uneven_shards_agree(self, method, batch):
        shards = make_uneven_shards([30, 6, 12, 25], seed=23)
        cfg = _oracle_cfg(baseline_batch=batch)
        res = run_baseline(method, shards, cfg)
        final, _, _ = _oracle_run(method, shards, cfg)
        assert np.max(np.abs(res.models_raw - final)) <= 1e-12 * np.max(np.abs(final))

    def test_rows_stacked_a_fixed_number_of_times(self, monkeypatch):
        shards = make_shards(M=3, n=30, seed=24)
        for method in GD_METHODS + ("local_exact",):
            seen = []
            for rounds in (2, 5):
                counts = count_calls(monkeypatch, ("stack_rows",))
                run_baseline(method, shards, small_cfg(rounds=rounds, baseline_batch=8))
                monkeypatch.undo()
                seen.append(counts["stack_rows"])
            assert seen[0] == seen[1], method


# ---------------------------------------------------------------------------
# the one divergence rule


def fail_evaluation_from_call(monkeypatch, first):
    """Make baselines.evaluate_models raise NonFiniteInput from its
    `first`-th call on (one call per recorded round)."""
    calls = []
    original = baselines.evaluate_models

    def failing(*args):
        calls.append(None)
        if len(calls) >= first:
            raise NonFiniteInput("models contain non-finite entries")
        return original(*args)

    monkeypatch.setattr(baselines, "evaluate_models", failing)


def assert_ends_diverged(res, rounds, epochs):
    """The run stopped at rounds[-1], recorded as NaN, and its result is NaN."""
    assert res.diverged
    assert [r.round for r in res.records] == rounds
    assert [r.epoch for r in res.records] == epochs
    for r in res.records[:-1]:
        assert np.isfinite(r.train_rmse) and np.isfinite(r.test_rmse)
    last = res.records[-1]
    assert np.isnan(last.train_rmse) and np.isnan(last.test_rmse)
    assert last.loss_sum is None and last.lagrangian_final_cell is None
    assert res.per_client_test_rmse.shape == (3,)
    assert np.all(np.isnan(res.per_client_test_rmse))
    assert np.isnan(res.mean_test_rmse) and np.isnan(res.std_test_rmse)


class TestDivergence:
    @pytest.mark.parametrize("method", GD_METHODS)
    def test_failed_round_ends_the_run(self, monkeypatch, method):
        # round 2's evaluation fails: the run stops there, and the
        # fine-tuned variants never fine-tune
        shards = make_shards(M=3, n=30, seed=25)
        fail_evaluation_from_call(monkeypatch, 2)
        res = run_baseline(method, shards, small_cfg(rounds=4))
        assert_ends_diverged(res, [1, 2], [2, 2])

    @pytest.mark.parametrize("method", ["fedavg_ft", "fedprox_ft"])
    def test_failed_fine_tuning_replaces_the_last_round(self, monkeypatch, method):
        shards = make_shards(M=3, n=30, seed=26)
        fail_evaluation_from_call(monkeypatch, 3)
        res = run_baseline(method, shards, small_cfg(rounds=2, ft_epochs=5))
        assert_ends_diverged(res, [1, 2], [2, 2 + 5])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", ["local", "fedavg"])
    def test_runaway_step_is_reported_not_raised(self, method):
        # a step size of 10 on standardized cubic features overflows the
        # models within a few hundred rounds
        shards = make_shards(M=3, n=30, seed=27)
        res = run_baseline(method, shards, small_cfg(rounds=400, baseline_lr=10.0))
        assert res.diverged
        assert len(res.records) < 400
        assert np.isnan(res.records[-1].test_rmse) and np.isnan(res.mean_test_rmse)

    @pytest.mark.parametrize("method", GD_METHODS)
    def test_non_finite_evaluation_ends_the_run(self, monkeypatch, method):
        # round 2's models evaluate to an infinite test RMSE
        overflow_evaluation_from_call(monkeypatch, 2)
        res = run_baseline(method, make_shards(M=3, n=30, seed=25), small_cfg(rounds=4))
        assert_ends_diverged(res, [1, 2], [2, 2])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_runaway_stops_at_its_first_non_finite_evaluation(self):
        # the models stay finite for rounds after their errors overflow;
        # the run ends at the first round whose evaluation is not finite
        shards = make_shards(M=3, n=30, seed=27)
        res = run_baseline("fedavg", shards, small_cfg(rounds=400, baseline_lr=10.0),
                           keep_trajectory=True)
        assert res.diverged
        assert len(res.trajectory) == len(res.records) < 400
        train, test = evaluation_rows(shards)
        for models, r in zip(res.trajectory[:-1], res.records[:-1]):
            assert np.isfinite(r.train_rmse) and np.isfinite(r.test_rmse)
            assert all(np.isfinite(e).all() for e in evaluate_models(models, train, test))
        assert np.isfinite(res.trajectory[-1]).all()
        assert not all(np.isfinite(e).all() for e in evaluate_models(res.trajectory[-1], train, test))
        assert np.isnan(res.records[-1].test_rmse)

    def test_local_exact_failure_is_an_error(self, monkeypatch):
        shards = make_shards(M=3, n=30, seed=28)
        fail_evaluation_from_call(monkeypatch, 1)
        with pytest.raises(NonFiniteInput):
            run_baseline("local_exact", shards, small_cfg())

    @pytest.mark.parametrize("method", ["fedavg", "local_exact"])
    def test_non_finite_input_shard_is_an_error(self, method):
        shards = make_shards(M=3, n=30, seed=29)
        shards[1].X_test[0, 1] = np.nan
        with pytest.raises(NonFiniteInput):
            run_baseline(method, shards, small_cfg(rounds=2))

    @pytest.mark.parametrize("method", ["fedavg_ft", "fedprox_ft"])
    def test_zero_rounds_fine_tuned_record(self, method):
        shards = make_shards(M=3, n=30, seed=30)
        res = run_baseline(method, shards, small_cfg(rounds=0, ft_epochs=5))
        assert [(r.round, r.epoch) for r in res.records] == [(0, 2 + 5)]
        _, te = evaluate_models(res.models_raw, *evaluation_rows(shards))
        assert res.records[0].test_rmse == float(te.mean())
        assert not res.diverged
