"""Reference federated-learning methods for the benchmark comparison.

All gradient-descent trainers run on feature-standardized inputs by
default (columns scaled to zero mean / unit variance using pooled
training statistics, the intercept column passed through), with the
learned coefficients mapped back to the raw monomial basis for
evaluation. On polynomial features this is what makes plain GD with a
small fixed step converge; without it the design matrix conditioning
stalls the personal-model methods far from their least-squares optimum.

Methods
  local        independent per-client gradient descent
  local_exact  per-client ridge-free normal-equations solve (oracle)
  fedavg       sample-size-weighted averaging of locally updated models
  fedprox      fedavg with a proximal pull toward the current global model
  fedavg_ft / fedprox_ft   the global model fine-tuned locally afterwards
  ditto        a global fedavg branch plus per-client personal models
               regularized toward the received global model
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .errors import DimensionMismatch, InvalidSetting, NotPD
from .math_core import chol_solve, spd_cholesky, stack_rows
from .metrics import MetricsRecord

GD_METHODS = ("local", "fedavg", "fedprox", "fedavg_ft", "fedprox_ft", "ditto")
ALL_METHODS = GD_METHODS + ("local_exact",)

_CONST_TOL = 1e-12


@dataclass
class Standardizer:
    """Column affine map fit on training features.

    Near-constant columns are passed through unchanged; when at least
    one such column exists the constant offset produced by centering is
    absorbed into the first of them on the way back to raw coordinates,
    otherwise centering is disabled so the map stays invertible as a
    pure rescaling.
    """

    mu: np.ndarray
    sd: np.ndarray
    intercept_col: Optional[int]

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        mu = X.mean(axis=0)
        sd = X.std(axis=0)
        const = sd < _CONST_TOL
        sd = np.where(const, 1.0, sd)
        mu = np.where(const, 0.0, mu)
        intercept = int(np.argmax(const)) if np.any(const) else None
        if intercept is None:
            mu = np.zeros_like(mu)
        return cls(mu=mu, sd=sd, intercept_col=intercept)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mu) / self.sd

    def to_raw(self, v_std: np.ndarray) -> np.ndarray:
        raw = v_std / self.sd
        if self.intercept_col is not None:
            raw = raw.copy()
            raw[self.intercept_col] -= float(np.sum(v_std * self.mu / self.sd))
        return raw

    @classmethod
    def identity(cls, k: int) -> "Standardizer":
        return cls(mu=np.zeros(k), sd=np.ones(k), intercept_col=None)


def _mean_grad(Xs: np.ndarray, Y: np.ndarray, v: np.ndarray) -> np.ndarray:
    n = Xs.shape[0]
    return (2.0 / n) * (Xs.T @ (Xs @ v - Y))


@dataclass
class BaselineResult:
    method: str
    models_raw: np.ndarray            # [M, k] final per-client models
    per_client_test_rmse: np.ndarray  # [M]
    mean_test_rmse: float
    std_test_rmse: float
    records: List[MetricsRecord]
    trajectory: Optional[np.ndarray] = None  # [rounds, M, k] raw-space


def local_exact(shard, jitter: float = 1e-10) -> np.ndarray:
    """Per-client least-squares solve of the local regression."""
    X, Y = shard.X_train, shard.Y_train
    k = X.shape[1]
    A = X.T @ X
    scale = max(1.0, float(np.trace(A)) / k)
    try:
        L = spd_cholesky(A + jitter * scale * np.eye(k))
    except NotPD:
        L = spd_cholesky(A + 1e-6 * scale * np.eye(k))
    return chol_solve(L, X.T @ Y)


def evaluate_models(models_raw: np.ndarray, shards) -> tuple:
    """Per-client train and test RMSE of the models [M, k], one per shard."""
    train = stack_rows([sh.X_train for sh in shards], [sh.Y_train for sh in shards])
    test = stack_rows([sh.X_test for sh in shards], [sh.Y_test for sh in shards])
    return (
        np.sqrt(train.sse(models_raw) / train.counts),
        np.sqrt(test.sse(models_raw) / test.counts),
    )


def _minibatch(rng, X: np.ndarray, Y: np.ndarray, batch: Optional[int]):
    """`batch` rows of (X, Y) drawn without replacement, or all rows when
    the batch is None or covers them."""
    if batch is None or batch >= X.shape[0]:
        return X, Y
    b = rng.choice(X.shape[0], size=batch, replace=False)
    return X[b], Y[b]


def run_baseline(
    method: str,
    shards: Sequence,
    cfg: ExperimentConfig,
    keep_trajectory: bool = False,
) -> BaselineResult:
    """Train one reference method on the given client shards."""
    if method not in ALL_METHODS:
        raise InvalidSetting(f"unknown baseline method {method!r}")
    M = len(shards)
    if M < 1:
        raise DimensionMismatch("run_baseline: no client shards")
    k = shards[0].X_train.shape[1]

    t0 = time.perf_counter()
    records: List[MetricsRecord] = []

    if method == "local_exact":
        models = np.stack([local_exact(sh) for sh in shards])
        tr, te = evaluate_models(models, shards)
        records.append(
            MetricsRecord(
                round=0,
                epoch=0,
                method=method,
                client_id="agg",
                train_rmse=float(tr.mean()),
                test_rmse=float(te.mean()),
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        return BaselineResult(
            method=method,
            models_raw=models,
            per_client_test_rmse=te,
            mean_test_rmse=float(te.mean()),
            std_test_rmse=float(te.std()),
            records=records,
        )

    if cfg.standardize:
        pooled = np.vstack([sh.X_train for sh in shards])
        std = Standardizer.fit(pooled)
    else:
        std = Standardizer.identity(k)
    Xs = [std.apply(sh.X_train) for sh in shards]
    Ys = [sh.Y_train for sh in shards]
    n_samples = np.array([x.shape[0] for x in Xs], dtype=np.float64)
    agg_w = n_samples / n_samples.sum()

    seed = int(cfg.seed or 0)
    rngs = [
        np.random.default_rng(np.random.SeedSequence([seed, i, 0xBA7C]))
        for i in range(M)
    ]
    batch = cfg.baseline_batch

    is_global = method in ("fedavg", "fedprox", "fedavg_ft", "fedprox_ft")
    w = np.zeros(k)
    v_pers = np.zeros((M, k))     # personal models (local / ditto)
    traj: List[np.ndarray] = []

    def current_models() -> np.ndarray:
        if method == "local" or method == "ditto":
            return np.stack([std.to_raw(v_pers[i]) for i in range(M)])
        w_raw = std.to_raw(w)
        return np.tile(w_raw, (M, 1))

    for rnd in range(1, cfg.rounds + 1):
        if method == "local":
            for i in range(M):
                for _ in range(cfg.local_epochs):
                    Xb, Yb = _minibatch(rngs[i], Xs[i], Ys[i], batch)
                    v_pers[i] -= cfg.baseline_lr * _mean_grad(Xb, Yb, v_pers[i])
        elif is_global:
            updated = np.empty((M, k))
            for i in range(M):
                u = w.copy()
                for _ in range(cfg.local_epochs):
                    Xb, Yb = _minibatch(rngs[i], Xs[i], Ys[i], batch)
                    g = _mean_grad(Xb, Yb, u)
                    if method in ("fedprox", "fedprox_ft"):
                        g = g + cfg.mu * (u - w)
                    u -= cfg.baseline_lr * g
                updated[i] = u
            w = agg_w @ updated
        else:  # ditto
            updated = np.empty((M, k))
            for i in range(M):
                u = w.copy()
                for _ in range(cfg.local_epochs):
                    Xb, Yb = _minibatch(rngs[i], Xs[i], Ys[i], batch)
                    u -= cfg.baseline_lr * _mean_grad(Xb, Yb, u)
                updated[i] = u
                for _ in range(cfg.local_epochs):
                    Xb, Yb = _minibatch(rngs[i], Xs[i], Ys[i], batch)
                    g = _mean_grad(Xb, Yb, v_pers[i]) + cfg.lambda_ditto * (v_pers[i] - w)
                    v_pers[i] -= cfg.baseline_lr * g
            w = agg_w @ updated

        models = current_models()
        if keep_trajectory:
            traj.append(models.copy())
        tr, te = evaluate_models(models, shards)
        records.append(
            MetricsRecord(
                round=rnd,
                epoch=cfg.local_epochs,
                method=method,
                client_id="agg",
                train_rmse=float(tr.mean()),
                test_rmse=float(te.mean()),
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )

    if method in ("fedavg_ft", "fedprox_ft"):
        for i in range(M):
            v_pers[i] = w.copy()
            for _ in range(cfg.ft_epochs):
                Xb, Yb = _minibatch(rngs[i], Xs[i], Ys[i], batch)
                v_pers[i] -= cfg.baseline_lr * _mean_grad(Xb, Yb, v_pers[i])
        models = np.stack([std.to_raw(v_pers[i]) for i in range(M)])
        tr, te = evaluate_models(models, shards)
        if records:
            records.pop()  # the fine-tuned evaluation stands in for the last round
        records.append(
            MetricsRecord(
                round=cfg.rounds,
                epoch=cfg.local_epochs + cfg.ft_epochs,
                method=method,
                client_id="agg",
                train_rmse=float(tr.mean()),
                test_rmse=float(te.mean()),
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        if keep_trajectory:
            traj.append(models.copy())
    else:
        models = current_models()

    if cfg.rounds == 0 and not records:
        tr, te = evaluate_models(models, shards)
        records.append(
            MetricsRecord(
                round=0,
                epoch=0,
                method=method,
                client_id="agg",
                train_rmse=float(tr.mean()),
                test_rmse=float(te.mean()),
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )

    tr, te = evaluate_models(models, shards)
    return BaselineResult(
        method=method,
        models_raw=models,
        per_client_test_rmse=te,
        mean_test_rmse=float(te.mean()),
        std_test_rmse=float(te.std()),
        records=records,
        trajectory=np.stack(traj) if keep_trajectory and traj else None,
    )
