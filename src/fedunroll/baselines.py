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
  local_exact  per-client normal-equations solve (oracle)
  fedavg       sample-size-weighted averaging of locally updated models
  fedprox      fedavg with a proximal pull toward the current global model
  fedavg_ft / fedprox_ft   the global model fine-tuned locally afterwards
  ditto        a global fedavg branch plus per-client personal models
               regularized toward the received global model

Every method works on one stack of the clients' training rows, the
one its RunLog builds for evaluation: local_exact solves from that
stack's X'X and X'Y, and the gradient-descent methods fit the
Standardizer on its real rows and standardize the stack itself (its
padding rows stay zero). Their training runs on the client-batched
engine of math_core, each step one array operation over the clients.
A run draws its minibatches from one generator, one call per
gradient step for all clients (ditto draws its global epochs, then its
personal ones), on a draw layout it builds once.

federation's unrolled driver shares this module's run scaffolding:
`RunLog` stacks the training and test rows once (the unrolled driver
builds its training statistics from the same stack), refuses an empty
federation, keeps the clock, writes every MetricsRecord and holds the
one divergence rule (`guard`): a round that fails numerically, or whose
models evaluate to a non-finite RMSE, is recorded as diverged and ends
the run. Both drivers return a `RunResult`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import ExperimentConfig
from .errors import DimensionMismatch, InvalidSetting, NonFiniteGradient, NonFiniteInput, NotPD
from .math_core import RowStack, chol_solve, minibatch_layout, spd_cholesky, stack_rows
from .metrics import MetricsRecord

GD_METHODS = ("local", "fedavg", "fedprox", "fedavg_ft", "fedprox_ft", "ditto")
ALL_METHODS = GD_METHODS + ("local_exact",)

# numerical failures of a round: the run records it as diverged and stops
NUMERICAL_FAILURES = (FloatingPointError, NonFiniteInput, NonFiniteGradient, NotPD)

_CONST_TOL = 1e-12
_JITTER = 1e-10  # local_exact's ridge, relative to the Gram's mean diagonal


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
        """Raw-basis coefficients of standardized ones, [k] or [M, k]."""
        raw = v_std / self.sd
        if self.intercept_col is not None:
            raw[..., self.intercept_col] -= np.sum(v_std * self.mu / self.sd, axis=-1)
        return raw

    @classmethod
    def identity(cls, k: int) -> "Standardizer":
        return cls(mu=np.zeros(k), sd=np.ones(k), intercept_col=None)


def local_exact(rows: RowStack) -> np.ndarray:
    """Every client's least-squares model [M, k], batched: one Cholesky
    factorization of the stacked X_i'X_i, each plus 1e-10 max(1, its mean
    diagonal) I, and one solve. If any of them is not positive definite,
    the whole stack is factored again with 1e-6 in place of 1e-10."""
    G = rows.gram()
    k = G.shape[-1]
    scale = np.maximum(1.0, np.trace(G, axis1=1, axis2=2) / k)
    try:
        L = spd_cholesky(G + (_JITTER * scale)[:, None, None] * np.eye(k))
    except NotPD:
        L = spd_cholesky(G + (1e-6 * scale)[:, None, None] * np.eye(k))
    return chol_solve(L, rows.xt(rows.Y))


def evaluation_rows(shards) -> Tuple[RowStack, RowStack]:
    """Every client's training rows and test rows, each stacked once."""
    return (
        stack_rows([sh.X_train for sh in shards], [sh.Y_train for sh in shards]),
        stack_rows([sh.X_test for sh in shards], [sh.Y_test for sh in shards]),
    )


def evaluate_models(models_raw: np.ndarray, train: RowStack, test: RowStack) -> tuple:
    """Per-client train and test RMSE of the models [M, k], on the rows
    of `evaluation_rows`."""
    return (
        np.sqrt(train.sse(models_raw) / train.counts),
        np.sqrt(test.sse(models_raw) / test.counts),
    )


@dataclass
class RunResult:
    """One trained method, the unrolled network or a baseline."""

    method: str
    records: List[MetricsRecord]
    models_raw: np.ndarray            # [M, k] final per-client models
    per_client_test_rmse: np.ndarray  # [M]; NaN when the run diverged
    diverged: bool = False
    params: Optional[object] = None   # the unrolled network's LearnableParams
    transcripts: list = field(default_factory=list)  # unrolled, with cfg.transcript
    trajectory: Optional[np.ndarray] = None  # [rounds, M, k] raw-space, on request

    @property
    def mean_test_rmse(self) -> float:
        return float(self.per_client_test_rmse.mean())

    @property
    def std_test_rmse(self) -> float:
        return float(self.per_client_test_rmse.std())


class RunLog:
    """A run's training and test rows (stacked once; the drivers train
    on the training stack), clock and per-round records. An empty
    federation or a non-finite input shard raises here."""

    def __init__(self, method: str, shards: Sequence):
        if len(shards) < 1:
            raise DimensionMismatch(f"{method}: no client shards")
        self.method = method
        self.t0 = time.perf_counter()
        self.train, self.test = evaluation_rows(shards)
        self.records: List[MetricsRecord] = []
        self.test_rmse: Optional[np.ndarray] = None
        self.diverged = False

    def record(self, rnd: int, epoch: int, models: Optional[np.ndarray],
               loss_sum=None, lagrangian=None) -> None:
        """Record the mean train and test RMSE of `models` [M, k] for
        round `rnd`, or, with `models` None, the round as diverged.
        Models whose train or test RMSE is not finite raise
        NonFiniteInput and record nothing: inside `guard`, that ends the
        run as diverged."""
        if models is None:
            self.diverged = True
            tr = te = np.full(self.test.counts.shape, np.nan)
        else:
            tr, te = evaluate_models(models, self.train, self.test)
            if not (np.isfinite(tr).all() and np.isfinite(te).all()):
                raise NonFiniteInput(f"round {rnd}: the models' RMSE is not finite")
        self.test_rmse = te
        self.records.append(MetricsRecord(
            round=rnd, epoch=epoch, method=self.method, client_id="agg",
            train_rmse=float(tr.mean()), test_rmse=float(te.mean()),
            loss_sum=loss_sum, lagrangian_final_cell=lagrangian,
            wall_ms=(time.perf_counter() - self.t0) * 1e3,
        ))

    @contextmanager
    def guard(self, rnd: int, epoch: int, **nan_losses):
        """Wrap one round's training and evaluation: a numerical failure,
        a non-finite evaluation included, ends the block and records the
        round as diverged, with `nan_losses`."""
        try:
            yield
        except NUMERICAL_FAILURES:
            self.record(rnd, epoch, None, **nan_losses)

    def result(self, models_raw: np.ndarray, **extra) -> RunResult:
        return RunResult(method=self.method, records=self.records, models_raw=models_raw,
                         per_client_test_rmse=self.test_rmse, diverged=self.diverged, **extra)


def run_baseline(
    method: str,
    shards: Sequence,
    cfg: ExperimentConfig,
    keep_trajectory: bool = False,
) -> RunResult:
    """Train one reference method on the given client shards.

    With `cfg.baseline_batch` set, each gradient step draws every
    client's minibatch at once from one generator per run, seeded by
    `cfg.seed`, on a draw layout built once per run
    (math_core.minibatch_layout). Raises ConfigError for an invalid
    `cfg`.
    """
    cfg.validate()
    if method not in ALL_METHODS:
        raise InvalidSetting(f"unknown baseline method {method!r}")
    log = RunLog(method, shards)
    train = log.train
    M, width, k = train.X.shape
    if method == "local_exact":
        models = local_exact(train)
        log.record(0, 0, models)
        return log.result(models)

    real = np.arange(width) < train.counts[:, None]  # client-major, as the shards
    std = Standardizer.fit(train.X[real]) if cfg.standardize else Standardizer.identity(k)
    # the padding rows stay zero
    rows = RowStack(X=np.where(real[:, :, None], std.apply(train.X), 0.0), Y=train.Y,
                    counts=train.counts)
    agg_w = rows.counts / rows.counts.sum()

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xBA7C]))
    batches = minibatch_layout(rows, cfg.baseline_batch)

    def gd(V: np.ndarray, epochs: int, pull: float = 0.0, anchor=None) -> np.ndarray:
        """`epochs` gradient steps of every client's model (rows of V, in
        place) on its minibatch mean squared error, plus
        pull/2 * ||v - anchor||^2 when an anchor is given."""
        for _ in range(epochs):
            b = rows if batches is None else batches.draw(rng)
            g = (2.0 / b.counts)[:, None] * b.xt(b.residuals(V))
            if anchor is not None:
                g = g + pull * (V - anchor)
            V -= cfg.baseline_lr * g
        return V

    personal = method in ("local", "ditto")
    w = np.zeros(k)
    V = np.zeros((M, k))  # personal models (local, ditto, fine-tuned)
    traj: List[np.ndarray] = []

    def current_models() -> np.ndarray:
        return std.to_raw(V) if personal else np.tile(std.to_raw(w), (M, 1))

    models = current_models()
    if cfg.rounds == 0:
        log.record(0, 0, models)
    for rnd in range(1, cfg.rounds + 1):
        with log.guard(rnd, cfg.local_epochs):
            if method == "local":
                gd(V, cfg.local_epochs)
            else:
                prox = method in ("fedprox", "fedprox_ft")
                U = gd(np.tile(w, (M, 1)), cfg.local_epochs, cfg.mu, w if prox else None)
                if method == "ditto":
                    gd(V, cfg.local_epochs, cfg.lambda_ditto, w)
                w = agg_w @ U
            models = current_models()
            if keep_trajectory:
                traj.append(models)
            log.record(rnd, cfg.local_epochs, models)
        if log.diverged:
            break

    if method in ("fedavg_ft", "fedprox_ft") and not log.diverged:
        log.records.pop()  # the fine-tuned evaluation stands in for the last round's
        epoch = cfg.local_epochs + cfg.ft_epochs
        with log.guard(cfg.rounds, epoch):
            models = std.to_raw(gd(np.tile(w, (M, 1)), cfg.ft_epochs))
            if keep_trajectory:
                traj.append(models)
            log.record(cfg.rounds, epoch, models)

    return log.result(models, trajectory=np.stack(traj) if traj else None)
