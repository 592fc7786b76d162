"""Shared test fixtures and small-instance builders."""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

from fedunroll import baselines, math_core
from fedunroll.datagen import DataShard
from fedunroll.learner import ParamGradients
from fedunroll.math_core import design_matrix, stack_rows
from fedunroll.unrolled_net import LearnableParams, client_stats, forward_cell, init_params, setup_pass


def make_shards(M=3, k=4, n=20, n_test=8, seed=0, noise=0.1):
    """Random polynomial shards built directly (no benchmark coupling)."""
    rng = np.random.default_rng(seed)
    shards = []
    for i in range(M):
        coeffs = rng.uniform(-1.0, 1.0, k)
        X = design_matrix(rng.uniform(-1.0, 1.0, n), k - 1)
        Y = X @ coeffs
        if noise:
            Y = Y + rng.normal(0.0, noise, n)
        Xt = design_matrix(rng.uniform(-1.0, 1.0, n_test), k - 1)
        shards.append(
            DataShard(
                client_id=i + 1,
                X_train=X,
                Y_train=Y,
                X_test=Xt,
                Y_test=Xt @ coeffs,
                gt_coeffs=coeffs,
            )
        )
    return shards


def make_uneven_shards(ns, k=4, seed=0):
    """Shards whose clients hold different numbers of training rows."""
    shards = []
    for i, n in enumerate(ns):
        (sh,) = make_shards(M=1, k=k, n=n, seed=seed + i)
        sh.client_id = i + 1
        shards.append(sh)
    return shards


def random_params(M, k, L, rng, tied=False) -> LearnableParams:
    """Parameters jittered away from defaults but clear of the
    rectifier/clamp kinks, so finite differences stay valid."""
    params = init_params(M, k, L, tied=tied)
    params.lam_raw += rng.uniform(-0.6, 0.8, params.lam_raw.shape)
    params.rho_raw += rng.uniform(-0.5, 0.9, params.rho_raw.shape)
    params.p += rng.uniform(-0.7, 0.9, params.p.shape)
    return params


def client_sse(X, v, Y) -> float:
    """One client's sum of squared residuals ||X v - Y||^2, as the
    one-client case of RowStack.sse."""
    return float(stack_rows([X], [Y]).sse(np.asarray(v)[None, :])[0])


def zero_grads(params: LearnableParams) -> ParamGradients:
    """Zero gradients shaped like the raw parameters."""
    return ParamGradients(
        lam_raw=np.zeros_like(params.lam_raw),
        rho_raw=np.zeros_like(params.rho_raw),
        p=np.zeros_like(params.p),
    )


def count_calls(monkeypatch, names):
    """Count calls of math_core functions wherever a fedunroll module
    holds them by name; `monkeypatch.undo()` restores them."""
    counts = dict.fromkeys(names, 0)
    modules = [
        mod for key, mod in list(sys.modules.items())
        if key == "fedunroll" or key.startswith("fedunroll.")
    ]
    for name in names:
        original = getattr(math_core, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


def overflow_evaluation_from_call(monkeypatch, first):
    """Make baselines.evaluate_models report an infinite test RMSE for
    every client from its `first`-th call on (one call per recorded
    round), as an overflowing sum of squares does."""
    calls = []
    original = baselines.evaluate_models

    def overflowing(*args):
        calls.append(None)
        tr, te = original(*args)
        return (tr, np.full_like(te, np.inf)) if len(calls) >= first else (tr, te)

    monkeypatch.setattr(baselines, "evaluate_models", overflowing)


def replay_tape(tape, shards, params, batch_rng=None, batch_size=None) -> bool:
    """Re-run the forward from the tape's initial state and confirm the
    recorded per-cell outputs, and grad mode's iterates in between, are
    reproduced bit for bit. A grad-mode tape drawn on minibatches
    replays from a generator seeded like the recording's, with the
    recording's batch size."""
    state = tape.init
    # the replay reads its rows from `shards` and its parameters from
    # `params`, not from the recording
    stats = client_stats(shards).take(tape.client_indices)
    pass_params, batches = setup_pass(params, stats, tape.client_indices, tape.L, tape.mode,
                                      tape.dual_update, batch_size)
    replay = dataclasses.replace(tape, cells=[], stats=stats, params=pass_params, batches=batches)
    for rec in tape.cells:
        state = forward_cell(state, rec.layer, replay, batch_rng)
        if not all(
            np.array_equal(getattr(replay.cells[-1], name), getattr(rec, name))
            for name in ("v", "z", "alpha", "w", "v_iterates")
        ):
            return False
    return True
