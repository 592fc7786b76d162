"""Metamorphic relations of the forward and reverse pass, and of the
baselines' drivers.

These checks need no oracle: each compares two runs of the package
whose outputs must relate in a known way, whatever the equations.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import make_shards, random_params

from fedunroll.baselines import ALL_METHODS, GD_METHODS, run_baseline
from fedunroll.config import ExperimentConfig
from fedunroll.datagen import SettingSpec, generate_setting
from fedunroll.learner import PARAM_FIELDS, POLICIES, backward
from fedunroll.unrolled_net import DUAL_UPDATES, MODES, CellState, LearnableParams, forward_network


def _random_state(rng, m, k) -> CellState:
    return CellState(v=rng.normal(size=(m, k)), z=rng.normal(size=(m, k)),
                     alpha=rng.normal(size=(m, k)), w=rng.normal(size=k))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("dual", DUAL_UPDATES)
@pytest.mark.parametrize("mode", MODES)
def test_doubling_targets_and_state_doubles_v_and_quadruples_gradients(mode, dual, policy):
    # at fixed parameters every forward operation is linear in the
    # targets and the state, and the loss quadratic; scaling by two is
    # exact in floating point, so the relation holds bit for bit
    rng = np.random.default_rng([61, MODES.index(mode), DUAL_UPDATES.index(dual)])
    M, k, L = 4, 4, 3
    shards = make_shards(M=M, k=k, n=20, seed=61)
    doubled_shards = [replace(sh, Y_train=2.0 * sh.Y_train) for sh in shards]
    params = random_params(M, k, L, rng)
    state = _random_state(rng, M, k)
    doubled = CellState(*(2.0 * a for a in (state.v, state.z, state.alpha, state.w)))
    kw = dict(mode=mode, dual_update=dual)
    v, tape = forward_network(shards, params, state0=state, **kw)
    v2, tape2 = forward_network(doubled_shards, params, state0=doubled, **kw)
    assert np.array_equal(v2, 2.0 * v)
    for rec, rec2 in zip(tape.cells, tape2.cells):
        for name in ("v", "z", "alpha", "w"):
            assert np.array_equal(getattr(rec2, name), 2.0 * getattr(rec, name)), name
    grads = backward(tape, shards, policy=policy)
    grads2 = backward(tape2, doubled_shards, policy=policy)
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(grads2, name), 4.0 * getattr(grads, name)), name


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mode", MODES)
def test_permuting_the_clients_permutes_outputs_and_gradients(mode, policy):
    # a subset of the clients is active; permuting the shards, the
    # parameters' client axis and the active clients' order relabels
    # them, and only the order of the sums over clients changes
    rng = np.random.default_rng([62, MODES.index(mode)])
    M, k, L = 8, 4, 3
    shards = make_shards(M=M, k=k, n=20, seed=62)
    params = random_params(M, k, L, rng)
    idx = np.array([6, 1, 3, 4, 0])
    state = _random_state(rng, idx.shape[0], k)
    perm = rng.permutation(M)              # client perm[j] moves to position j
    moved_to = np.argsort(perm)            # the new position of client i
    order = rng.permutation(idx.shape[0])  # the active clients' new order
    p_shards = [shards[i] for i in perm]
    p_params = LearnableParams(lam_raw=params.lam_raw[:, perm], rho_raw=params.rho_raw[:, perm],
                               p=params.p[:, perm], L=L)
    p_state = CellState(v=state.v[order], z=state.z[order], alpha=state.alpha[order], w=state.w)

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    _, tape = forward_network(shards, params, mode=mode, state0=state, client_indices=idx)
    _, p_tape = forward_network(p_shards, p_params, mode=mode, state0=p_state,
                                client_indices=moved_to[idx[order]])
    for rec, p_rec in zip(tape.cells, p_tape.cells):
        for name in ("v", "z", "alpha", "omega"):
            close(getattr(p_rec, name), getattr(rec, name)[order])
        close(p_rec.w, rec.w)
    grads = backward(tape, shards, policy=policy)
    p_grads = backward(p_tape, p_shards, policy=policy)
    for name in PARAM_FIELDS:
        close(getattr(p_grads, name), getattr(grads, name)[:, perm])


def _setting_shards(setting):
    return generate_setting(SettingSpec(setting=setting, M=6, n_per_client=40, seed=63))


@pytest.mark.parametrize("batch", [None, 16])
@pytest.mark.parametrize("setting", [1, 3])
def test_doubling_every_target_doubles_every_baselines_models_and_rmse(setting, batch):
    # each baseline's models are linear in the targets and its RMSE is
    # homogeneous in them; the minibatch draws do not read the targets
    shards = _setting_shards(setting)
    doubled = [replace(sh, Y_train=2.0 * sh.Y_train, Y_test=2.0 * sh.Y_test) for sh in shards]
    cfg = ExperimentConfig(seed=64, rounds=6, baseline_batch=batch)
    for method in ALL_METHODS:
        run, run2 = run_baseline(method, shards, cfg), run_baseline(method, doubled, cfg)
        assert not run.diverged
        assert np.array_equal(run2.models_raw, 2.0 * run.models_raw), method
        assert np.array_equal(run2.per_client_test_rmse, 2.0 * run.per_client_test_rmse), method


@pytest.mark.parametrize("setting", [1, 3])
def test_permuting_the_shards_permutes_every_full_batch_baseline(setting):
    # local_exact solves each client alone, so its models permute bit for
    # bit. The gradient methods standardize with the mean and deviation of
    # the pooled rows, whose sums change order: full batch, they permute
    # to 1e-14 relative (measured up to 6.2e-16). With minibatches no
    # relation holds, since one generator draws the clients' batches in
    # client order and a permutation hands each client another draw.
    shards = _setting_shards(setting)
    perm = np.random.default_rng(setting).permutation(len(shards))
    moved = [shards[i] for i in perm]
    cfg = ExperimentConfig(seed=65, rounds=6)
    for method in ALL_METHODS:
        run, p_run = run_baseline(method, shards, cfg), run_baseline(method, moved, cfg)
        want, got = run.models_raw[perm], p_run.models_raw
        if method in GD_METHODS:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), method
        else:
            assert np.array_equal(got, want), method
            assert np.array_equal(p_run.per_client_test_rmse, run.per_client_test_rmse[perm])
