"""Metamorphic relations of the forward and reverse pass.

These checks need no oracle: each compares two runs of the package
whose outputs must relate in a known way, whatever the equations.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import make_shards, random_params

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
