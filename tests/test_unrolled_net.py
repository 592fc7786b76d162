"""Forward pass of the unrolled network: layer ops, cells, tape.

The cell is checked against `straight_line_cell`, an independent
re-implementation below that uses plain per-coordinate loops and
numpy.linalg.solve instead of the package's vectorized/Cholesky path.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, make_shards, make_uneven_shards, random_params, replay_tape

from fedunroll import unrolled_net
from fedunroll.errors import DimensionMismatch, NonFiniteInput
from fedunroll.math_core import stack_rows
from fedunroll.unrolled_net import (
    DUAL_UPDATES,
    MODES,
    CellState,
    GRAD_LR_DEFAULT,
    GRAD_STEPS_DEFAULT,
    ClientStats,
    client_stats,
    forward_network,
    init_params,
    init_state,
    phi1_dual,
    phi2_v_grad,
    phi2_v_linear,
    phi3_aux,
    phi4_global,
)


def straight_line_cell(Xs, Ys, v0, z0, a0, w0, lam, rho, theta,
                       dual="rho_step", mode="linear",
                       lr=GRAD_LR_DEFAULT, steps=GRAD_STEPS_DEFAULT):
    """Slow, loop-based transcription of one cell."""
    M, k = v0.shape
    a1 = np.empty((M, k))
    v1 = np.empty((M, k))
    z1 = np.empty((M, k))
    sa = np.empty((M, k))   # scaled multiplier alpha / step read by phi2-phi4
    for i in range(M):
        rho_i = rho[i] if rho[i] > 1e-6 else 1e-6
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
    # softmax of the logits, shifted by the largest
    top = max(theta)
    es = [math.exp(theta[i] - top) for i in range(M)]
    S = sum(es)
    w1 = np.zeros(k)
    for i in range(M):
        w1 += (es[i] / S) * (v1[i] - z1[i] - sa[i])
    return a1, v1, z1, w1


class TestLayerOps:
    def test_dual_step_worked_example(self):
        # alpha=1, rho=2, z=0, v=3, w=1:  1 + 2*(0 - 3 + 1) = -3
        out = phi1_dual(np.array([[1.0]]), np.array([[3.0]]), np.array([[0.0]]),
                        np.array([1.0]), np.array([2.0]))
        assert out[0, 0] == -3.0

    def test_dual_step_vector(self):
        rng = np.random.default_rng(0)
        a, v, z = (rng.normal(size=(1, 4)) for _ in range(3))
        w = rng.normal(size=4)
        out = phi1_dual(a, v, z, w, np.array([0.7]))
        assert np.allclose(out, a + 0.7 * (z - v + w), atol=1e-15)

    def test_model_update_satisfies_stationarity(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 3))
        Y = rng.normal(size=12)
        alpha, z, w = (rng.normal(size=3) for _ in range(3))
        rho = 0.8
        v, _ = phi2_v_linear((X.T @ X)[None], (X.T @ Y)[None], alpha[None], z[None], w,
                             np.array([rho]))
        grad = (X.T @ X + rho * np.eye(3)) @ v[0] - (rho * (w + z + alpha) + X.T @ Y)
        assert np.allclose(grad, 0.0, atol=1e-10)

    def test_model_update_matches_direct_solve(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 4))
        Y = rng.normal(size=15)
        alpha, z, w = (rng.normal(size=4) for _ in range(3))
        rho = 1.3
        v, _ = phi2_v_linear((X.T @ X)[None], (X.T @ Y)[None], alpha[None], z[None], w,
                             np.array([rho]))
        want = np.linalg.solve(X.T @ X + rho * np.eye(4), rho * (w + z + alpha) + X.T @ Y)
        assert np.allclose(v[0], want, atol=1e-12)

    def test_gradient_update_matches_manual_loop(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(10, 3))
        Y = rng.normal(size=10)
        v0, alpha, z, w = (rng.normal(size=3) for _ in range(4))
        rho, lr, steps = 0.9, 0.02, 4

        def grad_of_F(v):
            return 2.0 * X.T @ (X @ v - Y)

        got, iterates = phi2_v_grad((X.T @ X)[None], (X.T @ Y)[None], v0[None], alpha[None],
                                    z[None], w, np.array([rho]), lr, steps)
        v = v0.copy()
        anchor = z + w + alpha
        between = []
        for _ in range(steps):
            v = v - lr * (grad_of_F(v) + rho * (v - anchor))
            between.append(v)
        assert np.allclose(got[0], v, atol=1e-14)
        # the iterates between the start and the result, v_1 .. v_3
        assert iterates.shape == (steps - 1, 1, 3)
        assert np.allclose(iterates[:, 0], between[:-1], atol=1e-14)

    def test_gradient_update_default_constants(self):
        assert GRAD_LR_DEFAULT == 0.01
        assert GRAD_STEPS_DEFAULT == 5

    def test_aux_update_formula(self):
        rng = np.random.default_rng(4)
        alpha, v, w = (rng.normal(size=3) for _ in range(3))
        lam = np.array([0.5, 0.0, 4.0])   # effective weights, already rectified
        rho = 0.6
        z = phi3_aux(alpha[None], v[None], w, np.array([rho]), lam[None])
        d = v - w - alpha
        want = np.array(
            [rho * d[0] / (0.5 + rho), rho * d[1] / rho, rho * d[2] / (4.0 + rho)]
        )
        assert np.allclose(z[0], want, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.integers(0, 100))
    def test_aux_shrinks_with_weight(self, lam_small, extra, seed):
        # growing a coordinate's consensus weight can only shrink |z_j|
        rng = np.random.default_rng(seed)
        alpha, v = (rng.normal(size=(1, 2)) for _ in range(2))
        w = rng.normal(size=2)
        rho = np.array([0.5 + rng.uniform(0, 2)])
        z_small = phi3_aux(alpha, v, w, rho, np.array([[lam_small, 1.0]]))
        z_big = phi3_aux(alpha, v, w, rho, np.array([[lam_small + extra, 1.0]]))
        assert abs(z_big[0, 0]) <= abs(z_small[0, 0]) + 1e-12

    def test_aggregation_single_client_exact(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(1, 4))
        omega, w = phi4_global(u, np.array([0.37]))
        assert omega[0] == 1.0
        assert np.array_equal(w, u[0])

    def test_aggregation_weights_are_a_softmax_on_every_active_subset(self):
        # positive and summing to one over whichever clients are active,
        # and unchanged by a common shift of the logits; the logits are
        # dyadic, so the shift and the max-shift are exact, and exp(950)
        # would overflow without the max-shift
        rng = np.random.default_rng(6)
        M, k = 5, 4
        shards = make_shards(M=M, k=k, n=12, seed=6)
        params = random_params(M, k, 1, rng)
        params.p[0] = [-40.0, 0.375, 700.0, 2.0, -1.5]
        shifted = params.copy()
        shifted.p += 250.0
        for r in range(1, M + 1):
            for subset in itertools.combinations(range(M), r):
                idx = np.array(subset)
                state = CellState(
                    v=rng.normal(size=(r, k)),
                    z=rng.normal(size=(r, k)),
                    alpha=rng.normal(size=(r, k)),
                    w=rng.normal(size=k),
                )
                _, tape = forward_network(shards, params, state0=state, client_indices=idx)
                _, moved = forward_network(shards, shifted, state0=state, client_indices=idx)
                omega = tape.cells[0].omega
                assert omega.shape == (r,) and np.all(omega > 0.0)
                assert abs(omega.sum() - 1.0) <= 1e-15
                assert np.array_equal(moved.cells[0].omega, omega)
                assert np.array_equal(moved.cells[0].w, tape.cells[0].w)

    def test_zero_logits_weigh_active_clients_equally(self):
        shards = make_shards(M=5, seed=9)
        idx = np.array([0, 3, 4])
        _, tape = forward_network(shards, init_params(5, 4, 2), L=2, client_indices=idx)
        for rec in tape.cells:
            assert np.array_equal(rec.omega, np.full(3, 1.0 / 3.0))

    def test_aggregation_is_convex_combination(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=(4, 3))
        _, w = phi4_global(u, rng.normal(size=4))
        assert np.all(w <= u.max(axis=0) + 1e-12)
        assert np.all(w >= u.min(axis=0) - 1e-12)

    def test_batched_calls_match_one_client_calls_bitwise(self):
        rng = np.random.default_rng(8)
        m, k = 3, 4
        X = rng.normal(size=(m, 10, k))
        Y = rng.normal(size=(m, 10))
        G = np.swapaxes(X, 1, 2) @ X
        c = np.stack([X[i].T @ Y[i] for i in range(m)])
        alpha, v, z = (rng.normal(size=(m, k)) for _ in range(3))
        lam = rng.uniform(0.0, 2.0, (m, k))
        w = rng.normal(size=k)
        rho = rng.uniform(0.5, 2.0, m)
        a1 = phi1_dual(alpha, v, z, w, rho)
        v1, chol = phi2_v_linear(G, c, alpha, z, w, rho)
        vg, its = phi2_v_grad(G, c, v, alpha, z, w, rho, 0.01, 3)
        z1 = phi3_aux(alpha, v, w, rho, lam)
        for i in range(m):
            one = slice(i, i + 1)
            assert np.array_equal(a1[one], phi1_dual(alpha[one], v[one], z[one], w, rho[one]))
            vi, Li = phi2_v_linear(G[one], c[one], alpha[one], z[one], w, rho[one])
            assert np.array_equal(v1[one], vi) and np.array_equal(chol[one], Li)
            vi, its_i = phi2_v_grad(G[one], c[one], v[one], alpha[one], z[one], w, rho[one],
                                    0.01, 3)
            assert np.array_equal(vg[one], vi) and np.array_equal(its[:, one], its_i)
            assert np.array_equal(z1[one], phi3_aux(alpha[one], v[one], w, rho[one], lam[one]))

    def test_linear_update_factors_are_each_clients_lapack_factor(self):
        rng = np.random.default_rng(9)
        m, k = 5, 4
        X = rng.normal(size=(m, 10, k))
        G = np.swapaxes(X, 1, 2) @ X
        c, alpha, z = (rng.normal(size=(m, k)) for _ in range(3))
        w = rng.normal(size=k)
        rho = rng.uniform(0.5, 2.0, m)
        _, chol = phi2_v_linear(G, c, alpha, z, w, rho)
        assert chol.shape == (m, k, k)
        for i in range(m):
            want = np.linalg.cholesky(G[i] + rho[i] * np.eye(k))
            assert np.array_equal(chol[i], want)


class TestCellAgainstStraightLine:
    @pytest.mark.parametrize("mode", ["linear", "grad"])
    @pytest.mark.parametrize("dual", ["rho_step", "unit_step"])
    def test_cell_matches_oracle(self, mode, dual):
        rng = np.random.default_rng([7, MODES.index(mode), DUAL_UPDATES.index(dual)])
        for _ in range(10):
            M = int(rng.integers(1, 5))
            k = int(rng.integers(2, 6))
            n = int(rng.integers(5, 25))
            shards = make_shards(M=M, k=k, n=n, seed=int(rng.integers(10**6)))
            params = random_params(M, k, 1, rng)
            state = CellState(
                v=rng.normal(size=(M, k)),
                z=rng.normal(size=(M, k)),
                alpha=rng.normal(size=(M, k)),
                w=rng.normal(size=k),
            )
            _, tape = forward_network(shards, params, L=1, mode=mode, dual_update=dual,
                                      state0=state)
            got = tape.cells[0]
            a1, v1, z1, w1 = straight_line_cell(
                [sh.X_train for sh in shards],
                [sh.Y_train for sh in shards],
                state.v, state.z, state.alpha, state.w,
                params.lam_raw[0], params.rho_raw[0], params.p[0],
                dual=dual, mode=mode,
            )
            assert np.max(np.abs(got.alpha - a1)) <= 1e-12
            assert np.max(np.abs(got.v - v1)) <= 1e-12
            assert np.max(np.abs(got.z - z1)) <= 1e-12
            assert np.max(np.abs(got.w - w1)) <= 1e-12

    @pytest.mark.parametrize("mode", ["linear", "grad"])
    def test_clients_of_different_sizes_match_oracle(self, mode):
        rng = np.random.default_rng(31)
        for inst in range(5):
            ns = rng.integers(3, 30, size=4)
            shards = make_uneven_shards(ns, seed=100 * inst)
            params = random_params(4, 4, 1, rng)
            state = CellState(
                v=rng.normal(size=(4, 4)),
                z=rng.normal(size=(4, 4)),
                alpha=rng.normal(size=(4, 4)),
                w=rng.normal(size=4),
            )
            _, tape = forward_network(shards, params, L=1, mode=mode, state0=state)
            got = tape.cells[0]
            want = straight_line_cell(
                [sh.X_train for sh in shards],
                [sh.Y_train for sh in shards],
                state.v, state.z, state.alpha, state.w,
                params.lam_raw[0], params.rho_raw[0],
                params.p[0], mode=mode,
            )
            for g, o in zip((got.alpha, got.v, got.z, got.w), want):
                assert np.max(np.abs(g - o)) <= 1e-12


class TestNetwork:
    def test_initial_state_distribution(self):
        st0 = init_state(200, 4, seed=0)
        assert np.array_equal(st0.z, np.zeros((200, 4)))
        assert np.array_equal(st0.alpha, np.zeros((200, 4)))
        assert np.array_equal(st0.w, np.zeros(4))
        assert 0.05 < st0.v.std() < 0.15
        assert abs(st0.v.mean()) < 0.05

    def test_initial_state_seeded(self):
        a = init_state(5, 4, seed=3)
        b = init_state(5, 4, seed=3)
        c = init_state(5, 4, seed=4)
        assert np.array_equal(a.v, b.v)
        assert not np.array_equal(a.v, c.v)

    def test_tape_structure(self):
        shards = make_shards(M=3, seed=1)
        params = init_params(3, 4, 5)
        v, tape = forward_network(shards, params, L=5, seed=1)
        assert len(tape.cells) == 5
        assert [rec.layer for rec in tape.cells] == [1, 2, 3, 4, 5]
        assert [rec.slot for rec in tape.cells] == [0, 1, 2, 3, 4]
        assert np.array_equal(tape.final_v(), v)
        assert tape.m_active == 3

    def test_tied_parameters_use_single_slot(self):
        shards = make_shards(M=2, seed=2)
        params = init_params(2, 4, 4, tied=True)
        assert params.lam_raw.shape[0] == 1
        _, tape = forward_network(shards, params, L=4, seed=2)
        assert all(rec.slot == 0 for rec in tape.cells)

    def test_client_subset_runs_matching_columns(self):
        shards = make_shards(M=5, seed=3)
        rng = np.random.default_rng(0)
        params = random_params(5, 4, 3, rng)
        idx = np.array([1, 3])
        state0 = CellState(
            v=rng.normal(size=(2, 4)),
            z=np.zeros((2, 4)),
            alpha=np.zeros((2, 4)),
            w=np.zeros(4),
        )
        v, tape = forward_network(
            shards, params, L=3, state0=state0, client_indices=idx
        )
        assert v.shape == (2, 4)
        assert np.array_equal(tape.client_indices, idx)
        # client 1's first dual step must use client 1's own penalty
        rec = tape.cells[0]
        assert rec.rho_eff[0] == max(params.rho_raw[0, 1], 1e-6)

    @pytest.mark.parametrize("mode", MODES)
    def test_a_forward_without_population_builds_it_from_every_shard(self, mode):
        shards = make_shards(M=6, n=30, seed=31)
        params = random_params(6, 4, 3, np.random.default_rng(31))
        idx = np.array([4, 0, 3])
        population = client_stats(shards)
        tapes = []
        for pop in (population, None):
            _, tape = forward_network(shards, params, L=3, mode=mode, seed=31, client_indices=idx,
                                      batch_rng=np.random.default_rng(5), batch_size=8,
                                      population=pop)
            tapes.append(tape)
        a, b = tapes
        for name in ("X", "Y", "counts"):
            assert np.array_equal(getattr(a.stats.rows, name), getattr(b.stats.rows, name))
        assert np.array_equal(a.stats.gram, b.stats.gram)
        assert np.array_equal(a.stats.xty, b.stats.xty)
        for ra, rb in zip([a.init] + a.cells, [b.init] + b.cells):
            for name, value in vars(ra).items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(value, getattr(rb, name)), name
                else:
                    assert value == getattr(rb, name), name
        assert len(a.cells) == len(b.cells) == 3
        with pytest.raises(DimensionMismatch):
            forward_network(shards[:5], params, L=3, client_indices=idx, population=population)

    def test_population_entries_equal_a_stack_of_the_subset_on_equal_clients(self):
        shards = make_shards(M=6, n=30, seed=32)
        idx = [4, 0, 3]
        got = client_stats(shards).take(idx)
        want = ClientStats.of(stack_rows([shards[i].X_train for i in idx],
                                         [shards[i].Y_train for i in idx]))
        for name in ("X", "Y", "counts"):
            assert np.array_equal(getattr(got.rows, name), getattr(want.rows, name))
        assert np.array_equal(got.gram, want.gram)
        assert np.array_equal(got.xty, want.xty)

    def test_carried_state_continues(self):
        shards = make_shards(M=2, seed=4)
        params = init_params(2, 4, 3)
        v1, tape1 = forward_network(shards, params, L=3, seed=4)
        final = tape1.cells[-1]
        carried = CellState(v=final.v, z=final.z, alpha=final.alpha, w=final.w)
        v2, tape2 = forward_network(shards, params, L=3, state0=carried)
        assert np.array_equal(tape2.init.v, v1)
        assert not np.array_equal(v2, v1)

    def test_replay_exact_linear(self):
        shards = make_shards(M=3, seed=5)
        rng = np.random.default_rng(1)
        params = random_params(3, 4, 4, rng)
        _, tape = forward_network(shards, params, L=4, seed=5)
        assert replay_tape(tape, shards, params)

    def test_replay_exact_grad_with_batches(self):
        shards = make_shards(M=3, n=30, seed=6)
        rng = np.random.default_rng(2)
        params = random_params(3, 4, 3, rng)
        _, tape = forward_network(
            shards, params, L=3, mode="grad", seed=6,
            batch_rng=np.random.default_rng(7), batch_size=8,
        )
        assert replay_tape(tape, shards, params, np.random.default_rng(7), 8)
        # other minibatches give other iterates, so the replay is no tautology
        assert not replay_tape(tape, shards, params, np.random.default_rng(8), 8)

    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_grad_records_keep_the_iterates_between_input_and_output(self, steps):
        # a record keeps v_1 .. v_{steps-1}; v_0 is the cell's input v and
        # v_steps its output, both read elsewhere on the tape
        shards = make_shards(M=3, n=20, seed=15)
        params = random_params(3, 4, 3, np.random.default_rng(5))
        _, tape = forward_network(shards, params, L=3, mode="grad", seed=15, grad_steps=steps)
        xty = client_stats(shards).xty
        for i, rec in enumerate(tape.cells):
            assert rec.v_iterates.shape == (steps - 1, 3, 4)
            prev = tape.inputs(i)
            v, iterates = phi2_v_grad(
                rec.gram, xty, prev.v, rec.alpha / rec.step_w[:, None], prev.z, prev.w,
                rec.rho_eff, tape.grad_lr, steps,
            )
            assert np.array_equal(v, rec.v)
            assert np.array_equal(iterates, rec.v_iterates)

    def test_replay_detects_changed_params(self):
        shards = make_shards(M=2, seed=7)
        params = init_params(2, 4, 2)
        _, tape = forward_network(shards, params, L=2, seed=7)
        other = params.copy()
        other.rho_raw[0, 0] = 3.0
        assert not replay_tape(tape, shards, other)

    def test_nonfinite_data_rejected(self):
        shards = make_shards(M=2, seed=8)
        shards[0].Y_train[0] = np.inf
        params = init_params(2, 4, 2)
        with pytest.raises(NonFiniteInput):
            forward_network(shards, params, L=2, seed=8)

    def test_layer_out_of_range(self):
        shards = make_shards(M=2, seed=9)
        params = init_params(2, 4, 2)
        state = init_state(2, 4)
        with pytest.raises(DimensionMismatch):
            forward_network(shards, params, L=3, state0=state)

    def test_state_row_mismatch(self):
        shards = make_shards(M=3, seed=10)
        params = init_params(3, 4, 2)
        state = init_state(2, 4)
        with pytest.raises(DimensionMismatch):
            forward_network(shards, params, L=1, state0=state)

    @pytest.mark.parametrize("bad, error", [
        (dict(L=3), DimensionMismatch),
        (dict(L=0), DimensionMismatch),
        (dict(mode="newton"), ValueError),
        (dict(dual_update="half_step"), ValueError),
        (dict(state0=init_state(2, 4)), DimensionMismatch),
        (dict(state0=replace(init_state(3, 4), z=np.zeros((3, 5)))), DimensionMismatch),
        (dict(state0=replace(init_state(3, 4), alpha=np.zeros((2, 4)))), DimensionMismatch),
        (dict(state0=replace(init_state(3, 4), w=np.zeros(3))), DimensionMismatch),
        (dict(mode="grad", batch_size=-3, batch_rng=np.random.default_rng(0)), ValueError),
        (dict(mode="grad", batch_size=0, batch_rng=np.random.default_rng(0)), ValueError),
        (dict(mode="grad", grad_lr=0.0), ValueError),
        (dict(mode="grad", grad_steps=0), ValueError),
        (dict(mode="grad", batch_size=8), ValueError),  # 20 rows to draw from, no generator
        (dict(client_indices=np.array([0, 0])), DimensionMismatch),       # repeated
        (dict(client_indices=np.array([-1, 2])), DimensionMismatch),      # negative
        (dict(client_indices=np.array([0, 3])), DimensionMismatch),       # past the last shard
        (dict(client_indices=np.array([0.0, 1.0])), DimensionMismatch),   # not integer
        (dict(client_indices=np.array([True, False, True])), DimensionMismatch),
        (dict(client_indices=np.array([[0], [1]])), DimensionMismatch),   # 2-d
        (dict(client_indices=np.array([], dtype=int)), DimensionMismatch),
    ])
    def test_settings_are_checked_before_the_first_cell(self, monkeypatch, bad, error):
        shards = make_shards(M=3, seed=10)
        calls = []
        original = unrolled_net.forward_cell

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(unrolled_net, "forward_cell", counted)
        with pytest.raises(error):
            forward_network(shards, init_params(3, 4, 2), **bad)
        assert calls == []
        forward_network(shards, init_params(3, 4, 2))
        assert len(calls) == 2

    @pytest.mark.parametrize("indices", [[2, 0], (1,), np.array([2, 1, 0], dtype=np.uint8)])
    def test_any_distinct_in_range_indices_run_in_their_order(self, indices):
        shards = make_shards(M=3, seed=10)
        v, tape = forward_network(shards, init_params(3, 4, 2), client_indices=indices)
        assert v.shape == (len(indices), 4)
        assert tape.client_indices.tolist() == np.asarray(indices).tolist()

    def test_effective_parameter_masks_recorded(self):
        shards = make_shards(M=2, seed=11)
        params = init_params(2, 4, 1)
        params.lam_raw[0, 0, 0] = -0.5   # rectified to zero, mask off
        params.rho_raw[0, 1] = -2.0      # clamped to floor, mask off
        _, tape = forward_network(shards, params, L=1, seed=11)
        rec = tape.cells[0]
        assert rec.lam_eff[0, 0] == 0.0
        assert not rec.lam_on[0, 0]
        assert rec.lam_on[0, 1]
        assert rec.rho_eff[1] == 1e-6
        assert not rec.rho_on[1]
        assert rec.rho_on[0]

    def test_dual_conventions_agree_at_fixed_large_penalty(self):
        # rho_step carries rho times unit_step's multiplier, and the primal
        # steps read alpha / rho, so the iterates match up to rounding
        shards = make_shards(M=4, n=40, seed=13)
        params = init_params(4, 4, 20)
        params.rho_raw[:] = 100.0
        _, ta = forward_network(shards, params, L=20, dual_update="rho_step", seed=13)
        _, tb = forward_network(shards, params, L=20, dual_update="unit_step", seed=13)
        for ra, rb in zip(ta.cells, tb.cells):
            assert np.max(np.abs(ra.v - rb.v)) <= 1e-12
            assert np.max(np.abs(ra.z - rb.z)) <= 1e-12
            assert np.max(np.abs(ra.w - rb.w)) <= 1e-12
            assert np.max(np.abs(ra.alpha / 100.0 - rb.alpha)) <= 1e-12

    def test_dual_conventions_coincide_at_unit_penalty(self):
        shards = make_shards(M=2, seed=12)
        params = init_params(2, 4, 3)     # all penalties exactly 1
        va, _ = forward_network(shards, params, L=3, dual_update="rho_step", seed=12)
        vb, _ = forward_network(shards, params, L=3, dual_update="unit_step", seed=12)
        assert np.array_equal(va, vb)

    def test_minibatches_on_clients_of_different_sizes_replay(self):
        # batch size 8 draws a batch on the larger shards only; the
        # smaller one steps on all of its rows
        shards = make_uneven_shards([30, 6, 12], seed=14)
        rng = np.random.default_rng(3)
        params = random_params(3, 4, 3, rng)
        _, tape = forward_network(
            shards, params, L=3, mode="grad", seed=14,
            batch_rng=np.random.default_rng(9), batch_size=8,
        )
        full = client_stats(shards).gram
        for rec in tape.cells:
            assert np.array_equal(rec.gram[1], full[1])
            assert not np.array_equal(rec.gram[0], full[0])
            assert not np.array_equal(rec.gram[2], full[2])
        assert replay_tape(tape, shards, params, np.random.default_rng(9), 8)


@pytest.mark.parametrize("mode", MODES)
def test_each_cell_calls_each_layer_kernel_once(monkeypatch, mode):
    # phi1..phi4 in order, with the phi2 of the pass's mode only
    L = 3
    kernels = ("phi1_dual", "phi2_v_linear", "phi2_v_grad", "phi3_aux", "phi4_global")
    calls = []
    for name in kernels:
        def counted(*args, _name=name, _fn=getattr(unrolled_net, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(unrolled_net, name, counted)
    forward_network(make_shards(M=4, seed=3), init_params(4, 4, L), L=L, mode=mode, seed=3)
    phi2 = "phi2_v_linear" if mode == "linear" else "phi2_v_grad"
    assert calls == ["phi1_dual", phi2, "phi3_aux", "phi4_global"] * L


@pytest.mark.parametrize("mode", ["linear", "grad"])
def test_validation_counts_do_not_grow_with_clients(monkeypatch, mode):
    # a fixed number of validations per pass at any number of clients;
    # linear mode factors once per client and cell
    L = 3
    seen = []
    for M in (10, 40):
        shards = make_shards(M=M, n=20, seed=M)
        counts = count_calls(monkeypatch, ("spd_cholesky", "as_vector"))
        forward_network(shards, init_params(M, 4, L), L=L, mode=mode, seed=1)
        seen.append(dict(counts))
        monkeypatch.undo()
        assert counts["spd_cholesky"] == (M * L if mode == "linear" else 0)
    assert seen[0]["as_vector"] == seen[1]["as_vector"] <= L


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("L", [3, 10])
def test_parameters_and_draw_layout_are_set_up_once_per_pass(monkeypatch, mode, L):
    # gathering and clamping the parameters and laying out the minibatch
    # draws depend on neither the cell nor its state; linear mode draws
    # nothing
    shards = make_shards(M=6, n=20, seed=L)
    for tied in (False, True):
        params = random_params(6, 4, L, np.random.default_rng(L), tied=tied)
        counts = count_calls(monkeypatch, ("clamp_positive", "rectify", "minibatch_layout"))
        _, tape = forward_network(shards, params, L=L, mode=mode, seed=1,
                                  client_indices=np.array([4, 0, 2]),
                                  batch_rng=np.random.default_rng(L), batch_size=8)
        monkeypatch.undo()
        assert counts == {"clamp_positive": 1, "rectify": 1,
                          "minibatch_layout": 1 if mode == "grad" else 0}
        assert len(tape.cells) == L
        # the records' parameter fields are views of the pass's arrays
        for rec in tape.cells:
            assert np.shares_memory(rec.lam_eff, tape.params.lam_eff)
            assert np.shares_memory(rec.rho_eff, tape.params.rho_eff)


class _CountingGenerator:
    """A numpy Generator that counts the method calls made on it."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted


def test_grad_mode_draws_once_per_cell_at_any_number_of_clients():
    L = 3
    for M in (10, 40):
        shards = make_shards(M=M, n=20, seed=M)
        rng = _CountingGenerator(np.random.default_rng(M))
        _, tape = forward_network(shards, init_params(M, 4, L), L=L, mode="grad", seed=1,
                                  batch_rng=rng, batch_size=8)
        full = client_stats(shards).gram
        assert not any(np.array_equal(rec.gram[i], full[i])
                       for rec in tape.cells for i in range(M))
        assert rng.calls == L
