"""Reverse pass: hand-derived adjoints vs finite differences, gradient
boundary policies, and the optimizers."""

import dataclasses
import itertools

import numpy as np
import pytest

from conftest import count_calls, make_shards, make_uneven_shards, random_params, zero_grads

from fedunroll import learner
from fedunroll.errors import LayoutMismatch, NonFiniteGradient, TapeMismatch
from fedunroll.learner import (
    PARAM_FIELDS,
    backward,
    fd_gradient,
    init_optimizer,
    optimizer_step,
)
from fedunroll.datagen import SettingSpec, generate_setting
from fedunroll.math_core import chol_solve, rowdot
from fedunroll.unrolled_net import (
    DUAL_UPDATES,
    MODES,
    CellState,
    LearnableParams,
    client_stats,
    forward_network,
    init_params,
)

KINK_MARGIN = 1e-3


def near_kink(field: str, value: float) -> bool:
    """True when a raw coordinate sits too close to its rectifier or
    clamp kink for a central difference to be one-sided-safe."""
    if field == "lam_raw":
        return abs(value) < KINK_MARGIN
    if field == "rho_raw":
        return abs(value - 1e-6) < KINK_MARGIN
    return False


def check_against_fd(shards, params, seed, rel_tol=1e-5, mode="linear",
                     dual="rho_step", probe_per_field=4, rng=None, **forward_kwargs):
    rng = rng or np.random.default_rng(0)
    forward_kwargs.update(mode=mode, dual_update=dual, seed=seed)
    _, tape = forward_network(shards, params, L=params.L, **forward_kwargs)
    grads = backward(tape, shards)
    worst = 0.0
    for field in PARAM_FIELDS:
        arr = getattr(params, field)
        flat_n = arr.size
        for pos in rng.choice(flat_n, size=min(probe_per_field, flat_n), replace=False):
            idx = np.unravel_index(pos, arr.shape)
            if near_kink(field, float(arr[idx])):
                continue
            an = float(getattr(grads, field)[idx])
            # h = 1e-5 cannot resolve a component far below the loss scale:
            # when it misses 5e-6, keep the better with h = 1e-4 (criterion
            # 1's ladder; the tolerance is unchanged)
            rel = np.inf
            for h in (1e-5, 1e-4):
                fd = fd_gradient(shards, params, (field, idx), h=h, **forward_kwargs)
                rel = min(rel, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
                if rel <= 5e-6:
                    break
            worst = max(worst, rel)
            assert rel <= rel_tol, f"{field}{idx}: fd={fd} analytic={an} rel={rel}"
    return worst


def _oracle_reverse_pass(tape, grads, vbar, keep_mask):
    """The reverse pass with a client mask: only the kept clients' chains
    carry adjoints through the aggregation boundary, while the
    aggregation-logit edge is accumulated for every client."""
    m, k = tape.m_active, tape.k
    idx = tape.client_indices
    zbar = np.zeros((m, k))
    albar = np.zeros((m, k))
    wbar = np.zeros(k)
    km = keep_mask[:, None]
    kept = np.flatnonzero(keep_mask)

    for i in reversed(range(len(tape.cells))):
        rec, prev = tape.cells[i], tape.inputs(i)
        s = rec.slot
        rho = rec.rho_eff
        sw = rec.step_w[:, None]
        a = rec.alpha / sw

        # phi4: w = sum(omega_i u_i), d w / d theta_i = omega_i (u_i - w)
        u = rec.v - rec.z - a
        contrib = rec.omega[:, None] * wbar[None, :]
        contrib = np.where(km, contrib, 0.0)
        vbar += contrib
        zbar -= contrib
        albar -= contrib / sw
        abar = -contrib
        grads.p[s, idx] += rec.omega * ((u - rec.w[None, :]) @ wbar)
        wbar = np.zeros(k)

        # phi3
        d = rec.v - prev.w[None, :] - a
        denom = rec.lam_eff + rho[:, None]
        sfac = rho[:, None] / denom
        sz = sfac * zbar
        vbar += sz
        albar -= sz / sw
        abar -= sz
        wbar -= sz.sum(axis=0)
        grads.lam_raw[s, idx] += -zbar * rho[:, None] * d / denom**2 * rec.lam_on
        grads.rho_raw[s, idx] += (zbar * d * rec.lam_eff / denom**2).sum(axis=1) * rec.rho_on
        zbar = np.zeros((m, k))

        # phi2, on the kept clients
        anchor = prev.w + prev.z[kept] + a[kept]
        vb = vbar[kept]
        rho_k = rho[kept, None]
        if tape.mode == "linear":
            t = chol_solve(rec.chol[kept], vb)
            anchor_bar = rho_k * t
            rho_bar = rowdot(t, anchor - rec.v[kept])
            vb = np.zeros_like(vb)
        else:
            lr = tape.grad_lr
            H = 2.0 * rec.gram[kept]
            anchor_bar = np.zeros_like(vb)
            rho_bar = np.zeros(kept.shape[0])
            for t in range(tape.grad_steps - 1, -1, -1):
                v_t = rec.v_iterates[t - 1, kept] if t > 0 else prev.v[kept]
                rho_bar += -lr * rowdot(vb, v_t - anchor)
                anchor_bar += lr * rho_k * vb
                vb = vb - lr * ((H @ vb[:, :, None])[:, :, 0] + rho_k * vb)
        vbar = np.zeros((m, k))
        vbar[kept] = vb
        albar[kept] += anchor_bar / sw[kept]
        abar[kept] += anchor_bar
        zbar[kept] += anchor_bar
        wbar = np.concatenate((wbar[None, :], anchor_bar)).sum(axis=0)
        grads.rho_raw[s, idx[kept]] += rho_bar * rec.rho_on[kept]
        if tape.dual_update == "rho_step":
            grads.rho_raw[s, idx] -= (abar * a).sum(axis=1) / rho * rec.rho_on

        # phi1
        vbar -= sw * albar
        zbar += sw * albar
        wbar += (sw * albar).sum(axis=0)
        if tape.dual_update == "rho_step":
            resid = prev.z - prev.v + prev.w[None, :]
            grads.rho_raw[s, idx] += (albar * resid).sum(axis=1) * rec.rho_on


def _oracle_federated_local(tape, shards):
    """federated_local gradients by one masked reverse pass per active
    client, each seeded with that client's loss alone."""
    rows = client_stats(shards).take(tape.client_indices).rows
    seed = 2.0 * rows.xt(rows.residuals(tape.final_v()))

    m = tape.m_active
    proto = LearnableParams(
        lam_raw=np.zeros((tape.slots, tape.M_total, tape.k)),
        rho_raw=np.zeros((tape.slots, tape.M_total)),
        p=np.zeros((tape.slots, tape.M_total)),
        L=tape.L,
    )
    grads = zero_grads(proto)
    for i in range(m):
        gi = zero_grads(proto)
        keep = np.zeros(m, dtype=bool)
        keep[i] = True
        _oracle_reverse_pass(tape, gi, np.where(keep[:, None], seed, 0.0), keep)
        ci = tape.client_indices[i]
        grads.lam_raw[:, ci] += gi.lam_raw[:, ci]
        grads.rho_raw[:, ci] += gi.rho_raw[:, ci]
        grads.p += gi.p
    return grads


class TestBackwardVsFiniteDifferences:
    @pytest.mark.parametrize("mode", ["linear", "grad"])
    @pytest.mark.parametrize("dual", ["rho_step", "unit_step"])
    def test_all_modes(self, mode, dual):
        rng = np.random.default_rng([7, MODES.index(mode), DUAL_UPDATES.index(dual)])
        for inst in range(3):
            M, k, L = 3, 4, 3
            shards = make_shards(M=M, k=k, n=20, seed=100 + inst)
            params = random_params(M, k, L, rng)
            check_against_fd(
                shards, params, seed=inst, mode=mode, dual=dual, rng=rng
            )

    @pytest.mark.parametrize("steps", [1, 2])
    def test_grad_mode_at_few_steps(self, steps):
        # at one step a record keeps no iterate and the reverse pass reads
        # the step's start from the cell's input alone
        rng = np.random.default_rng(17)
        for inst in range(2):
            shards = make_shards(M=3, n=20, seed=200 + inst)
            params = random_params(3, 4, 3, rng)
            check_against_fd(shards, params, seed=inst, mode="grad", rng=rng, grad_steps=steps)

    @pytest.mark.parametrize("mode", ["linear", "grad"])
    def test_clients_of_different_sizes(self, mode):
        rng = np.random.default_rng(19)
        for inst in range(2):
            shards = make_uneven_shards(rng.integers(5, 30, size=3), seed=50 + inst)
            params = random_params(3, 4, 3, rng)
            check_against_fd(shards, params, seed=inst, mode=mode, rng=rng)

    def test_tied_parameters(self):
        rng = np.random.default_rng(11)
        shards = make_shards(M=3, n=20, seed=42)
        params = random_params(3, 4, 4, rng, tied=True)
        assert params.lam_raw.shape[0] == 1
        check_against_fd(shards, params, seed=9, rng=rng, probe_per_field=6)

    def test_a_pass_of_fewer_layers_gets_gradients_shaped_like_the_parameters(self):
        # the slots of the layers that did not run get zero gradients
        shards = make_shards(M=3, seed=40)
        params = random_params(3, 4, 5, np.random.default_rng(40))
        _, tape = forward_network(shards, params, L=3, seed=40)
        grads = backward(tape, shards)
        for name in PARAM_FIELDS:
            assert getattr(grads, name).shape == getattr(params, name).shape, name
            assert not getattr(grads, name)[3:].any(), name
        optimizer_step(params, grads, init_optimizer(params))
        coord = (1, 2, 1)
        fd = fd_gradient(shards, params, ("lam_raw", coord), L=3, seed=40)
        assert abs(grads.lam_raw[coord] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_gradient_nonzero_where_expected(self):
        rng = np.random.default_rng(12)
        shards = make_shards(M=3, seed=13)
        params = random_params(3, 4, 3, rng)
        _, tape = forward_network(shards, params, L=3, seed=13)
        grads = backward(tape, shards)
        assert np.any(grads.lam_raw[:-1] != 0.0)
        assert np.any(grads.rho_raw != 0.0)
        assert np.any(grads.p[:-1] != 0.0)

    def test_last_layer_consensus_and_weights_have_zero_gradient(self):
        # the final aggregation and shrinkage never influence the final
        # per-client models, so their parameters receive no signal
        rng = np.random.default_rng(14)
        shards = make_shards(M=3, seed=15)
        params = random_params(3, 4, 3, rng)
        _, tape = forward_network(shards, params, L=3, seed=15)
        grads = backward(tape, shards)
        assert np.array_equal(grads.lam_raw[-1], np.zeros_like(grads.lam_raw[-1]))
        assert np.array_equal(grads.p[-1], np.zeros_like(grads.p[-1]))
        assert np.any(grads.rho_raw[-1] != 0.0)

    @pytest.mark.parametrize("policy", ["exact", "federated_local"])
    def test_logit_gradients_sum_to_zero_over_active_clients(self, policy):
        # a common shift of the active clients' logits leaves every weight
        # unchanged, so their gradients sum to zero in each slot; inactive
        # clients' logits get none
        rng = np.random.default_rng(15)
        shards = make_shards(M=5, seed=16)
        params = random_params(5, 4, 4, rng)
        idx = np.array([0, 2, 3])
        _, tape = forward_network(shards, params, L=4, seed=16, client_indices=idx)
        g = backward(tape, shards, policy=policy).p
        assert np.all(np.abs(g[:, idx].sum(axis=1)) <= 1e-12 * np.abs(g).max())
        assert np.any(g[:-1, idx] != 0.0)
        assert np.array_equal(g[:, [1, 4]], np.zeros((4, 2)))

    def test_rectified_off_coordinate_gets_zero_gradient(self):
        rng = np.random.default_rng(16)
        shards = make_shards(M=2, seed=17)
        params = random_params(2, 4, 2, rng)
        params.lam_raw[0, 0, 0] = -0.7
        _, tape = forward_network(shards, params, L=2, seed=17)
        grads = backward(tape, shards)
        assert grads.lam_raw[0, 0, 0] == 0.0

    def test_consensus_weight_signal_at_converged_state(self):
        # setting 1 (coefficient 3 personal), default parameters, state
        # carried until the iteration has converged: the training-loss
        # gradient of the consensus weights sits in layer L-1, where the
        # personal coefficient's weight is pushed down for every client
        # and its gradient dwarfs the shared coefficients'
        shards = generate_setting(SettingSpec(setting=1, M=10, n_per_client=200, seed=42))
        params = init_params(10, 4, 10)
        state = None
        for _ in range(5):
            _, tape = forward_network(shards, params, state0=state, seed=42)
            last = tape.cells[-1]
            state = CellState(last.v, last.z, last.alpha, last.w)
        grad = backward(tape, shards).lam_raw
        g = np.abs(grad)
        assert np.all(grad[-2, :, 3] > 0.0)
        assert g[-2, :, 3].mean() > 10.0 * g[-2, :, :3].mean(axis=0).max()
        assert g[-2].mean() > 1e3 * g[:-2].mean(axis=(1, 2)).max()

    def test_loss_seed_matches_objective(self):
        shards = make_shards(M=3, seed=18)
        params = init_params(3, 4, 2)
        v, tape = forward_network(shards, params, L=2, seed=18)
        total = tape.stats.rows.sse(v).sum()
        manual = 0.0
        for i, sh in enumerate(shards):
            r = sh.X_train @ v[i] - sh.Y_train
            manual += float(r @ r)
        assert abs(total - manual) < 1e-12


class TestFederatedLocalPolicy:
    def test_single_client_equals_exact(self):
        rng = np.random.default_rng(20)
        shards = make_shards(M=1, seed=21)
        params = random_params(1, 4, 3, rng)
        _, tape = forward_network(shards, params, L=3, seed=21)
        ge = backward(tape, shards, policy="exact")
        gf = backward(tape, shards, policy="federated_local")
        for field in PARAM_FIELDS:
            assert np.allclose(
                getattr(ge, field), getattr(gf, field), rtol=0, atol=1e-15
            )

    def test_single_layer_equals_exact(self):
        # with one cell there is no relay step between clients, so
        # cutting cross-client paths removes nothing
        rng = np.random.default_rng(22)
        shards = make_shards(M=3, seed=23)
        params = random_params(3, 4, 1, rng)
        _, tape = forward_network(shards, params, L=1, seed=23)
        ge = backward(tape, shards, policy="exact")
        gf = backward(tape, shards, policy="federated_local")
        for field in PARAM_FIELDS:
            assert np.allclose(
                getattr(ge, field), getattr(gf, field), rtol=0, atol=1e-12
            )

    def test_policies_differ_when_relay_paths_exist(self):
        rng = np.random.default_rng(24)
        shards = make_shards(M=3, seed=25)
        params = random_params(3, 4, 4, rng)
        _, tape = forward_network(shards, params, L=4, seed=25)
        ge = backward(tape, shards, policy="exact")
        gf = backward(tape, shards, policy="federated_local")
        assert not np.allclose(ge.lam_raw, gf.lam_raw, atol=1e-12)

    def test_unknown_policy_rejected(self):
        shards = make_shards(M=2, seed=26)
        params = init_params(2, 4, 2)
        _, tape = forward_network(shards, params, L=2, seed=26)
        with pytest.raises(ValueError):
            backward(tape, shards, policy="mystery")


class TestFederatedLocalOnePass:
    """The single reverse pass with a per-client w-adjoint against one
    masked pass per client."""

    @pytest.mark.parametrize("mode", ["linear", "grad"])
    @pytest.mark.parametrize("dual", ["rho_step", "unit_step"])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("uneven", [False, True])
    def test_matches_one_pass_per_client(self, mode, dual, tied, partial, uneven):
        rng = np.random.default_rng(60)
        if uneven:
            shards = make_uneven_shards([7, 25, 12, 30, 9], seed=61)
        else:
            shards = make_shards(M=5, n=20, seed=61)
        params = random_params(5, 4, 4, rng, tied=tied)
        idx = np.array([0, 2, 3]) if partial else None
        _, tape = forward_network(
            shards, params, L=4, mode=mode, dual_update=dual, seed=62, client_indices=idx
        )
        got = backward(tape, shards, policy="federated_local")
        want = _oracle_federated_local(tape, shards)
        for field in ("lam_raw", "rho_raw"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        for field in PARAM_FIELDS:
            g, w = getattr(got, field), getattr(want, field)
            assert np.any(w != 0.0), field
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), field

    @pytest.mark.parametrize("policy", ["exact", "federated_local"])
    def test_one_solve_per_cell(self, monkeypatch, policy):
        # linear mode: one batched chol_solve per cell, at any number of clients
        L = 3
        for M in (10, 40):
            shards = make_shards(M=M, n=20, seed=M)
            _, tape = forward_network(shards, init_params(M, 4, L), L=L, seed=1)
            counts = count_calls(monkeypatch, ("chol_solve",))
            backward(tape, shards, policy=policy)
            monkeypatch.undo()
            assert counts["chol_solve"] == L


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dual", DUAL_UPDATES)
@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("L", [3, 4])
@pytest.mark.parametrize("partial", [False, True])
def test_exact_backward_equals_the_oracle_bit_for_bit(mode, dual, tied, L, partial):
    # the oracle adds each cell's parameter terms as the cell runs; the
    # reverse pass adds them after the recursion, over the stacked cells,
    # and must reach the same sums in the same order. L = 3 runs fewer
    # layers than the 4 slots; tied slots sum over every cell
    shards = make_shards(M=5, n=20, seed=70)
    params = random_params(5, 4, 4, np.random.default_rng(71), tied=tied)
    kw = dict(L=L, mode=mode, dual_update=dual, seed=72,
              client_indices=np.array([3, 0, 2]) if partial else None,
              batch_rng=np.random.default_rng(73), batch_size=12)
    _, tape = forward_network(shards, params, **kw)
    got = backward(tape, shards, "exact")
    want = zero_grads(params)
    seed = 2.0 * tape.stats.rows.xt(tape.final_residuals)
    _oracle_reverse_pass(tape, want, seed, np.ones(tape.m_active, dtype=bool))
    for name in PARAM_FIELDS:
        assert np.any(getattr(want, name) != 0.0), name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _grad_steps_running_sum(vbar, H, rho_k, lr, steps):
    """The adjoint of grad mode's steps with anchor_bar as a running sum
    from zeros, step by step."""
    lr_rho = lr * rho_k
    anchor_bar = np.zeros(vbar.shape)
    entering = []
    for _ in range(steps):
        entering.append(vbar)
        anchor_bar += lr_rho * vbar
        vbar = vbar - lr * ((H @ vbar[:, :, None])[:, :, 0] + rho_k * vbar)
    return np.array(entering), vbar, anchor_bar


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_grad_steps_adjoint_equals_the_running_sum_with_its_signed_zeros(steps):
    # rows of +0.0 and -0.0 among nonzero ones: the running sum starts at
    # +0.0, so a row of -0.0 terms sums to +0.0 there, and must here too
    rng = np.random.default_rng(steps)
    m, k = 6, 4
    X = rng.normal(size=(m, 9, k))
    H = 2.0 * (X.transpose(0, 2, 1) @ X)
    rho_k = rng.uniform(0.1, 3.0, (m, 1))
    vbar = rng.normal(size=(m, k))
    vbar[1] = 0.0
    vbar[3] = -0.0
    vbar[4, :2] = -0.0
    got = learner._grad_steps_adjoint(vbar.copy(), H, rho_k, 0.01, steps)
    want = _grad_steps_running_sum(vbar.copy(), H, rho_k, 0.01, steps)
    assert np.signbit(want[2][3]).sum() == 0
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("tied", [False, True])
def test_a_seed_with_zero_rows_gives_the_running_sum_gradients_byte_for_byte(mode, tied):
    # the entering adjoints of two clients are zero (+0.0 and -0.0) all
    # the way back: every gradient byte, signed zeros included, is the
    # oracle's, which adds each term as its cell runs
    shards = make_shards(M=6, n=20, seed=74)
    params = random_params(6, 4, 4, np.random.default_rng(75), tied=tied)
    _, tape = forward_network(shards, params, mode=mode, seed=76,
                              client_indices=np.array([4, 0, 5, 2]),
                              batch_rng=np.random.default_rng(77), batch_size=12)
    seed = 2.0 * tape.stats.rows.xt(tape.final_residuals)
    seed[1] = 0.0
    seed[3] = -0.0
    got, want = zero_grads(params), zero_grads(params)
    learner._reverse_pass(tape, got, seed.copy(), per_client=False)
    _oracle_reverse_pass(tape, want, seed.copy(), np.ones(tape.m_active, dtype=bool))
    for name in PARAM_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("L", [3, 10])
def test_backward_writes_each_population_gradient_once(monkeypatch, mode, L):
    # the reverse pass accumulates the active clients' gradients in dense
    # buffers and writes each [slots, M(, k)] field once, at any L
    writes = {}

    def counting(name):
        class Counting(np.ndarray):
            def __setitem__(self, key, value):
                writes[name] += 1
                super().__setitem__(key, value)
        return Counting

    @dataclasses.dataclass
    class Recorded(learner.ParamGradients):
        def __post_init__(self):
            for name in PARAM_FIELDS:
                setattr(self, name, getattr(self, name).view(counting(name)))

    shards = make_shards(M=6, n=20, seed=L)
    kw = dict(L=L, mode=mode, seed=2, client_indices=np.array([4, 0, 2]),
              batch_rng=np.random.default_rng(L), batch_size=8)
    for tied, policy in itertools.product((False, True), ("exact", "federated_local")):
        params = random_params(6, 4, L, np.random.default_rng(L), tied=tied)
        _, tape = forward_network(shards, params, **kw)
        want = backward(tape, shards, policy=policy)
        writes.update(dict.fromkeys(PARAM_FIELDS, 0))
        monkeypatch.setattr(learner, "ParamGradients", Recorded)
        got = backward(tape, shards, policy=policy)
        monkeypatch.undo()
        assert writes == dict.fromkeys(PARAM_FIELDS, 1)
        for name in PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(got, name)), getattr(want, name))


class TestTapeChecks:
    def test_shard_count_mismatch(self):
        shards = make_shards(M=3, seed=30)
        params = init_params(3, 4, 2)
        _, tape = forward_network(shards, params, L=2, seed=30)
        with pytest.raises(TapeMismatch):
            backward(tape, shards[:2])

    def test_empty_tape(self):
        shards = make_shards(M=2, seed=31)
        params = init_params(2, 4, 2)
        _, tape = forward_network(shards, params, L=2, seed=31)
        tape.cells.clear()
        with pytest.raises(TapeMismatch):
            backward(tape, shards)

    def test_feature_dim_mismatch(self):
        shards = make_shards(M=2, seed=32)
        params = init_params(2, 4, 2)
        _, tape = forward_network(shards, params, L=2, seed=32)
        other = make_shards(M=2, k=3, seed=33)
        with pytest.raises(TapeMismatch):
            backward(tape, other)


class TestOptimizers:
    def test_gd_step_formula(self):
        params = init_params(2, 4, 2)
        grads = zero_grads(params)
        grads.rho_raw[:] = 2.0
        state = init_optimizer(params, kind="gd", lr=0.1)
        out = optimizer_step(params, grads, state)
        assert np.allclose(out.rho_raw, params.rho_raw - 0.2, atol=1e-15)
        assert np.array_equal(out.lam_raw, params.lam_raw)

    def test_adam_matches_manual_three_steps(self):
        rng = np.random.default_rng(40)
        params = init_params(2, 3, 2)
        state = init_optimizer(params, kind="adam", lr=0.05)
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        m = np.zeros_like(params.p)
        v = np.zeros_like(params.p)
        theta = params.p.copy()
        cur = params
        for t in range(1, 4):
            grads = zero_grads(cur)
            g = rng.normal(size=cur.p.shape)
            grads.p[:] = g
            cur = optimizer_step(cur, grads, state)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
            assert np.allclose(cur.p, theta, atol=1e-14), f"step {t}"

    def test_adam_untouched_fields_decay_to_no_move(self):
        params = init_params(2, 3, 2)
        state = init_optimizer(params, kind="adam", lr=0.05)
        grads = zero_grads(params)
        out = optimizer_step(params, grads, state)
        assert np.array_equal(out.lam_raw, params.lam_raw)
        assert np.array_equal(out.p, params.p)

    def test_optimizer_layout_check(self):
        params = init_params(2, 3, 2)
        state = init_optimizer(params, kind="gd", lr=0.1)
        other = init_params(3, 3, 2)
        grads = zero_grads(other)
        with pytest.raises(LayoutMismatch):
            optimizer_step(params, grads, state)

    def test_unknown_optimizer(self):
        params = init_params(2, 3, 2)
        with pytest.raises(ValueError):
            init_optimizer(params, kind="sgd-momentum")

    def test_nonfinite_gradient_detected(self):
        params = init_params(2, 3, 2)
        grads = zero_grads(params)
        grads.rho_raw[0, 0] = np.inf
        with pytest.raises(NonFiniteGradient):
            grads.check_finite()
