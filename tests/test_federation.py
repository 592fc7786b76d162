"""Round execution: message transcripts, participation, carried state,
and the experiment driver."""

import dataclasses

import numpy as np
import pytest

from conftest import client_sse, count_calls, make_shards, overflow_evaluation_from_call, random_params

from fedunroll.config import ExperimentConfig
from fedunroll import baselines, federation, math_core, unrolled_net
from fedunroll.baselines import RunResult
from fedunroll.datagen import SettingSpec, generate_setting
from fedunroll.errors import DimensionMismatch, NonFiniteInput, ProtocolViolation
from fedunroll.federation import (
    RoundMessage,
    Transcript,
    full_participation,
    run_round,
    run_unrolled_experiment,
    sample_participants,
)
from fedunroll.learner import init_optimizer
from fedunroll.unrolled_net import CellState, LearnableParams, init_params, init_state


def round_cfg(**kw) -> ExperimentConfig:
    base = dict(seed=0, L=4, rounds=3, epochs_per_round=2)
    base.update(kw)
    return ExperimentConfig(**base)


def fail_from_round(monkeypatch, first, cfg):
    """Make the server aggregation raise NonFiniteInput from round
    `first` on (full participation, every epoch runs L aggregations)."""
    calls = []
    original = unrolled_net.phi4_global

    def failing(*args):
        calls.append(None)
        if len(calls) > (first - 1) * cfg.epochs_per_round * cfg.L:
            raise NonFiniteInput("aggregated vector is not finite")
        return original(*args)

    monkeypatch.setattr(unrolled_net, "phi4_global", failing)


def one_round(shards, cfg, active=None):
    M = len(shards)
    k = shards[0].X_train.shape[1]
    params = init_params(M, k, cfg.L)
    opt = init_optimizer(params, kind=cfg.optimizer, lr=cfg.lr)
    state = init_state(M, k, seed=int(cfg.seed))
    active = full_participation(M) if active is None else active
    rr = run_round(shards, params, opt, state, active, cfg, round_index=1, epoch=1)
    return rr, state, params


class TestParticipation:
    def test_full_plan(self):
        assert np.array_equal(full_participation(4), np.array([0, 1, 2, 3]))

    def test_sample_size_is_ceiling(self):
        rng = np.random.default_rng(0)
        assert len(sample_participants(10, 0.5, rng)) == 5
        assert len(sample_participants(10, 0.55, rng)) == 6
        assert len(sample_participants(7, 0.5, rng)) == 4
        assert len(sample_participants(100, 0.3, rng)) == 30
        # each product reads 7.000000000000001, whose ceiling is 8
        for M, fraction in ((100, 0.07), (25, 0.28), (50, 0.14)):
            assert len(sample_participants(M, fraction, rng)) == 7, (M, fraction)

    def test_sample_unique_and_sorted(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            active = sample_participants(10, 0.5, rng)
            assert active.dtype.kind == "i"
            assert len(set(active.tolist())) == 5
            assert np.array_equal(active, np.sort(active))
            assert all(0 <= c < 10 for c in active)

    def test_sample_deterministic_per_generator_state(self):
        a = sample_participants(10, 0.3, np.random.default_rng(7))
        b = sample_participants(10, 0.3, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_bad_fraction(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            sample_participants(10, 0.0, rng)
        with pytest.raises(ValueError):
            sample_participants(10, 1.5, rng)


class TestTranscript:
    def test_counts_full_participation(self):
        shards = make_shards(M=5, seed=0)
        rr, _, _ = one_round(shards, round_cfg())
        c = rr.transcript.counts()
        assert c["client_vector"] == 5 * 4
        assert c["global_broadcast"] == 4
        assert c["loss_report"] == 5
        assert c["loss_sum_broadcast"] == 1
        rr.transcript.verify(n_active=5, L=4)

    def test_counts_partial_participation(self):
        shards = make_shards(M=6, seed=1)
        rr, _, _ = one_round(shards, round_cfg(), np.array([1, 4, 5]))
        c = rr.transcript.counts()
        assert c["client_vector"] == 3 * 4
        assert c["loss_report"] == 3
        ids = {m.client_id for m in rr.transcript.messages if m.kind == "client_vector"}
        assert ids == {2, 5, 6}

    def test_canonical_order(self):
        shards = make_shards(M=3, seed=2)
        rr, _, _ = one_round(shards, round_cfg(L=2))
        kinds = [m.kind for m in rr.transcript.messages]
        want = (
            ["client_vector"] * 3 + ["global_broadcast"]
        ) * 2 + ["loss_report"] * 3 + ["loss_sum_broadcast"]
        assert kinds == want
        layer1 = [m for m in rr.transcript.messages[:4]]
        assert [m.client_id for m in layer1] == [1, 2, 3, None]

    def test_verify_rejects_missing_message(self):
        shards = make_shards(M=3, seed=3)
        rr, _, _ = one_round(shards, round_cfg(L=2))
        t = rr.transcript
        t.messages.pop(0)
        with pytest.raises(ProtocolViolation):
            t.verify(n_active=3, L=2)

    def test_verify_rejects_reordering(self):
        shards = make_shards(M=3, seed=4)
        rr, _, _ = one_round(shards, round_cfg(L=2))
        t = rr.transcript
        t.messages[0], t.messages[3] = t.messages[3], t.messages[0]
        with pytest.raises(ProtocolViolation):
            t.verify(n_active=3, L=2)

    def test_broadcast_reconstructible_from_client_vectors(self):
        # channel purity: what the server aggregates is exactly what the
        # transcript carries
        shards = make_shards(M=4, seed=5)
        rr, _, params = one_round(shards, round_cfg())
        t = rr.transcript
        for layer in range(1, 5):
            us = np.stack([
                m.payload for m in t.messages
                if m.kind == "client_vector" and m.layer == layer
            ])
            w_msg = next(
                m.payload for m in t.messages
                if m.kind == "global_broadcast" and m.layer == layer
            )
            theta = params.p[rr.tape.cells[layer - 1].slot]
            omega = np.exp(theta - theta.max())
            w = (omega / omega.sum()) @ us
            assert np.array_equal(w, w_msg)

    def test_loss_reports_match_final_models(self):
        shards = make_shards(M=3, seed=6)
        rr, _, _ = one_round(shards, round_cfg())
        v_final = rr.tape.final_v()
        reports = [m for m in rr.transcript.messages if m.kind == "loss_report"]
        total = 0.0
        for m in reports:
            want = client_sse(
                shards[m.client_id - 1].X_train,
                v_final[m.client_id - 1],
                shards[m.client_id - 1].Y_train,
            )
            assert m.payload == want
            total += want
        final = rr.transcript.messages[-1]
        assert final.kind == "loss_sum_broadcast"
        assert final.payload == pytest.approx(total, rel=1e-15)
        assert rr.loss_sum == final.payload

    @pytest.mark.parametrize("mode", ["linear", "grad"])
    @pytest.mark.parametrize("dual_update", ["rho_step", "unit_step"])
    def test_payloads_are_what_the_aggregation_consumed(self, monkeypatch, mode, dual_update):
        # the transcript is rebuilt from the tape; its client vectors must
        # be, bit for bit and in order, the rows the server aggregated,
        # and each broadcast the w it returned
        seen = []
        original = unrolled_net.phi4_global

        def recording(u, omega):
            w = original(u, omega)
            seen.append((u.copy(), w.copy()))
            return w

        monkeypatch.setattr(unrolled_net, "phi4_global", recording)
        shards = make_shards(M=6, n=30, seed=22)
        cfg = round_cfg(mode=mode, dual_update=dual_update, batch_size=8)
        M, k = 6, 4
        params = init_params(M, k, cfg.L)
        rng = np.random.default_rng(23)
        params.rho_raw = rng.uniform(0.5, 2.0, params.rho_raw.shape)
        params.p = rng.normal(0.0, 1.0, params.p.shape)
        active = np.array([1, 2, 4])
        rr = run_round(shards, params, init_optimizer(params, kind=cfg.optimizer, lr=cfg.lr),
                       init_state(M, k, seed=0), active, cfg, 1, 1)
        assert len(seen) == cfg.L
        msgs = iter(rr.transcript.messages)
        for layer, (u, w) in enumerate(seen, start=1):
            for cid, row in zip(active + 1, u):
                m = next(msgs)
                assert (m.kind, m.layer, m.client_id) == ("client_vector", layer, cid)
                assert m.payload.tobytes() == row.tobytes()
            m = next(msgs)
            assert (m.kind, m.layer) == ("global_broadcast", layer)
            assert m.payload.tobytes() == w.tobytes()
        assert [m.kind for m in msgs] == ["loss_report"] * 3 + ["loss_sum_broadcast"]

    def test_digest_stable_and_sensitive(self):
        m1 = RoundMessage("client_vector", 1, 1, np.array([1.0, 2.0]))
        m2 = RoundMessage("client_vector", 1, 1, np.array([1.0, 2.0]))
        m3 = RoundMessage("client_vector", 1, 1, np.array([1.0, 2.0 + 1e-12]))
        assert m1.digest() == m2.digest()
        assert m1.digest() != m3.digest()


class TestRoundStateAndLearning:
    def test_carried_state_updated_for_active_rows_only(self):
        shards = make_shards(M=5, seed=7)
        cfg = round_cfg()
        M, k = 5, 4
        params = init_params(M, k, cfg.L)
        opt = init_optimizer(params, kind=cfg.optimizer, lr=cfg.lr)
        state = init_state(M, k, seed=0)
        before = state.copy()
        run_round(shards, params, opt, state, np.array([0, 2]), cfg, 1, 1)
        assert not np.array_equal(state.v[0], before.v[0])
        assert not np.array_equal(state.v[2], before.v[2])
        for idle in (1, 3, 4):
            assert np.array_equal(state.v[idle], before.v[idle])
            assert np.array_equal(state.z[idle], before.z[idle])
            assert np.array_equal(state.alpha[idle], before.alpha[idle])
        assert not np.array_equal(state.w, before.w)

    @pytest.mark.parametrize("active", [
        np.array([0.0, 2.0]),                  # float indices
        np.array([]),                          # empty, float by default
        np.array([], dtype=int),
        np.array([True, False, True]),         # a mask, not indices
        np.array([0, 0]),
        np.array([1, 3]),
    ])
    def test_active_sets_are_checked_before_the_state_is_read(self, active):
        shards = make_shards(M=3, seed=7)
        cfg = round_cfg()
        params = init_params(3, 4, cfg.L)
        opt = init_optimizer(params, kind=cfg.optimizer, lr=cfg.lr)
        state = init_state(3, 4, seed=0)
        before = state.copy()
        with pytest.raises(DimensionMismatch, match="client_indices must be"):
            run_round(shards, params, opt, state, active, cfg, 1, 1)
        for name in ("v", "z", "alpha", "w"):
            assert np.array_equal(getattr(state, name), getattr(before, name))
        assert opt.t == 0

    def test_round_advances_parameters(self):
        shards = make_shards(M=3, seed=8)
        rr, _, params = one_round(shards, round_cfg())
        assert not np.array_equal(rr.params.rho_raw, params.rho_raw)

    def test_round_objective_value_present(self):
        shards = make_shards(M=3, seed=9)
        rr, _, _ = one_round(shards, round_cfg())
        assert np.isfinite(rr.lagrangian_final)
        assert rr.lagrangian_final > 0

    def test_round_objective_is_evaluated_once_when_read(self, monkeypatch):
        calls = []
        original = federation.lagrangian

        def counted(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(federation, "lagrangian", counted)
        rr, _, _ = one_round(make_shards(M=3, seed=9), round_cfg())
        assert calls == []
        assert rr.lagrangian_final == rr.lagrangian_final == original(rr.tape, len(rr.tape.cells) - 1)
        assert len(calls) == 1
        # the driver reads it once per round, for the round's last epoch
        calls.clear()
        res = run_unrolled_experiment(round_cfg(rounds=3, epochs_per_round=2), make_shards(M=3, seed=9))
        assert len(calls) == 3
        assert all(np.isfinite(r.lagrangian_final_cell) for r in res.records)

    @pytest.mark.parametrize("mode", ["linear", "grad"])
    def test_final_residuals_are_computed_once_per_round(self, monkeypatch, mode):
        # the loss reports and the reverse pass's seed share one residual;
        # transcript off and objective unread
        calls = []
        original = math_core.RowStack.residuals

        def counted(self, V):
            calls.append(None)
            return original(self, V)

        monkeypatch.setattr(math_core.RowStack, "residuals", counted)
        rr, _, _ = one_round(make_shards(M=3, seed=9), round_cfg(mode=mode, batch_size=8))
        assert len(calls) == 1
        assert rr.losses == rr.tape.stats.rows.sse(rr.tape.final_v()).tolist()

    @pytest.mark.parametrize("mode", ["linear", "grad"])
    def test_the_objective_reads_the_rounds_final_residuals(self, monkeypatch, mode):
        # the epochs of a round and the objective read after its last one
        # make one residual computation per epoch, and the objective is
        # the one its own residuals give, bit for bit
        calls = []
        original = math_core.RowStack.residuals

        def counted(self, V):
            calls.append(None)
            return original(self, V)

        shards = make_shards(M=3, seed=9)
        cfg = round_cfg(mode=mode, batch_size=8)
        params = init_params(3, 4, cfg.L)
        opt = init_optimizer(params, kind=cfg.optimizer, lr=cfg.lr)
        state = init_state(3, 4, seed=0)
        monkeypatch.setattr(math_core.RowStack, "residuals", counted)
        for epoch in (1, 2):
            rr = run_round(shards, params, opt, state, full_participation(3), cfg,
                           round_index=1, epoch=epoch)
            params = rr.params
        objective = rr.lagrangian_final
        assert len(calls) == 2
        monkeypatch.undo()
        # a copy of the tape computes its own final residuals
        fresh = dataclasses.replace(rr.tape)
        assert objective == federation.lagrangian(fresh, len(fresh.cells) - 1)


@pytest.mark.parametrize("dual_update", ["rho_step", "unit_step"])
@pytest.mark.parametrize("policy", ["exact", "federated_local"])
@pytest.mark.parametrize("mode", ["linear", "grad"])
def test_a_round_over_active_clients_is_a_round_of_their_sub_federation(mode, policy, dual_update):
    # the clients that sit a round out take no part in it: a round over
    # S equals a round on S's shards, parameters and carried state with
    # every client active, bit for bit (equal shards stack equally)
    M, k = 8, 4
    active = np.array([1, 3, 4, 6])
    shards = generate_setting(SettingSpec(setting=3, M=M, n_per_client=40, seed=25))
    cfg = round_cfg(mode=mode, policy=policy, dual_update=dual_update, batch_size=16,
                    optimizer="adam", seed=25)
    params = random_params(M, k, cfg.L, np.random.default_rng(25))
    state = init_state(M, k, seed=25)
    state.w = np.random.default_rng(26).normal(size=k)
    sub_params = LearnableParams(lam_raw=params.lam_raw[:, active], rho_raw=params.rho_raw[:, active],
                                 p=params.p[:, active], L=cfg.L)
    sub_state = CellState(v=state.v[active], z=state.z[active], alpha=state.alpha[active],
                          w=state.w.copy())

    rr = run_round(shards, params, init_optimizer(params, kind="adam", lr=cfg.lr), state,
                   active, cfg, 2, 1)
    sub = run_round([shards[i] for i in active], sub_params,
                    init_optimizer(sub_params, kind="adam", lr=cfg.lr), sub_state,
                    full_participation(active.size), cfg, 2, 1)
    for rec, sub_rec in zip(rr.tape.cells, sub.tape.cells, strict=True):
        for name in ("v", "z", "alpha", "w"):
            assert np.array_equal(getattr(rec, name), getattr(sub_rec, name)), name
    assert rr.losses == sub.losses
    for name in ("lam_raw", "rho_raw", "p"):
        assert np.array_equal(getattr(rr.params, name)[:, active], getattr(sub.params, name)), name
    for name in ("v", "z", "alpha"):
        assert np.array_equal(getattr(state, name)[active], getattr(sub_state, name)), name
    assert np.array_equal(state.w, sub_state.w)


class TestExperimentDriver:
    def test_no_clients_rejected(self):
        with pytest.raises(DimensionMismatch, match="no client shards"):
            run_unrolled_experiment(round_cfg(), [])

    def test_record_cadence(self):
        shards = make_shards(M=3, n=30, seed=10)
        res = run_unrolled_experiment(round_cfg(rounds=6), shards)
        assert len(res.records) == 6
        assert [r.round for r in res.records] == list(range(1, 7))
        for r in res.records:
            assert r.method == "unrolled"
            assert r.loss_sum is not None
            assert r.lagrangian_final_cell is not None
            assert r.wall_ms is not None

    def test_zero_rounds_initial_evaluation(self):
        shards = make_shards(M=3, n=30, seed=11)
        res = run_unrolled_experiment(round_cfg(rounds=0), shards)
        assert len(res.records) == 1
        assert res.records[0].round == 0
        assert res.records[0].loss_sum is None

    def test_training_improves_over_initial(self):
        shards = make_shards(M=4, n=60, seed=12)
        res0 = run_unrolled_experiment(round_cfg(rounds=0, L=6), shards)
        res = run_unrolled_experiment(round_cfg(rounds=30, L=6), shards)
        assert res.mean_test_rmse < res0.mean_test_rmse

    def test_deterministic_rerun(self):
        shards = make_shards(M=3, n=30, seed=13)
        cfg = round_cfg(rounds=5)
        a = run_unrolled_experiment(cfg, shards)
        b = run_unrolled_experiment(cfg, shards)
        assert np.array_equal(a.models_raw, b.models_raw)
        for ra, rb in zip(a.records, b.records):
            assert ra.test_rmse == rb.test_rmse
            assert ra.loss_sum == rb.loss_sum

    def test_partial_participation_runs_and_covers_everyone(self):
        shards = make_shards(M=6, n=30, seed=14)
        cfg = round_cfg(rounds=12, participation=0.5, transcript=True)
        res = run_unrolled_experiment(cfg, shards)
        assert len(res.records) == 12
        seen = set()
        for t in res.transcripts:
            seen |= {m.client_id for m in t.messages if m.kind == "loss_report"}
        assert seen == {1, 2, 3, 4, 5, 6}

    def test_transcripts_collected_when_asked(self):
        shards = make_shards(M=3, n=20, seed=15)
        res = run_unrolled_experiment(round_cfg(rounds=2, transcript=True), shards)
        assert len(res.transcripts) == 2 * 2  # rounds x epochs
        res2 = run_unrolled_experiment(round_cfg(rounds=2), shards)
        assert res2.transcripts == []

    def test_transcript_off_builds_no_message(self, monkeypatch):
        # off costs nothing: no message object and no verification unless
        # the run asks for transcripts; on, one full round's worth per epoch
        counts = {"messages": 0, "verify": 0}
        message, verify = federation.RoundMessage, federation.Transcript.verify

        def counted_message(*args, **kwargs):
            counts["messages"] += 1
            return message(*args, **kwargs)

        def counted_verify(self, *args, **kwargs):
            counts["verify"] += 1
            return verify(self, *args, **kwargs)

        monkeypatch.setattr(federation, "RoundMessage", counted_message)
        monkeypatch.setattr(federation.Transcript, "verify", counted_verify)
        shards = make_shards(M=3, n=20, seed=15)
        run_unrolled_experiment(round_cfg(rounds=2), shards)
        assert counts == {"messages": 0, "verify": 0}
        run_unrolled_experiment(round_cfg(rounds=2, transcript=True), shards)
        m, L, epochs = 3, 4, 2 * 2
        assert counts == {"messages": epochs * (m * L + L + m + 1), "verify": epochs}

    def test_federated_local_policy_trains(self):
        shards = make_shards(M=3, n=30, seed=16)
        res = run_unrolled_experiment(
            round_cfg(rounds=10, policy="federated_local"), shards
        )
        assert not res.diverged
        assert np.isfinite(res.mean_test_rmse)

    def test_grad_mode_with_minibatches_trains(self):
        shards = make_shards(M=3, n=80, seed=17)
        res = run_unrolled_experiment(
            round_cfg(rounds=10, mode="grad", batch_size=32), shards
        )
        assert not res.diverged
        assert np.isfinite(res.mean_test_rmse)

    def test_grad_step_settings_reach_the_forward(self):
        shards = make_shards(M=3, n=80, seed=17)
        cfg = round_cfg(rounds=3, mode="grad", batch_size=32)
        one = run_unrolled_experiment(cfg.replace(grad_steps=1), shards)
        five = run_unrolled_experiment(cfg.replace(grad_steps=5), shards)
        assert one.mean_test_rmse != five.mean_test_rmse
        explicit = run_unrolled_experiment(cfg.replace(grad_lr=0.01, grad_steps=5), shards)
        default = run_unrolled_experiment(cfg, shards)
        assert np.array_equal(default.models_raw, explicit.models_raw)
        assert default.mean_test_rmse == explicit.mean_test_rmse

    def test_tied_parameters_train(self):
        shards = make_shards(M=3, n=30, seed=18)
        res = run_unrolled_experiment(round_cfg(rounds=5, tied=True), shards)
        assert res.params.lam_raw.shape[0] == 1
        assert not res.diverged

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_configuration_marked_not_raised(self):
        # a penalty-scaled dual step with a huge fixed penalty and a
        # plain-GD parameter update blows the iterates up quickly; the
        # driver must record the divergence instead of crashing
        shards = make_shards(M=3, n=30, seed=19)
        cfg = round_cfg(rounds=40, L=20, optimizer="gd", lr=1e6)
        res = run_unrolled_experiment(cfg, shards)
        if res.diverged:
            last = res.records[-1]
            assert not np.isfinite(last.test_rmse)
        else:
            assert np.isfinite(res.mean_test_rmse)

    @pytest.mark.parametrize("mode", ["linear", "grad"])
    @pytest.mark.parametrize("participation", [1.0, 0.5])
    def test_rows_stacked_a_fixed_number_of_times_per_run(self, monkeypatch, mode, participation):
        # the evaluation's training and test rows, once per run; the
        # training statistics are built from the same stack, and every
        # round's forward, backward, loss reports and augmented objective
        # read the active clients' entries of them
        shards = make_shards(M=4, n=30, seed=21)
        seen = []
        for rounds in (2, 3):
            cfg = round_cfg(rounds=rounds, mode=mode, batch_size=8, participation=participation)
            counts = count_calls(monkeypatch, ("stack_rows",))
            run_unrolled_experiment(cfg, shards)
            monkeypatch.undo()
            seen.append(counts["stack_rows"])
        assert seen[0] == seen[1] <= 2

    @pytest.mark.parametrize("rounds", [0, 3])
    def test_evaluates_through_the_baselines_module(self, monkeypatch, rounds):
        # one evaluation per recorded round, looked up in `baselines` at
        # call time, so that rebinding the name there reaches this driver
        calls = []
        original = baselines.evaluate_models

        def counted(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(baselines, "evaluate_models", counted)
        res = run_unrolled_experiment(round_cfg(rounds=rounds), make_shards(M=3, n=30, seed=22))
        assert len(calls) == len(res.records) == max(rounds, 1)
        assert isinstance(res, RunResult) and not res.diverged

    def test_non_finite_evaluation_ends_the_run(self, monkeypatch):
        # the baselines' divergence rule: models whose RMSE overflows
        # are not recorded as a normal round
        overflow_evaluation_from_call(monkeypatch, 2)
        res = run_unrolled_experiment(round_cfg(rounds=4), make_shards(M=3, n=30, seed=20))
        assert res.diverged
        assert [r.round for r in res.records] == [1, 2]
        assert np.isfinite(res.records[0].test_rmse) and np.isfinite(res.records[0].train_rmse)
        last = res.records[1]
        assert np.isnan(last.train_rmse) and np.isnan(last.test_rmse)
        assert np.isnan(last.loss_sum) and np.isnan(last.lagrangian_final_cell)
        assert np.isnan(res.mean_test_rmse)

    def test_nonfinite_aggregation_marked_not_raised(self, monkeypatch):
        # the aggregation turns non-finite from round 2 on; the driver
        # must record the divergence instead of aborting the run
        shards = make_shards(M=3, n=30, seed=20)
        cfg = round_cfg(rounds=4)
        fail_from_round(monkeypatch, 2, cfg)
        res = run_unrolled_experiment(cfg, shards)
        assert res.diverged
        assert [r.round for r in res.records] == [1, 2]
        assert np.isfinite(res.records[0].test_rmse)
        assert np.isnan(res.records[1].test_rmse)
        assert np.isnan(res.records[1].loss_sum)

    @pytest.mark.parametrize("first", [1, 2])
    def test_diverged_run_reports_nan_test_rmse(self, monkeypatch, first):
        # neither the untrained state's error nor the last good round's
        # may stand in for a diverged run's result
        shards = make_shards(M=3, n=30, seed=20)
        cfg = round_cfg(rounds=4)
        fail_from_round(monkeypatch, first, cfg)
        res = run_unrolled_experiment(cfg, shards)
        assert res.diverged
        assert len(res.records) == first
        assert np.isnan(res.mean_test_rmse) and np.isnan(res.std_test_rmse)
        assert res.per_client_test_rmse.shape == (3,)
        assert np.all(np.isnan(res.per_client_test_rmse))


def assert_trained_undiverged(res, rounds):
    assert not res.diverged
    assert len(res.records) == rounds
    for r in res.records:
        for value in (r.train_rmse, r.test_rmse, r.loss_sum, r.lagrangian_final_cell):
            assert np.isfinite(value)
    assert np.isfinite(res.mean_test_rmse)


def test_partial_participation_instance_trains_undiverged():
    # a grad-mode instance with 30% participation and minibatches: the
    # softmax aggregation weights sum to one over each round's active
    # clients, so no layer's weight sum can collapse and training stays
    # finite through all 30 rounds
    cfg = ExperimentConfig(
        setting=3, M=100, n_per_client=200, seed=6064, L=10, rounds=30,
        mode="grad", participation=0.3, batch_size=64,
    )
    shards = generate_setting(SettingSpec(setting=3, M=100, n_per_client=200, seed=6064))
    assert_trained_undiverged(run_unrolled_experiment(cfg, shards), 30)


def test_thousand_clients_train_undiverged():
    # at M = 1000 one gradient step on unconstrained weights once sent
    # the layers' weight sums to 1e6 and the loss to 1e116 in round 2
    cfg = ExperimentConfig(seed=42, setting=1, M=1000, n_per_client=20, rounds=3)
    shards = generate_setting(SettingSpec(setting=1, M=1000, n_per_client=20, seed=42))
    assert_trained_undiverged(run_unrolled_experiment(cfg, shards), 3)
