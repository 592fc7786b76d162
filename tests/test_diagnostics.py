"""Objective evaluation, descent checking and weight reports.

The augmented objective is checked against `straight_line_objective`, an
independent per-term transcription coded below with scalar loops.
"""

import math

import numpy as np
import pytest

from conftest import count_calls, make_shards, random_params

from fedunroll.diagnostics import (
    RHO_DESCENT_REGIME,
    CellTrace,
    check_descent,
    lagrangian,
    lambda_report,
    trace_from_tape,
)
from fedunroll.errors import DimensionMismatch
from fedunroll.unrolled_net import CellState, client_stats, forward_network, init_params


def straight_line_objective(shards, state, lam, rho, theta, dual="rho_step"):
    """sum_i omega_i [ ||X_i v_i - Y_i||^2 + z_i' diag(lam_i)+ z_i
    + rho_i/2 ||z_i - v_i + w + alpha_i / step_i||^2 ], with omega the
    softmax of the logits theta, scalar loops throughout; step_i is rho_i
    under rho_step and 1 under unit_step."""
    M, k = state.v.shape
    top = max(theta)
    es = [math.exp(theta[i] - top) for i in range(M)]
    total = 0.0
    for i in range(M):
        F = 0.0
        Xi, Yi = shards[i].X_train, shards[i].Y_train
        for r in range(Xi.shape[0]):
            pred = 0.0
            for j in range(k):
                pred += Xi[r, j] * state.v[i, j]
            F += (pred - Yi[r]) ** 2
        quad = 0.0
        pen = 0.0
        rho_i = rho[i] if rho[i] > 1e-6 else 1e-6
        step = rho_i if dual == "rho_step" else 1.0
        for j in range(k):
            lam_j = lam[i, j] if lam[i, j] > 0 else 0.0
            quad += state.z[i, j] * lam_j * state.z[i, j]
            resid = state.z[i, j] - state.v[i, j] + state.w[j] + state.alpha[i, j] / step
            pen += resid * resid
        total += es[i] / sum(es) * (F + quad + 0.5 * rho_i * pen)
    return total


class TestObjective:
    def test_matches_straight_line(self):
        # the objective after layer 2 of a forward from a random state,
        # read from the cell's record, against the raw parameters
        rng = np.random.default_rng(0)
        for inst in range(5):
            M, k = 3, 4
            shards = make_shards(M=M, k=k, n=12, seed=200 + inst)
            params = random_params(M, k, 2, rng)
            state = CellState(
                v=rng.normal(size=(M, k)),
                z=rng.normal(size=(M, k)),
                alpha=rng.normal(size=(M, k)),
                w=rng.normal(size=k),
            )
            for dual in ("rho_step", "unit_step"):
                _, tape = forward_network(shards, params, state0=state, dual_update=dual)
                rec = tape.cells[1]
                got = lagrangian(rec, tape.stats.rows)
                want = straight_line_objective(
                    shards, CellState(rec.v, rec.z, rec.alpha, rec.w),
                    params.lam_raw[1], params.rho_raw[1], params.p[1], dual=dual,
                )
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_row_mismatch_rejected(self):
        shards = make_shards(M=3, seed=1)
        _, tape = forward_network(shards, init_params(3, 4, 1), seed=1)
        with pytest.raises(DimensionMismatch):
            lagrangian(tape.cells[0], client_stats(shards).take([0, 1]).rows)


class TestDescent:
    def test_fixed_large_penalty_unit_dual_descends(self):
        # the regime with a descent guarantee: large fixed penalties and
        # the unit dual-step convention
        for seed in range(5):
            shards = make_shards(M=4, n=40, seed=300 + seed)
            params = init_params(4, 4, 15)
            params.rho_raw[:] = 100.0
            _, tape = forward_network(
                shards, params, L=15, dual_update="unit_step", seed=seed
            )
            trace = trace_from_tape(tape)
            report = check_descent(trace)
            assert report.ok, f"seed {seed}: {report.violations}"
            assert report.classification == "none"
            assert trace.lagrangians[-1] < trace.lagrangians[0]

    def test_penalty_scaled_dual_at_large_penalty_blows_up(self):
        # a diverging iteration at a fixed penalty in the descent regime
        # (the objective grows about 99x per layer, 15 layers): every
        # transition is a violation and the checker flags it as anomalous
        trace = CellTrace(
            lagrangians=2.0 * 99.0 ** np.arange(15),
            dv_norms=np.ones((15, 4)),
            dalpha_norms=np.ones((15, 4)),
            dw_norms=np.ones(15),
            rho_min=RHO_DESCENT_REGIME,
        )
        report = check_descent(trace)
        assert not report.ok
        assert len(report.violations) == report.n_transitions == 14
        assert report.classification == "anomalous"
        assert trace.lagrangians[-1] > trace.lagrangians[0] * 1e6

    def test_trained_parameters_violations_are_expected(self):
        trace = CellTrace(
            lagrangians=np.array([1.0, 0.5, 0.8]),
            dv_norms=np.ones((3, 2)),
            dalpha_norms=np.ones((3, 2)),
            dw_norms=np.ones(3),
            rho_min=200.0,
            params_trained=True,
        )
        report = check_descent(trace)
        assert len(report.violations) == 1
        assert report.violations[0][0] == 2
        assert report.classification == "expected"

    def test_small_penalty_violations_are_expected(self):
        trace = CellTrace(
            lagrangians=np.array([1.0, 1.5]),
            dv_norms=np.ones((2, 1)),
            dalpha_norms=np.ones((2, 1)),
            dw_norms=np.ones(2),
            rho_min=0.5,
        )
        assert check_descent(trace).classification == "expected"

    def test_slack_tolerates_tiny_increase(self):
        trace = CellTrace(
            lagrangians=np.array([1.0, 1.0 + 1e-12]),
            dv_norms=np.ones((2, 1)),
            dalpha_norms=np.ones((2, 1)),
            dw_norms=np.ones(2),
            rho_min=100.0,
        )
        assert check_descent(trace).ok

    def test_monotone_trace_reports_none(self):
        trace = CellTrace(
            lagrangians=np.array([3.0, 2.0, 2.0, 1.5]),
            dv_norms=np.ones((4, 1)),
            dalpha_norms=np.ones((4, 1)),
            dw_norms=np.ones(4),
            rho_min=100.0,
        )
        report = check_descent(trace)
        assert report.ok
        assert report.n_transitions == 3


class TestWeightReport:
    def test_shapes_and_means(self):
        params = init_params(5, 4, 3)
        params.lam_raw[0, :, 0] = 2.0
        params.lam_raw[1, :, 0] = 4.0
        params.lam_raw[2, :, 0] = 6.0
        rep = lambda_report(params)
        assert rep.final_layer.shape == (5, 4)
        assert rep.layer_mean.shape == (5, 4)
        assert np.allclose(rep.layer_mean[:, 0], 4.0)
        assert np.allclose(rep.cross_client_mean[0], 4.0)
        assert np.allclose(rep.cross_client_final[0], 6.0)

    def test_negative_raw_reported_as_zero(self):
        params = init_params(2, 3, 2)
        params.lam_raw[:] = -1.0
        rep = lambda_report(params)
        assert np.array_equal(rep.final_layer, np.zeros((2, 3)))

    def test_trace_records_step_norms(self):
        shards = make_shards(M=2, n=15, seed=330)
        params = init_params(2, 4, 3)
        _, tape = forward_network(shards, params, L=3, seed=2)
        trace = trace_from_tape(tape)
        assert trace.dv_norms.shape == (3, 2)
        assert trace.dalpha_norms.shape == (3, 2)
        assert trace.dw_norms.shape == (3,)
        # cell 0 starts from the tape's initial state, later cells from
        # the record before them
        for li, prev in ((0, tape.init), (1, tape.cells[0])):
            rec = tape.cells[li]
            want = np.linalg.norm(rec.v - prev.v, axis=1)
            assert np.allclose(trace.dv_norms[li], want, atol=1e-15)
            want = np.linalg.norm(rec.alpha - prev.alpha, axis=1)
            assert np.allclose(trace.dalpha_norms[li], want, atol=1e-15)
            assert np.isclose(trace.dw_norms[li], np.linalg.norm(rec.w - prev.w), atol=1e-15)

    def test_trace_reads_the_tapes_rows(self, monkeypatch):
        shards = make_shards(M=3, n=15, seed=331)
        _, tape = forward_network(shards, init_params(3, 4, 4), seed=3)
        counts = count_calls(monkeypatch, ("stack_rows",))
        trace = trace_from_tape(tape)
        assert counts["stack_rows"] == 0
        assert np.all(np.isfinite(trace.lagrangians))
