"""Convergence and interpretability instrumentation.

The augmented objective evaluated after each cell,

    (1/M) * sum_i p_i ( F_i(v_i) + z_i' diag(lam_i) z_i
                        + rho_i/2 * ||z_i - v_i + w + alpha_i / step_i||^2 ),

is the quantity whose layer-over-layer monotonicity the descent checker
inspects (effective, i.e. rectified/clamped, parameter values are used).
alpha_i / step_i is the scaled multiplier the primal steps read: step_i
is rho_i under the ``rho_step`` dual convention and 1 under
``unit_step`` (see unrolled_net). Under large fixed penalties the value
is non-increasing with either convention; the checker classifies any
violation as expected (small or learned penalties) or anomalous (large
fixed penalties).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateStep, DimensionMismatch
from .math_core import clamp_positive, rectify, rowdot
from .unrolled_net import CellState, LearnableParams, Tape, client_rows, dual_step_weights

# Minimum effective penalty above which descent violations are treated
# as anomalous rather than expected (the regime where the forward is a
# genuine penalized-splitting iteration with a strongly convex
# v-subproblem on the benchmark's design matrices).
RHO_DESCENT_REGIME = 100.0


def lagrangian(
    state: CellState,
    shards: Sequence,
    params: LearnableParams,
    layer: int,
    client_indices=None,
    dual_update: str = "rho_step",
) -> float:
    """Augmented objective of the consensus splitting at one cell state.

    `dual_update` names the convention that produced `state.alpha`; the
    penalty term reads the scaled multiplier alpha / step.
    """
    idx = np.arange(len(shards)) if client_indices is None else np.asarray(client_indices)
    m = idx.shape[0]
    if state.v.shape[0] != m:
        raise DimensionMismatch("lagrangian: state rows disagree with client count")
    s = params.slot(layer)
    rho_eff = clamp_positive(params.rho_raw[s, idx])
    step_w = dual_step_weights(rho_eff, dual_update)
    lam_eff = rectify(params.lam_raw[s, idx])
    F = client_rows(shards, idx).sse(state.v)
    zlz = rowdot(state.z, lam_eff * state.z)
    r = state.z - state.v + state.w + state.alpha / step_w[:, None]
    per_client = params.p[s, idx] * (F + zlz + 0.5 * rho_eff * rowdot(r, r))
    return float(per_client.sum()) / m


@dataclass
class CellTrace:
    """Per-layer objective values and step norms from one forward pass."""

    lagrangians: np.ndarray          # [L]
    dv_norms: np.ndarray             # [L, m] per-client ||v^l - v^{l-1}||
    dalpha_norms: np.ndarray         # [L, m]
    dw_norms: np.ndarray             # [L]
    rho_min: float                   # min effective penalty over cells/clients
    params_trained: bool = False     # True when built mid-training


def trace_from_tape(
    tape: Tape,
    shards: Sequence,
    params: LearnableParams,
    params_trained: bool = False,
) -> CellTrace:
    """Evaluate the objective and step norms after every recorded cell."""
    L = len(tape.cells)
    m = tape.m_active
    lags = np.empty(L)
    dv = np.empty((L, m))
    da = np.empty((L, m))
    dw = np.empty(L)
    rho_min = np.inf
    for li, rec in enumerate(tape.cells):
        state = CellState(v=rec.v, z=rec.z, alpha=rec.alpha, w=rec.w)
        lags[li] = lagrangian(
            state, shards, params, rec.layer, tape.client_indices, tape.dual_update
        )
        dv[li] = np.linalg.norm(rec.v - rec.v_prev, axis=1)
        da[li] = np.linalg.norm(rec.alpha - rec.alpha_prev, axis=1)
        dw[li] = np.linalg.norm(rec.w - rec.w_prev)
        rho_min = min(rho_min, float(rec.rho_eff.min()))
    return CellTrace(
        lagrangians=lags,
        dv_norms=dv,
        dalpha_norms=da,
        dw_norms=dw,
        rho_min=rho_min,
        params_trained=params_trained,
    )


@dataclass
class DescentReport:
    """Outcome of the layer-over-layer monotonicity check."""

    n_transitions: int
    violations: List[Tuple[int, float]]  # (transition index, increase)
    classification: str                  # "none" | "expected" | "anomalous"
    rho_min: float
    slack: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_descent(trace: CellTrace, slack: float = 1e-9) -> DescentReport:
    """Check that the objective is non-increasing cell over cell.

    Violations under learned parameters or small penalties are expected
    (the descent guarantee does not apply there) and only reported;
    violations with fixed penalties at or above the descent regime are
    anomalous.
    """
    lags = trace.lagrangians
    violations = []
    for t in range(1, lags.shape[0]):
        inc = lags[t] - lags[t - 1]
        if inc > slack:
            violations.append((t, float(inc)))
    if not violations:
        cls = "none"
    elif trace.params_trained or trace.rho_min < RHO_DESCENT_REGIME:
        cls = "expected"
    else:
        cls = "anomalous"
    return DescentReport(
        n_transitions=max(0, lags.shape[0] - 1),
        violations=violations,
        classification=cls,
        rho_min=trace.rho_min,
        slack=slack,
    )


def dual_model_step_ratio(trace: CellTrace, client: int, floor: float = 1e-14) -> float:
    """Empirical bound max_l ||dalpha_l|| / ||dv_l|| for one client.

    An estimate of the constant tying dual-step size to primal-step
    size; raises DegenerateStep when every primal step is below the
    resolvable floor.
    """
    dv = trace.dv_norms[:, client]
    da = trace.dalpha_norms[:, client]
    usable = dv > floor
    if not np.any(usable):
        raise DegenerateStep("dual_model_step_ratio: all v-steps below threshold")
    return float(np.max(da[usable] / dv[usable]))


@dataclass
class LambdaReport:
    """Effective per-coordinate consensus weights after training."""

    final_layer: np.ndarray        # [M, k] effective diagonal at the last slot
    layer_mean: np.ndarray         # [M, k] mean over slots
    cross_client_final: np.ndarray  # [k]
    cross_client_mean: np.ndarray   # [k]


def lambda_report(params: LearnableParams) -> LambdaReport:
    eff = rectify(params.lam_raw)          # [S, M, k]
    final_layer = eff[-1]
    layer_mean = eff.mean(axis=0)
    return LambdaReport(
        final_layer=final_layer,
        layer_mean=layer_mean,
        cross_client_final=final_layer.mean(axis=0),
        cross_client_mean=layer_mean.mean(axis=0),
    )
