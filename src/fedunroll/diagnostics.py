"""Convergence and interpretability instrumentation.

The augmented objective evaluated after each cell,

    sum_i omega_i ( F_i(v_i) + z_i' diag(lam_i) z_i
                    + rho_i/2 * ||z_i - v_i + w + alpha_i / step_i||^2 ),

is the quantity whose layer-over-layer monotonicity the descent checker
inspects. It reads v, z, alpha and w from the cell's record; the
effective (rectified/clamped) parameter values, dual steps and phi4's
aggregation weights omega, which sum to one over the active clients,
from the tape's PassParams at the record's slot; and F_i from the
active clients' rows the tape holds (Tape.stats.rows). alpha_i / step_i
is the scaled multiplier the primal steps read: step_i is rho_i under
the ``rho_step`` dual convention and 1 under ``unit_step`` (see
unrolled_net). Under large fixed penalties the value is non-increasing
with either convention; the checker classifies any violation as
expected (small or learned penalties) or anomalous (large fixed
penalties).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .math_core import rectify, rowdot
from .unrolled_net import LearnableParams, Tape

# Minimum effective penalty above which descent violations are treated
# as anomalous rather than expected (the regime where the forward is a
# genuine penalized-splitting iteration with a strongly convex
# v-subproblem on the benchmark's design matrices).
RHO_DESCENT_REGIME = 100.0
DESCENT_SLACK = 1e-9  # an increase this small is rounding, still descent


def lagrangian(tape: Tape, i: int) -> float:
    """Augmented objective of the consensus splitting after the tape's
    cell i, on the active clients' training rows. The last cell's
    residuals X v - Y are the tape's final_residuals, which the loss
    reports and the reverse pass share; any other cell's are computed."""
    rec, pp = tape.cells[i], tape.params
    s = rec.slot
    if i == len(tape.cells) - 1:
        residuals = tape.final_residuals
    else:
        residuals = tape.stats.rows.residuals(rec.v)
    F = rowdot(residuals, residuals)
    zlz = rowdot(rec.z, pp.lam_eff[s] * rec.z)
    r = rec.z - rec.v + rec.w + rec.alpha / pp.step_w[s][:, None]
    per_client = F + zlz + 0.5 * pp.rho_eff[s] * rowdot(r, r)
    return float((pp.omega[s] * per_client).sum())


@dataclass
class CellTrace:
    """Per-layer objective values and step norms from one forward pass."""

    lagrangians: np.ndarray          # [L]
    dv_norms: np.ndarray             # [L, m] per-client ||v^l - v^{l-1}||
    dalpha_norms: np.ndarray         # [L, m]
    dw_norms: np.ndarray             # [L]
    rho_min: float                   # min effective penalty over cells/clients
    params_trained: bool = False     # True when built mid-training


def trace_from_tape(tape: Tape, params_trained: bool = False) -> CellTrace:
    """Evaluate the objective and step norms after every recorded cell."""
    L = len(tape.cells)
    m = tape.m_active
    lags = np.empty(L)
    dv = np.empty((L, m))
    da = np.empty((L, m))
    dw = np.empty(L)
    for li, rec in enumerate(tape.cells):
        prev = tape.inputs(li)
        lags[li] = lagrangian(tape, li)
        dv[li] = np.linalg.norm(rec.v - prev.v, axis=1)
        da[li] = np.linalg.norm(rec.alpha - prev.alpha, axis=1)
        dw[li] = np.linalg.norm(rec.w - prev.w)
    return CellTrace(
        lagrangians=lags,
        dv_norms=dv,
        dalpha_norms=da,
        dw_norms=dw,
        # the cells read every slot of the pass
        rho_min=float(tape.params.rho_eff.min()),
        params_trained=params_trained,
    )


@dataclass
class DescentReport:
    """Outcome of the layer-over-layer monotonicity check."""

    n_transitions: int
    violations: List[Tuple[int, float]]  # (transition index, increase)
    classification: str                  # "none" | "expected" | "anomalous"
    rho_min: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_descent(trace: CellTrace) -> DescentReport:
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
        if inc > DESCENT_SLACK:
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
    )


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
