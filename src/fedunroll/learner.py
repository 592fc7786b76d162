"""Reverse-mode differentiation of the unrolled network and optimizers.

The training objective is the sum of local training losses evaluated at
the final-cell personalized models,

    P_b = sum_i ||X_i v_i^L - Y_i||^2,

differentiated with respect to every raw learnable parameter by walking
the forward Tape backwards with hand-derived adjoints (phi4 -> phi3 ->
phi2 -> phi1 inside each cell). Rectifier and clamp kinks use the
subgradient-zero convention, so the adjoints are exact wherever the
forward is differentiable.

Two boundary policies:

  exact            adjoints flow through the server aggregation across
                   clients (full-graph truth; the finite-difference
                   oracle reproduces it).
  federated_local  the broadcast w received by a client is a constant
                   with respect to *other* clients' quantities: client
                   i's consensus-weight and penalty gradients see only
                   its own loss through its own chain (including its
                   own relayed contribution to w). The same single
                   reverse pass computes it, with the adjoint of w kept
                   per client: row i collects only client i's phi1-phi3
                   terms and phi4 hands it back to client i alone. The
                   aggregation logits read the sum of the rows, since
                   their edge is linear in the w-adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import LayoutMismatch, NonFiniteGradient, NonFiniteInput, TapeMismatch
from .math_core import chol_solve, rowdot
from .unrolled_net import CellState, LearnableParams, Tape, forward_network

POLICIES = ("exact", "federated_local")
OPTIMIZERS = ("adam", "gd")

# Adam's decay rates and offset: Kingma & Ba's defaults (ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PARAM_FIELDS = ("lam_raw", "rho_raw", "p")


@dataclass
class ParamGradients:
    """Gradients congruent with LearnableParams raw storage."""

    lam_raw: np.ndarray
    rho_raw: np.ndarray
    p: np.ndarray

    def check_finite(self):
        for name in PARAM_FIELDS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise NonFiniteGradient(
                    f"gradient field {name} contains non-finite entries"
                )


def _reverse_pass(tape: Tape, grads: ParamGradients, vbar: np.ndarray, per_client: bool):
    """Walk the tape backwards from the seed adjoint `vbar` of the final
    models, accumulating adjoints into `grads`.

    With `per_client` (the federated_local policy) the adjoint of each
    broadcast w is an [m, k] array whose row i carries only client i's
    chain; otherwise it is the shared [k] vector of the exact policy.
    The aggregation-logit edge reads the sum of the rows.
    """
    m, k = tape.m_active, tape.k
    idx = tape.client_indices
    zbar = np.zeros((m, k))
    albar = np.zeros((m, k))
    wbar = np.zeros((m, k) if per_client else k)

    def to_w(rows):  # per-client [m, k] adjoint terms, in wbar's shape
        return rows if per_client else rows.sum(axis=0)

    for i in reversed(range(len(tape.cells))):
        rec, prev = tape.cells[i], tape.inputs(i)
        s = rec.slot
        rho = rec.rho_eff
        # phi2-phi4 read the scaled multiplier a = alpha / step_w. `abar`
        # collects the adjoint of a; each term reaches alpha divided by
        # step_w (added term by term, so unit_step sums are unchanged) and,
        # under rho_step, reaches rho through d a / d rho = -a / rho.
        sw = rec.step_w[:, None]
        a = rec.alpha / sw

        # ---- phi4: w = sum(omega_i u_i), omega = softmax(theta); the
        # logit edge is d w / d theta_i = omega_i (u_i - w) ----
        u = rec.v - rec.z - a
        contrib = rec.omega[:, None] * wbar
        vbar += contrib
        zbar -= contrib
        albar -= contrib / sw
        abar = -contrib
        wsum = wbar.sum(axis=0) if per_client else wbar
        grads.p[s, idx] += rec.omega * ((u - rec.w[None, :]) @ wsum)
        wbar = np.zeros_like(wbar)

        # ---- phi3: z = rho * d / (lam + rho), d = v - w_prev - a ----
        d = rec.v - prev.w[None, :] - a
        denom = rec.lam_eff + rho[:, None]
        sfac = rho[:, None] / denom
        sz = sfac * zbar
        vbar += sz
        albar -= sz / sw
        abar -= sz
        wbar -= to_w(sz)
        grads.lam_raw[s, idx] += -zbar * rho[:, None] * d / denom**2 * rec.lam_on
        grads.rho_raw[s, idx] += (zbar * d * rec.lam_eff / denom**2).sum(axis=1) * rec.rho_on
        zbar = np.zeros((m, k))

        # ---- phi2: `anchor_bar` is the adjoint of
        # anchor = w_prev + z_prev + a, `rho_bar` the direct rho edge ----
        anchor = prev.w + prev.z + a
        rho_k = rho[:, None]
        if tape.mode == "linear":
            # v = A^{-1}(rho * anchor + X'Y), A = X'X + rho I
            t = chol_solve(rec.chol, vbar)
            anchor_bar = rho_k * t
            rho_bar = rowdot(t, anchor - rec.v)
            vbar = np.zeros((m, k))  # the closed form does not read v_prev
        else:
            # unrolled gradient steps on F(v) + rho/2 ||anchor - v||^2;
            # step t starts from v_t: the cell's input v for t = 0
            lr = tape.grad_lr
            lr_rho = lr * rho_k
            H = 2.0 * rec.gram
            anchor_bar = np.zeros((m, k))
            rho_bar = np.zeros(m)
            for t in range(tape.grad_steps - 1, -1, -1):
                v_t = rec.v_iterates[t - 1] if t > 0 else prev.v
                rho_bar += -lr * rowdot(vbar, v_t - anchor)
                anchor_bar += lr_rho * vbar
                vbar = vbar - lr * ((H @ vbar[:, :, None])[:, :, 0] + rho_k * vbar)
        albar += anchor_bar / sw
        abar += anchor_bar
        zbar += anchor_bar
        if per_client:
            wbar += anchor_bar
        else:
            # the rows enter wbar one at a time in client order (a sum
            # along axis 0 adds them in order): training runs are
            # sensitive to the last bits of the gradient
            wbar = np.concatenate((wbar[None, :], anchor_bar)).sum(axis=0)
        grads.rho_raw[s, idx] += rho_bar * rec.rho_on
        if tape.dual_update == "rho_step":
            grads.rho_raw[s, idx] -= (abar * a).sum(axis=1) / rho * rec.rho_on

        # ---- phi1: alpha = alpha_prev + step_w * (z_prev - v_prev + w_prev) ----
        vbar -= sw * albar
        zbar += sw * albar
        wbar += to_w(sw * albar)
        if tape.dual_update == "rho_step":
            resid = prev.z - prev.v + prev.w[None, :]
            grads.rho_raw[s, idx] += (albar * resid).sum(axis=1) * rec.rho_on
        # albar itself passes through unchanged to alpha_prev

    # adjoints of the initial state are discarded (constants).


def backward(tape: Tape, shards: Sequence, policy: str = "exact") -> ParamGradients:
    """Gradients of P_b with respect to every raw learnable parameter.

    The losses are read from the active clients' rows the tape holds;
    `shards` must be the clients it was recorded on.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown boundary policy {policy!r}; expected one of {POLICIES}")
    if len(shards) != tape.M_total:
        raise TapeMismatch(
            f"tape recorded {tape.M_total} clients, got {len(shards)} shards"
        )
    if not tape.cells:
        raise TapeMismatch("tape has no recorded cells")
    if any(np.shape(shards[i].X_train)[1] != tape.k for i in tape.client_indices):
        raise TapeMismatch("tape feature dimension disagrees with shards")
    rows = tape.rows
    # d P_b / d v^L = 2 X'(X v - Y) for every active client
    seed = 2.0 * rows.xt(rows.residuals(tape.final_v()))

    slots = (1 if tape.tied else tape.L, tape.M_total)
    grads = ParamGradients(
        lam_raw=np.zeros(slots + (tape.k,)),
        rho_raw=np.zeros(slots),
        p=np.zeros(slots),
    )
    _reverse_pass(tape, grads, seed, per_client=policy == "federated_local")
    grads.check_finite()
    return grads


def fd_gradient(
    shards: Sequence,
    params: LearnableParams,
    which: Tuple[str, Tuple[int, ...]],
    h: float = 1e-5,
    state0: Optional[CellState] = None,
    **forward_kwargs,
) -> float:
    """Central finite difference of P_b along one raw parameter coordinate.

    `which` is (field_name, index_tuple) into the raw parameter arrays,
    e.g. ("lam_raw", (0, 2, 3)). The two probes must run the same
    forward: pass the state0 the original forward used, and in grad mode
    full batches, since a generator shared by the probes would give them
    different minibatches. Each probe's loss is read from the rows its
    tape holds.
    """
    if h <= 0:
        raise ValueError("fd_gradient: h must be positive")
    name, index = which
    if name not in PARAM_FIELDS:
        raise LayoutMismatch(f"unknown parameter field {name!r}")

    def probe(delta: float) -> float:
        p2 = params.copy()
        getattr(p2, name)[index] += delta
        v, tape = forward_network(shards, p2, state0=state0, **forward_kwargs)
        return float(tape.rows.sse(v).sum())

    hi, lo = probe(+h), probe(-h)
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise NonFiniteInput("fd_gradient: probe produced non-finite loss")
    return (hi - lo) / (2.0 * h)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Kind, step size, step counter and Adam's moment accumulators
    (rates and offset: the ADAM_ constants); gd ignores the buffers."""

    kind: str = "adam"
    lr: float = 0.01
    t: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)


def init_optimizer(params: LearnableParams, kind: str = "adam", lr: float = 0.01) -> OptimizerState:
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    state = OptimizerState(kind=kind, lr=lr)
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        state.m[name] = np.zeros_like(arr)
        state.v[name] = np.zeros_like(arr)
    return state


def optimizer_step(
    params: LearnableParams, grads: ParamGradients, state: OptimizerState
) -> LearnableParams:
    """One optimizer update; returns new params, mutates `state`."""
    out = params.copy()
    for name in PARAM_FIELDS:
        if getattr(params, name).shape != getattr(grads, name).shape:
            raise LayoutMismatch(f"gradient shape mismatch on {name}")
        if state.m[name].shape != getattr(params, name).shape:
            raise LayoutMismatch(f"optimizer state shape mismatch on {name}")
    state.t += 1
    for name in PARAM_FIELDS:
        arr = getattr(out, name)
        g = getattr(grads, name)
        if state.kind == "gd":
            arr -= state.lr * g
            continue
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        mhat = m / (1.0 - ADAM_BETA1**state.t)
        vhat = v / (1.0 - ADAM_BETA2**state.t)
        arr -= state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return out
