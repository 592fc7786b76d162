"""Reverse-mode differentiation of the unrolled network and optimizers.

The training objective is the sum of local training losses evaluated at
the final-cell personalized models,

    P_b = sum_i ||X_i v_i^L - Y_i||^2,

differentiated with respect to every raw learnable parameter by walking
the forward Tape backwards with hand-derived adjoints (phi4 -> phi3 ->
phi2 -> phi1 inside each cell). Rectifier and clamp kinks use the
subgradient-zero convention, so the adjoints are exact wherever the
forward is differentiable.

The reverse pass runs in two stages. The cell loop carries only the
adjoint recursion, the state adjoints that flow from each cell into the
one before it, and keeps per cell the few adjoints that the parameter
terms read. After the loop, each parameter term (phi4's logit edge,
phi3's consensus-weight and penalty edges, phi2's penalty edge and the
dual step's) is one array operation over the stacked cells, reading the
states from the tape and the parameters from its PassParams. The terms
are added into dense buffers over the pass's slots and active clients
in the order the cells run backwards, so the sums are the ones a pass
adding each term as its cell runs would make, bit for bit, and the
buffers are written into the population-shaped gradients once per
field.

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
    models and write the active clients' gradients into `grads`, in two
    stages.

    The cell loop runs the adjoint recursion alone: vbar, zbar, albar and
    wbar through phi4 -> phi1 of each cell, with phi2's solve (linear
    mode) or its unrolled steps (grad mode). Per cell it keeps what the
    parameter terms read and cannot rebuild from the tape: the w-adjoint
    entering phi4, zbar at phi3, phi2's solve t or the vbar entering each
    gradient step, and the adjoints of the scaled multiplier (abar) and
    of alpha (albar) after phi2. After the loop each term is one array
    operation over the cells' stacks, and the terms are added per slot in
    the order the cells visit them: phi3, phi2, rho_step's a-term and
    phi1 within a cell, the cells in reverse. Untied parameters give each
    cell its own slot, so a term's stack is added whole; tied ones add
    cell by cell into their one slot. Each field is then written into
    `grads` once.

    With `per_client` (the federated_local policy) the adjoint of each
    broadcast w is an [m, k] array whose row i carries only client i's
    chain; otherwise it is the shared [k] vector of the exact policy.
    The aggregation-logit edge reads the sum of the rows.
    """
    m, k = tape.m_active, tape.k
    pp, cells, n = tape.params, tape.cells, len(tape.cells)
    # phi3's factors depend on the parameters alone: once per pass
    rho3 = pp.rho_eff[:, :, None]
    denom = pp.lam_eff + rho3
    sfacs = rho3 / denom

    def to_w(rows):  # per-client [m, k] adjoint terms, in wbar's shape
        return rows if per_client else rows.sum(axis=0)

    # ---- stage 1: the recursion. Cell i's zbar lives in zbars[i + 1]
    # (zbars[0] takes the initial state's, which is discarded), so its
    # value at phi3 stays there without a copy. The lists keep per cell
    # arrays that the loop does not change after storing them ----
    zbars = np.zeros((n + 1, m, k))
    w_in, solves, abars, albars = [None] * n, [None] * n, [None] * n, [None] * n
    zbar, albar = zbars[n], np.zeros((m, k))
    wbar = np.zeros((m, k) if per_client else k)
    for i in reversed(range(n)):
        rec = cells[i]
        # phi2-phi4 read the scaled multiplier a = alpha / step_w. `abar`
        # collects the adjoint of a; each term reaches alpha divided by
        # step_w (added term by term, so unit_step sums are unchanged)
        sw = rec.step_w[:, None]

        # ---- phi4: w = sum(omega_i u_i), omega = softmax(theta) ----
        contrib = rec.omega[:, None] * wbar
        vbar += contrib
        zbar -= contrib
        albar = albar - contrib / sw  # a new array: albars[i + 1] stays as stored
        abar = -contrib
        w_in[i] = wbar
        wbar = np.zeros_like(wbar)

        # ---- phi3: z = rho * d / (lam + rho), d = v - w_prev - a ----
        sz = sfacs[rec.slot] * zbar
        vbar += sz
        albar -= sz / sw
        abar -= sz
        wbar -= to_w(sz)
        zbar = zbars[i]

        # ---- phi2: `anchor_bar` is the adjoint of
        # anchor = w_prev + z_prev + a ----
        rho_k = rec.rho_eff[:, None]
        if tape.mode == "linear":
            # v = A^{-1}(rho * anchor + X'Y), A = X'X + rho I
            t = chol_solve(rec.chol, vbar)
            solves[i] = t
            anchor_bar = rho_k * t
            vbar = np.zeros((m, k))  # the closed form does not read v_prev
        else:
            # unrolled gradient steps on F(v) + rho/2 ||anchor - v||^2
            lr_rho = tape.grad_lr * rho_k
            H = 2.0 * rec.gram
            anchor_bar = np.zeros((m, k))
            entering = solves[i] = [None] * tape.grad_steps
            for t in range(tape.grad_steps - 1, -1, -1):
                entering[t] = vbar
                anchor_bar += lr_rho * vbar
                vbar = vbar - tape.grad_lr * ((H @ vbar[:, :, None])[:, :, 0] + rho_k * vbar)
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
        abars[i], albars[i] = abar, albar

        # ---- phi1: alpha = alpha_prev + step_w * (z_prev - v_prev + w_prev) ----
        swal = sw * albar
        vbar -= swal
        zbar += swal
        wbar += to_w(swal)
        # albar itself passes through unchanged to alpha_prev
    # adjoints of the initial state are discarded (constants).

    # ---- stage 2: the parameter terms over the stacked cells, [n, m(, k)].
    # Index 0 of V, Z and W is the initial state, so [:-1] are the cells'
    # inputs and [1:] their outputs ----
    init = tape.init
    V = np.array([init.v] + [c.v for c in cells])
    Z = np.array([init.z] + [c.z for c in cells])
    W = np.array([init.w] + [c.w for c in cells])[:, None, :]
    # the pass's slots for the cells: tied parameters broadcast their one
    # slot, untied ones give cell i slot i
    tied = pp.rho_eff.shape[0] == 1
    sl = slice(None, 1 if tied else n)
    rho, rho_on = pp.rho_eff[sl], pp.rho_on[sl]
    denom2 = denom[sl] ** 2
    a = np.array([c.alpha for c in cells]) / pp.step_w[sl][:, :, None]
    zbar3 = zbars[1:]

    # phi4's logit edge, d w / d theta_i = omega_i (u_i - w)
    u = V[1:] - Z[1:] - a
    wsum = np.array(w_in)
    if per_client:
        wsum = wsum.sum(axis=1)
    omega = np.array([c.omega for c in cells])
    p_terms = omega * ((u - W[1:]) @ wsum[:, :, None])[:, :, 0]
    # phi3
    d = V[1:] - W[:-1] - a
    lam_terms = -zbar3 * rho[:, :, None] * d / denom2 * pp.lam_on[sl]
    rho_terms = [(zbar3 * d * pp.lam_eff[sl] / denom2).sum(axis=2) * rho_on]
    # phi2's direct rho edge
    anchor = W[:-1] + Z[:-1] + a
    if tape.mode == "linear":
        rho_bar = rowdot(np.array(solves), anchor - V[1:])
    else:
        # step t starts from v_t: the cell's input v for t = 0
        v_t = np.concatenate((V[:-1, None], np.array([c.v_iterates for c in cells])), axis=1)
        steps = -tape.grad_lr * rowdot(np.array(solves), v_t - anchor[:, None])
        rho_bar = np.zeros((n, m))
        for t in range(tape.grad_steps - 1, -1, -1):
            rho_bar += steps[:, t]
    rho_terms.append(rho_bar * rho_on)
    if tape.dual_update == "rho_step":
        # a reaches rho through d a / d rho = -a / rho, and phi1's step is rho
        rho_terms.append(-((np.array(abars) * a).sum(axis=2) / rho * rho_on))
        resid = Z[:-1] - V[:-1] + W[:-1]
        rho_terms.append((np.array(albars) * resid).sum(axis=2) * rho_on)

    lam_g = np.zeros(pp.lam_eff.shape)
    rho_g = np.zeros(pp.rho_eff.shape)
    p_g = np.zeros(pp.p.shape)
    if not tied:
        lam_g[sl] += lam_terms
        p_g[sl] += p_terms
        for term in rho_terms:
            rho_g[sl] += term
    else:
        for i in reversed(range(n)):
            lam_g[0] += lam_terms[i]
            p_g[0] += p_terms[i]
            for term in rho_terms:
                rho_g[0] += term[i]
    S, idx = p_g.shape[0], tape.client_indices
    grads.lam_raw[:S, idx] = lam_g
    grads.rho_raw[:S, idx] = rho_g
    grads.p[:S, idx] = p_g


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
    # d P_b / d v^L = 2 X'(X v - Y) for every active client
    seed = 2.0 * tape.stats.rows.xt(tape.final_residuals)

    # shaped like the parameters: slots of layers the pass did not run stay zero
    slots = (tape.slots, tape.M_total)
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
        return float(tape.stats.rows.sse(v).sum())

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
