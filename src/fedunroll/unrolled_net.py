"""Forward pass of the unrolled consensus network.

One iteration of the underlying splitting scheme is modeled as a
four-layer cell. Each layer is one array operation over the batch of
active clients, which carry a leading client axis; only linear mode's
factorizations visit the clients one by one:

  phi1  dual ascent on the consensus multiplier alpha
  phi2  personalized-model update v (closed form, or a few gradient steps)
  phi3  auxiliary deviation update z (entrywise shrinkage by the
        per-coordinate consensus weights)
  phi4  server aggregation of the client vectors v - z - alpha/step into w

phi2 sees a client's data only through its sufficient statistics
G = X'X and c = X'Y (ClientStats). The experiment driver builds them
once per run for every client, from the training rows it stacks and
validates for evaluation, and each forward pass takes the active
clients' entries (ClientStats.take); a forward given none stacks the
active clients' rows itself. The tape keeps the active clients' rows
for the loss and the reverse pass. Linear mode factors each
client's G + rho I with its own Cholesky call and solves all clients'
systems in one batched solve per cell; grad mode takes gradient steps
on each client's minibatch Gram matrix. Each grad-mode cell draws every
active client's batch with one call of its generator, through
math_core.minibatch_rows, the helper the baselines use too. Clients may
hold different numbers of rows.

L cells concatenated form the network; every per-layer constant of the
scheme (consensus weights, penalty scalars and aggregation weights) is
a trainable parameter. A client's aggregation weight is the softmax of
its logit over the round's active clients, so the weights are positive
and sum to one on any subset of clients. The forward pass records a
Tape with everything the reverse pass needs, each value once: a cell's
record holds what the cell computed, and its inputs are the previous
cell's outputs, or the tape's initial state for the first cell
(Tape.inputs).

Two dual-step conventions are provided; both are consensus ADMM with
fixed parameters. phi1 adds step * (z - v + w) to alpha, and phi2,
phi3 and phi4 read the scaled multiplier alpha / step. The default
``rho_step`` uses the penalty scalar as the step, so alpha is the
unscaled multiplier (Boyd et al. 2011, section 3.1.1) and its scaled
form is alpha / rho. ``unit_step`` uses step 1, so alpha is itself the
scaled multiplier. At a fixed penalty the two produce the same v, z
and w up to rounding, and the augmented objective descends for large
fixed penalties under either (see diagnostics). At penalty 1 they
coincide bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionMismatch, NonFiniteGradient, NonFiniteInput
from .math_core import (
    EPS,
    RowStack,
    chol_solve,
    clamp_positive,
    minibatch_rows,
    rectify,
    spd_cholesky,
    stack_rows,
)

DUAL_UPDATES = ("rho_step", "unit_step")
MODES = ("linear", "grad")

GRAD_LR_DEFAULT = 0.01
GRAD_STEPS_DEFAULT = 5


# ---------------------------------------------------------------------------
# layer operations, batched over clients
#
# Per-client arrays are [m, k] and per-client scalars [m]; w is [k]. A
# single client may be passed without the client axis ([k] vectors and
# a scalar penalty).
# ---------------------------------------------------------------------------

def _floats(*arrays) -> List[np.ndarray]:
    return [np.asarray(a, dtype=np.float64) for a in arrays]


def _check_operands(name: str, w: np.ndarray, first: np.ndarray, *rest: np.ndarray) -> None:
    if any(a.shape != first.shape for a in rest) or w.shape != first.shape[-1:]:
        raise DimensionMismatch(f"{name}: operand shapes disagree")


def _column(per_client) -> np.ndarray:
    """A per-client scalar as a column that broadcasts over coordinates."""
    return np.asarray(per_client, dtype=np.float64)[..., None]


def phi1_dual(alpha_prev, v_prev, z_prev, w_prev, rho) -> np.ndarray:
    """Dual ascent step: alpha + rho * (z - v + w)."""
    alpha_prev, v_prev, z_prev, w_prev = _floats(alpha_prev, v_prev, z_prev, w_prev)
    _check_operands("phi1_dual", w_prev, alpha_prev, v_prev, z_prev)
    return alpha_prev + _column(rho) * (z_prev - v_prev + w_prev)


def phi2_v_linear(G, c, alpha, z_prev, w_prev, rho) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form v update on the sufficient statistics G = X'X and
    c = X'Y: solve (G + rho I) v = rho(w+z+alpha) + c.

    G is [m, k, k] and c [m, k] (or [k, k] and [k] for one client).
    Returns v and the Cholesky factors of G + rho I, which the reverse
    pass reuses. `alpha` here and in phi2_v_grad, phi3_aux and
    phi4_global is the scaled multiplier (alpha / step in the cell's
    terms).
    """
    G, c, alpha, z_prev, w_prev = _floats(G, c, alpha, z_prev, w_prev)
    _check_operands("phi2_v_linear", w_prev, c, alpha, z_prev)
    k = c.shape[-1]
    if G.shape != c.shape + (k,):
        raise DimensionMismatch("phi2_v_linear: G disagrees with c")
    rho = np.asarray(rho, dtype=np.float64)
    A = G + rho[..., None, None] * np.eye(k)
    # each client factors its own matrix, one checked call per client and
    # cell, because the benchmark pins that factorization count; the
    # solves run batched. A single [k, k] client is a stack of one.
    chol = np.stack([spd_cholesky(a) for a in A.reshape(-1, k, k)]).reshape(A.shape)
    return chol_solve(chol, rho[..., None] * (w_prev + z_prev + alpha) + c), chol


def phi2_v_grad(
    grad_of_F: Callable[[np.ndarray], np.ndarray],
    v_prev,
    alpha,
    z_prev,
    w_prev,
    rho,
    lr: float = GRAD_LR_DEFAULT,
    steps: int = GRAD_STEPS_DEFAULT,
) -> Tuple[np.ndarray, np.ndarray]:
    """v update by `steps` gradient steps on F(v) + rho/2 ||z+w+alpha-v||^2.

    `grad_of_F` maps the iterate (shaped like v_prev) to the gradient of
    F. Returns v_steps and the iterates in between, v_1 ... v_{steps-1},
    shaped (steps - 1,) + v_prev.shape.
    """
    if lr <= 0:
        raise ValueError("phi2_v_grad: lr must be positive")
    if steps < 1:
        raise ValueError("phi2_v_grad: steps must be >= 1")
    v, alpha, z_prev, w_prev = _floats(v_prev, alpha, z_prev, w_prev)
    _check_operands("phi2_v_grad", w_prev, v, alpha, z_prev)
    rho = _column(rho)
    anchor = z_prev + w_prev + alpha
    iterates = np.empty((steps - 1,) + v.shape)
    for t in range(steps):
        if t > 0:
            iterates[t - 1] = v
        g = np.asarray(grad_of_F(v), dtype=np.float64) + rho * (v - anchor)
        v = v - lr * g
        if not np.isfinite(v).all():
            raise NonFiniteGradient("phi2_v_grad: iterate became non-finite")
    return v, iterates


def phi3_aux(alpha, v, w_prev, rho, lam) -> np.ndarray:
    """Entrywise z[j] = rho * (v - w - alpha)[j] / (rectify(lam_j) + rho).

    Large consensus weights pin the corresponding coordinate of z to 0
    (full consensus); zero weights pass the deviation through.
    """
    alpha, v, w_prev, lam = _floats(alpha, v, w_prev, lam)
    _check_operands("phi3_aux", w_prev, v, alpha, lam)
    rho = _column(rho)
    return rho * (v - w_prev - alpha) / (rectify(lam) + rho)


def _aggregate_client_vectors(u: np.ndarray, theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Server side of the aggregation: the weights omega of the received
    client vectors u_i, the softmax of the clients' logits theta, and
    their weighted mean w. The logits are shifted by the largest, so exp
    cannot overflow and the largest term is 1: the sum never vanishes.
    The only client data this touches is u."""
    e = np.exp(theta - theta.max())
    omega = e / e.sum()
    return omega, omega @ u


def phi4_global(vs, zs, alphas, theta) -> np.ndarray:
    """Weighted average of the client vectors (v - z - alpha).

    The weights are the softmax of the clients' logits theta, so a
    single client's weight is exactly 1 and the result is its
    v - z - alpha.
    """
    vs = np.atleast_2d(np.asarray(vs, dtype=np.float64))
    zs = np.atleast_2d(np.asarray(zs, dtype=np.float64))
    alphas = np.atleast_2d(np.asarray(alphas, dtype=np.float64))
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if not (zs.shape == vs.shape and alphas.shape == vs.shape):
        raise DimensionMismatch("phi4_global: state shapes disagree")
    if theta.shape != vs.shape[:1]:
        raise DimensionMismatch("phi4_global: weight lengths disagree")
    return _aggregate_client_vectors(vs - zs - alphas, theta)[1]


# ---------------------------------------------------------------------------
# parameters and state
# ---------------------------------------------------------------------------

@dataclass
class LearnableParams:
    """Raw trainable parameters, one slot per layer (or a single shared
    slot when tied across layers).

    Shapes: lam_raw [S, M, k], rho_raw / p [S, M], where S = L for
    untied parameters and S = 1 for tied. `p` holds each client's
    aggregation logit; phi4 weighs the active clients by their softmax.
    """

    lam_raw: np.ndarray
    rho_raw: np.ndarray
    p: np.ndarray
    L: int
    tied: bool = False

    def slot(self, layer: int) -> int:
        """Parameter slot for a 1-based layer index."""
        return 0 if self.tied else layer - 1

    def copy(self) -> "LearnableParams":
        return LearnableParams(
            lam_raw=self.lam_raw.copy(),
            rho_raw=self.rho_raw.copy(),
            p=self.p.copy(),
            L=self.L,
            tied=self.tied,
        )


def init_params(M: int, k: int, L: int, tied: bool = False) -> LearnableParams:
    """Default initialization: unit consensus weights and penalties,
    zero aggregation logits (uniform weights)."""
    S = 1 if tied else L
    return LearnableParams(
        lam_raw=np.ones((S, M, k)),
        rho_raw=np.ones((S, M)),
        p=np.zeros((S, M)),
        L=L,
        tied=tied,
    )


@dataclass
class CellState:
    """Per-client iterates v, z, alpha (shape [M, k]) plus the global w."""

    v: np.ndarray
    z: np.ndarray
    alpha: np.ndarray
    w: np.ndarray

    def copy(self) -> "CellState":
        return CellState(self.v.copy(), self.z.copy(), self.alpha.copy(), self.w.copy())


def init_state(M: int, k: int, seed: int = 0) -> CellState:
    """Standard start: v ~ Normal(0, 0.1^2) from a seeded generator,
    zero duals, zero auxiliaries, zero global model."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED]))
    return CellState(
        v=rng.normal(0.0, 0.1, (M, k)),
        z=np.zeros((M, k)),
        alpha=np.zeros((M, k)),
        w=np.zeros(k),
    )


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

@dataclass
class CellRecord:
    """What one cell computed, in forward order. The cell's inputs are
    not repeated here: they are the previous cell's outputs, or the
    tape's initial state for the first cell (Tape.inputs)."""

    layer: int
    slot: int
    # outputs ([m, k] over the active clients, [k] for w)
    v: np.ndarray
    z: np.ndarray
    alpha: np.ndarray
    w: np.ndarray
    # effective parameter values and clamp/rectifier pass-through masks
    rho_eff: np.ndarray
    rho_on: np.ndarray
    lam_eff: np.ndarray
    lam_on: np.ndarray
    # phi4's aggregation weights, the softmax of the active clients' logits
    omega: np.ndarray
    # dual step used by phi1 (rho_eff or ones); phi2-phi4 read alpha / step_w
    step_w: np.ndarray
    # linear mode: cached Cholesky factors of X'X + rho I, [m, k, k]
    chol: Optional[np.ndarray] = None
    # grad mode: the iterates v_1 .. v_{steps-1} between the input and
    # output v [steps-1, m, k], and the Gram matrices X_b'X_b [m, k, k]
    v_iterates: Optional[np.ndarray] = None
    gram: Optional[np.ndarray] = None


@dataclass
class Tape:
    """Forward recording: initial state, per-cell records, the client
    subset the pass ran over (0-based indices into the full client
    list) and grad mode's step size and step count. Cell i's inputs
    live in cell i-1's record, or in `init` for cell 0: read them
    through `inputs`."""

    mode: str
    dual_update: str
    L: int
    M_total: int
    k: int
    client_indices: np.ndarray
    init: CellState
    cells: List[CellRecord] = field(default_factory=list)
    tied: bool = False
    # the active clients' training rows: their entries of the run's
    # statistics, or stacked for the pass
    rows: Optional[RowStack] = None
    grad_lr: float = GRAD_LR_DEFAULT
    grad_steps: int = GRAD_STEPS_DEFAULT

    @property
    def m_active(self) -> int:
        return self.client_indices.shape[0]

    def inputs(self, i: int) -> Union[CellState, CellRecord]:
        """The v, z, alpha and w cell i started from: cell i-1's record,
        or the initial state for cell 0."""
        return self.cells[i - 1] if i > 0 else self.init

    def final_v(self) -> np.ndarray:
        return self.cells[-1].v if self.cells else self.init.v


# ---------------------------------------------------------------------------
# client data
# ---------------------------------------------------------------------------

def client_rows(shards: Sequence, client_indices) -> RowStack:
    """The given clients' training rows, stacked and validated."""
    return stack_rows(
        [shards[i].X_train for i in client_indices],
        [shards[i].Y_train for i in client_indices],
    )


@dataclass(frozen=True)
class ClientStats:
    """Clients' rows, validated once, and their sufficient statistics
    for phi2: G = X'X [m, k, k] and c = X'Y [m, k]."""

    rows: RowStack
    gram: np.ndarray
    xty: np.ndarray

    @classmethod
    def of(cls, rows: RowStack) -> "ClientStats":
        """The statistics of already stacked and validated rows."""
        return cls(rows=rows, gram=rows.gram(), xty=rows.xt(rows.Y))

    def take(self, client_indices) -> "ClientStats":
        """The entries of the given clients, in order. The rows keep
        this stack's padded width, so on clients of equal size they and
        the statistics equal client_stats of those clients bit for bit."""
        idx = np.asarray(client_indices)
        r = self.rows
        return ClientStats(
            rows=RowStack(X=r.X[idx], Y=r.Y[idx], counts=r.counts[idx]),
            gram=self.gram[idx],
            xty=self.xty[idx],
        )


def client_stats(shards: Sequence, client_indices) -> ClientStats:
    """Rows, G and c of the given clients, one entry per client in order."""
    return ClientStats.of(client_rows(shards, client_indices))


def _minibatch_stats(stats, batch_rng, batch_size):
    """Grad mode: each client's minibatch Gram matrix and X'Y (the
    full-shard statistics where no batch is drawn). One draw from
    `batch_rng` serves every client."""
    b = minibatch_rows(stats.rows, batch_size, batch_rng)
    if b is stats.rows:
        return stats.gram, stats.xty
    gram, xty = b.gram(), b.xt(b.Y)
    drawn = b.counts != stats.rows.counts
    if drawn.all():
        return gram, xty
    return np.where(drawn[:, None, None], gram, stats.gram), np.where(drawn[:, None], xty, stats.xty)


# ---------------------------------------------------------------------------
# cell and network forward
# ---------------------------------------------------------------------------

def dual_step_weights(rho_eff: np.ndarray, dual_update: str) -> np.ndarray:
    """Per-client dual step of phi1: the effective penalty under
    ``rho_step``, 1 under ``unit_step``. The primal steps read the
    scaled multiplier alpha / step."""
    return rho_eff if dual_update == "rho_step" else np.ones(rho_eff.shape[0])


def forward_cell(
    state: CellState,
    shards: Sequence,
    params: LearnableParams,
    layer: int,
    mode: str = "linear",
    dual_update: str = "rho_step",
    tape: Optional[Tape] = None,
    client_indices: Optional[np.ndarray] = None,
    batch_rng: Optional[np.random.Generator] = None,
    batch_size: Optional[int] = None,
    grad_lr: float = GRAD_LR_DEFAULT,
    grad_steps: int = GRAD_STEPS_DEFAULT,
    stats: Optional[ClientStats] = None,
) -> CellState:
    """Apply one cell (phi1..phi4) and return the new state.

    `shards` entries must expose X_train / Y_train; `client_indices`
    selects which parameter/data columns this pass runs over (defaults
    to all clients). `stats` are those clients' sufficient statistics,
    computed here when not given. Appends a CellRecord to `tape` when
    given; the record holds the cell's outputs and shares their arrays
    with the returned state, which nothing mutates.

    The record keeps v, z, alpha, step_w and w, so the vectors that
    cross the client/server boundary can be rebuilt from it bit for bit
    when asked for (federation.round_transcript): u_i = v_i - z_i -
    alpha_i / step_i, the exact array the aggregation consumes (step_i
    is the dual step, see dual_step_weights), and the aggregated w.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if dual_update not in DUAL_UPDATES:
        raise ValueError(f"unknown dual_update {dual_update!r}")
    if not 1 <= layer <= params.L:
        raise DimensionMismatch(f"layer {layer} outside [1, {params.L}]")
    idx = np.arange(len(shards)) if client_indices is None else np.asarray(client_indices)
    m = idx.shape[0]
    if state.v.shape[0] != m:
        raise DimensionMismatch("forward_cell: state rows disagree with active clients")
    if stats is None:
        stats = client_stats(shards, idx)

    s = params.slot(layer)
    rho_raw = params.rho_raw[s, idx]
    lam_raw = params.lam_raw[s, idx]
    rho_eff = clamp_positive(rho_raw)
    lam_eff = rectify(lam_raw)
    step_w = dual_step_weights(rho_eff, dual_update)

    alpha = phi1_dual(state.alpha, state.v, state.z, state.w, step_w)
    a = alpha / step_w[:, None]
    chol = iterates = gram = None
    if mode == "linear":
        v, chol = phi2_v_linear(stats.gram, stats.xty, a, state.z, state.w, rho_eff)
    else:
        gram, xty = _minibatch_stats(stats, batch_rng, batch_size)
        v, iterates = phi2_v_grad(
            lambda u: 2.0 * ((gram @ u[:, :, None])[:, :, 0] - xty),
            state.v, a, state.z, state.w, rho_eff, lr=grad_lr, steps=grad_steps,
        )
    z = phi3_aux(a, v, state.w, rho_eff, lam_eff)

    omega, w = _aggregate_client_vectors(v - z - a, params.p[s, idx])
    new_state = CellState(v=v, z=z, alpha=alpha, w=w)
    if not (
        np.isfinite(v).all()
        and np.isfinite(z).all()
        and np.isfinite(alpha).all()
        and np.isfinite(w).all()
    ):
        raise NonFiniteInput(f"forward_cell: non-finite state after layer {layer}")

    if tape is not None:
        tape.cells.append(
            CellRecord(
                layer=layer,
                slot=s,
                v=v,
                z=z,
                alpha=alpha,
                w=w,
                rho_eff=rho_eff,
                rho_on=(rho_raw > EPS),
                lam_eff=lam_eff,
                lam_on=(lam_raw > 0.0),
                omega=omega,
                step_w=step_w,
                chol=chol,
                v_iterates=iterates,
                gram=gram,
            )
        )
    return new_state


def forward_network(
    shards: Sequence,
    params: LearnableParams,
    L: Optional[int] = None,
    mode: str = "linear",
    dual_update: str = "rho_step",
    state0: Optional[CellState] = None,
    seed: int = 0,
    client_indices: Optional[np.ndarray] = None,
    batch_rng: Optional[np.random.Generator] = None,
    batch_size: Optional[int] = None,
    grad_lr: float = GRAD_LR_DEFAULT,
    grad_steps: int = GRAD_STEPS_DEFAULT,
    population: Optional[ClientStats] = None,
) -> Tuple[np.ndarray, Tape]:
    """Run L cells and return (final per-client models [m, k], tape).

    The initial state defaults to init_state(seed); pass `state0` to
    continue from carried-over iterates. The tape keeps `state0` itself
    as its initial state, so its arrays must not be changed afterwards.
    `population` holds the statistics of every client of `shards`, in
    order; the pass takes the active clients' entries from it, and
    stacks their rows from `shards` when it is not given.
    """
    L = params.L if L is None else L
    if L < 1:
        raise ValueError("forward_network: L must be >= 1")
    idx = np.arange(len(shards)) if client_indices is None else np.asarray(client_indices)
    if population is None:
        stats = client_stats(shards, idx)
    elif population.rows.counts.shape[0] != len(shards):
        raise DimensionMismatch("forward_network: population statistics disagree with shards")
    else:
        stats = population.take(idx)
    k = stats.xty.shape[1]
    state = init_state(idx.shape[0], k, seed) if state0 is None else state0
    tape = Tape(
        mode=mode,
        dual_update=dual_update,
        L=L,
        M_total=len(shards),
        k=k,
        client_indices=idx.copy(),
        init=state,
        tied=params.tied,
        rows=stats.rows,
        grad_lr=grad_lr,
        grad_steps=grad_steps,
    )
    for layer in range(1, L + 1):
        state = forward_cell(
            state,
            shards,
            params,
            layer,
            mode=mode,
            dual_update=dual_update,
            tape=tape,
            client_indices=idx,
            batch_rng=batch_rng,
            batch_size=batch_size,
            grad_lr=grad_lr,
            grad_steps=grad_steps,
            stats=stats,
        )
    return state.v, tape
