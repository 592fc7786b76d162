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
validates for evaluation; a forward given none builds them the same
way from its shards (client_stats). Linear mode factors each client's
G + rho I with its own Cholesky call and solves all clients' systems
in one batched solve per cell; grad mode takes gradient steps on each
client's minibatch Gram matrix. Clients may hold different numbers of
rows.

What does not depend on the state a cell receives is set up once per
pass, before the first cell, and kept on the pass's tape with the
pass's settings, which forward_network checks once: the active
clients' entries of the statistics (ClientStats.take); their
parameters for the pass's slots with the effective values, masks and
dual steps derived from them (PassParams); and in grad mode the layout
of the minibatch draws (math_core.minibatch_layout, which the
baselines use too), on which each cell draws every active client's
batch with one call of its generator. The cells, the loss and the
reverse pass read all of these from the tape; a cell record's
parameter fields are views of the pass's arrays.

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
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionMismatch, NonFiniteGradient, NonFiniteInput
from .math_core import (
    EPS,
    MinibatchLayout,
    RowStack,
    chol_solve,
    clamp_positive,
    minibatch_layout,
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
# Per-client arrays are [m, k] and per-client scalars [m]; w is [k].
# forward_network checks the shapes once per pass.
# ---------------------------------------------------------------------------

def phi1_dual(alpha_prev, v_prev, z_prev, w_prev, step) -> np.ndarray:
    """Dual ascent step: alpha + step * (z - v + w)."""
    return alpha_prev + step[:, None] * (z_prev - v_prev + w_prev)


def phi2_v_linear(G, c, alpha, z_prev, w_prev, rho) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form v update on the sufficient statistics G = X'X [m, k, k]
    and c = X'Y [m, k]: solve (G + rho I) v = rho(w+z+alpha) + c, the
    minimizer of 1/2 ||X v - Y||^2 + rho/2 ||z+w+alpha-v||^2 (half the
    SSE; phi2_v_grad steps on the whole SSE, see ROADMAP.md item 11).

    Returns v and the Cholesky factors of G + rho I, which the reverse
    pass reuses. `alpha` here and in phi2_v_grad and phi3_aux is the
    scaled multiplier (alpha / step in the cell's terms).
    """
    A = G + rho[:, None, None] * np.eye(c.shape[1])
    # each client factors its own matrix, one checked call per client and
    # cell, because the benchmark pins that factorization count; the
    # solves run batched
    chol = np.stack([spd_cholesky(a) for a in A])
    return chol_solve(chol, rho[:, None] * (w_prev + z_prev + alpha) + c), chol


def phi2_v_grad(G, c, v, alpha, z_prev, w_prev, rho, lr: float,
                steps: int) -> Tuple[np.ndarray, np.ndarray]:
    """v update by `steps` gradient steps of size `lr` on
    ||X v - Y||^2 + rho/2 ||z+w+alpha-v||^2 (the whole SSE; phi2_v_linear
    minimizes half of it, see ROADMAP.md item 11), whose data gradient
    on G = X'X and c = X'Y is 2(G v - c).

    Returns v_steps and the iterates in between, v_1 ... v_{steps-1},
    shaped (steps - 1,) + v.shape.
    """
    rho = rho[:, None]
    anchor = z_prev + w_prev + alpha
    iterates = np.empty((steps - 1,) + v.shape)
    for t in range(steps):
        if t > 0:
            iterates[t - 1] = v
        g = 2.0 * ((G @ v[:, :, None])[:, :, 0] - c) + rho * (v - anchor)
        v = v - lr * g
        if not np.isfinite(v).all():
            raise NonFiniteGradient("phi2_v_grad: iterate became non-finite")
    return v, iterates


def phi3_aux(alpha, v, w_prev, rho, lam) -> np.ndarray:
    """Entrywise z[j] = rho * (v - w - alpha)[j] / (lam_j + rho), on the
    effective (rectified, so nonnegative) consensus weights lam.

    Large consensus weights pin the corresponding coordinate of z to 0
    (full consensus); zero weights pass the deviation through.
    """
    rho = rho[:, None]
    return rho * (v - w_prev - alpha) / (lam + rho)


def phi4_global(u, theta) -> Tuple[np.ndarray, np.ndarray]:
    """Server side of the aggregation: the weights omega of the received
    client vectors u_i = v_i - z_i - alpha_i [m, k], the softmax of the
    clients' logits theta [m], and their weighted mean w. The logits are
    shifted by the largest, so exp cannot overflow and the largest term
    is 1: the sum never vanishes, and a single client's weight is
    exactly 1. The only client data this touches is u."""
    e = np.exp(theta - theta.max())
    omega = e / e.sum()
    return omega, omega @ u


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


@dataclass(frozen=True)
class PassParams:
    """The active clients' parameters for every slot a pass reads,
    gathered once per pass, and what the cells derive from them alone:
    [S, m] arrays for the penalties and logits, [S, m, k] for the
    consensus weights, with S = 1 for tied parameters and L otherwise.
    Slot s of the pass is slot s of the parameters."""

    rho_eff: np.ndarray   # clamped penalties
    rho_on: np.ndarray    # clamp pass-through mask
    lam_eff: np.ndarray   # rectified consensus weights
    lam_on: np.ndarray    # rectifier pass-through mask
    step_w: np.ndarray    # phi1's dual step (dual_step_weights)
    p: np.ndarray         # aggregation logits

    @classmethod
    def gather(cls, params: LearnableParams, client_indices: np.ndarray, L: int,
               dual_update: str) -> "PassParams":
        """Slots 0 .. slot(L) of the given clients' parameters."""
        S = params.slot(L) + 1
        rho_raw = params.rho_raw[:S, client_indices]
        lam_raw = params.lam_raw[:S, client_indices]
        rho_eff = clamp_positive(rho_raw)
        return cls(
            rho_eff=rho_eff,
            rho_on=rho_raw > EPS,
            lam_eff=rectify(lam_raw),
            lam_on=lam_raw > 0.0,
            step_w=dual_step_weights(rho_eff, dual_update),
            p=params.p[:S, client_indices],
        )

    def slot(self, layer: int) -> int:
        """The slot a 1-based layer reads: its own, or the one shared
        slot of tied parameters."""
        return 0 if self.rho_eff.shape[0] == 1 else layer - 1


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

@dataclass
class CellRecord:
    """What one cell computed, in forward order. The cell's inputs are
    not repeated here: they are the previous cell's outputs, or the
    tape's initial state for the first cell (Tape.inputs). The
    parameter fields are views of slot `slot` of the tape's
    PassParams."""

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
    """One forward pass: its settings, checked by forward_network before
    the first cell, what the pass set up once for its cells, the
    initial state and the per-cell records. `client_indices` are the
    active clients (0-based indices into the M_total clients), `stats`
    their entries of the clients' statistics, `params` their parameters
    for the pass's slots, `batches` grad mode's minibatch layout (None
    when no client draws, and in linear mode), and `slots` the
    parameters' slot count, which may exceed the L cells the pass ran.
    Cell i's inputs live in cell i-1's record, or in `init` for cell 0:
    read them through `inputs`."""

    mode: str
    dual_update: str
    L: int
    M_total: int
    slots: int
    client_indices: np.ndarray
    stats: ClientStats
    params: PassParams
    init: CellState
    batches: Optional[MinibatchLayout] = None
    cells: List[CellRecord] = field(default_factory=list)
    grad_lr: float = GRAD_LR_DEFAULT
    grad_steps: int = GRAD_STEPS_DEFAULT

    @property
    def k(self) -> int:
        return self.stats.xty.shape[1]

    @property
    def m_active(self) -> int:
        return self.client_indices.shape[0]

    def inputs(self, i: int) -> Union[CellState, CellRecord]:
        """The v, z, alpha and w cell i started from: cell i-1's record,
        or the initial state for cell 0."""
        return self.cells[i - 1] if i > 0 else self.init

    def final_v(self) -> np.ndarray:
        return self.cells[-1].v if self.cells else self.init.v

    @cached_property
    def final_residuals(self) -> np.ndarray:
        """X_i v_i - Y_i of the final models on the active clients'
        rows, [m, n]: computed on first read, which must come after the
        pass. The loss reports and the reverse pass's seed share it."""
        return self.stats.rows.residuals(self.final_v())


# ---------------------------------------------------------------------------
# client data
# ---------------------------------------------------------------------------

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
        the statistics equal a stack of those clients alone bit for bit."""
        idx = np.asarray(client_indices)
        r = self.rows
        return ClientStats(
            rows=RowStack(X=r.X[idx], Y=r.Y[idx], counts=r.counts[idx]),
            gram=self.gram[idx],
            xty=self.xty[idx],
        )


def client_stats(shards: Sequence) -> ClientStats:
    """Rows, G and c of every client of `shards`, in order."""
    return ClientStats.of(stack_rows([sh.X_train for sh in shards], [sh.Y_train for sh in shards]))


def _minibatch_stats(stats, batches, batch_rng):
    """Grad mode: each client's minibatch Gram matrix and X'Y (the
    full-shard statistics where no batch is drawn). One draw from
    `batch_rng` on the pass's layout `batches` serves every client."""
    if batches is None:
        return stats.gram, stats.xty
    b = batches.draw(batch_rng)
    gram, xty = b.gram(), b.xt(b.Y)
    drawn = batches.drawn
    if drawn.all():
        return gram, xty
    return np.where(drawn[:, None, None], gram, stats.gram), np.where(drawn[:, None], xty, stats.xty)


# ---------------------------------------------------------------------------
# cell and network forward
# ---------------------------------------------------------------------------

def dual_step_weights(rho_eff: np.ndarray, dual_update: str) -> np.ndarray:
    """Per-client dual step of phi1, shaped like the effective
    penalties: those under ``rho_step``, 1 under ``unit_step``. The
    primal steps read the scaled multiplier alpha / step."""
    return rho_eff if dual_update == "rho_step" else np.ones(rho_eff.shape)


def check_client_indices(client_indices, M: int) -> np.ndarray:
    """`client_indices` as an array, or DimensionMismatch unless it is a
    non-empty 1-d array of distinct integers in [0, M), in any order."""
    idx = np.asarray(client_indices)
    ok = (idx.ndim == 1 and idx.dtype.kind in "iu" and idx.size
          and 0 <= idx.min() and idx.max() < M)
    if ok:
        # in range, the indices are distinct when they flag as many clients
        # (np.unique would import numpy.ma, about 1.6 MB of peak memory)
        flagged = np.zeros(M, dtype=bool)
        flagged[idx] = True
        ok = np.count_nonzero(flagged) == idx.size
    if not ok:
        raise DimensionMismatch(
            f"client_indices must be a non-empty 1-d array of distinct integers"
            f" in [0, {M}), got {idx.dtype} of shape {idx.shape}"
        )
    return idx


def forward_cell(
    state: CellState,
    layer: int,
    tape: Tape,
    batch_rng: Optional[np.random.Generator] = None,
) -> CellState:
    """Apply one cell (phi1..phi4) to the active clients' `state` and
    return the new state.

    Everything else the cell reads is on `tape`, which forward_network
    builds and checks: the pass's settings (mode, dual step, grad
    mode's step size and count), its active clients, their statistics
    and parameters, and grad mode's minibatch layout, on which the cell
    draws one batch from `batch_rng`. The cell appends its CellRecord
    to the tape; the record holds the cell's outputs and shares their
    arrays with the returned state, which nothing mutates.

    The record keeps v, z, alpha, step_w and w, so the vectors that
    cross the client/server boundary can be rebuilt from it bit for bit
    when asked for (federation.round_transcript): u_i = v_i - z_i -
    alpha_i / step_i, the exact array the aggregation consumes (step_i
    is the dual step, see dual_step_weights), and the aggregated w.
    """
    if not 1 <= layer <= tape.L:
        raise DimensionMismatch(f"layer {layer} outside [1, {tape.L}]")
    stats, pp = tape.stats, tape.params
    s = pp.slot(layer)
    rho_eff, lam_eff, step_w = pp.rho_eff[s], pp.lam_eff[s], pp.step_w[s]

    alpha = phi1_dual(state.alpha, state.v, state.z, state.w, step_w)
    a = alpha / step_w[:, None]
    chol = iterates = gram = None
    if tape.mode == "linear":
        v, chol = phi2_v_linear(stats.gram, stats.xty, a, state.z, state.w, rho_eff)
    else:
        gram, xty = _minibatch_stats(stats, tape.batches, batch_rng)
        v, iterates = phi2_v_grad(gram, xty, state.v, a, state.z, state.w, rho_eff,
                                  tape.grad_lr, tape.grad_steps)
    z = phi3_aux(a, v, state.w, rho_eff, lam_eff)
    omega, w = phi4_global(v - z - a, pp.p[s])
    if not (
        np.isfinite(v).all()
        and np.isfinite(z).all()
        and np.isfinite(alpha).all()
        and np.isfinite(w).all()
    ):
        raise NonFiniteInput(f"forward_cell: non-finite state after layer {layer}")

    tape.cells.append(
        CellRecord(
            layer=layer,
            slot=s,
            v=v,
            z=z,
            alpha=alpha,
            w=w,
            rho_eff=rho_eff,
            rho_on=pp.rho_on[s],
            lam_eff=lam_eff,
            lam_on=pp.lam_on[s],
            omega=omega,
            step_w=step_w,
            chol=chol,
            v_iterates=iterates,
            gram=gram,
        )
    )
    return CellState(v=v, z=z, alpha=alpha, w=w)


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

    Every setting, `client_indices` (see check_client_indices; every
    shard's client by default) and the shapes of `state0` ([m, k]
    arrays and a [k] w) are checked before the first cell runs, and the
    pass's parameters and grad mode's minibatch layout set up; a layout
    on which some client draws needs `batch_rng` (ValueError). The initial
    state defaults to init_state(seed); pass `state0` to continue from
    carried-over iterates. The tape keeps `state0` itself as its initial
    state, so its arrays must not be changed afterwards. `population`
    holds the statistics of every client of `shards`, in order, and
    defaults to client_stats(shards); the pass takes the active
    clients' entries from it.
    """
    L = params.L if L is None else L
    if not 1 <= L <= params.L:
        raise DimensionMismatch(f"forward_network: L = {L} outside [1, {params.L}]")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if dual_update not in DUAL_UPDATES:
        raise ValueError(f"unknown dual_update {dual_update!r}")
    if batch_size is not None and batch_size < 1:
        raise ValueError("forward_network: batch_size must be >= 1")
    if grad_lr <= 0:
        raise ValueError("forward_network: grad_lr must be positive")
    if grad_steps < 1:
        raise ValueError("forward_network: grad_steps must be >= 1")
    idx = check_client_indices(np.arange(len(shards)) if client_indices is None else client_indices,
                               len(shards))
    if population is None:
        population = client_stats(shards)
    elif population.rows.counts.shape[0] != len(shards):
        raise DimensionMismatch("forward_network: population statistics disagree with shards")
    stats = population.take(idx)
    mk = stats.xty.shape
    if state0 is not None and not (
        state0.v.shape == state0.z.shape == state0.alpha.shape == mk
        and state0.w.shape == mk[1:]
    ):
        raise DimensionMismatch("forward_network: state shapes disagree with the active clients")
    batches = minibatch_layout(stats.rows, batch_size) if mode == "grad" else None
    if batches is not None and batch_rng is None:
        raise ValueError("batch_size given without a generator")
    tape = Tape(
        mode=mode,
        dual_update=dual_update,
        L=L,
        M_total=len(shards),
        slots=params.rho_raw.shape[0],
        client_indices=idx.copy(),
        stats=stats,
        params=PassParams.gather(params, idx, L, dual_update),
        init=init_state(*mk, seed) if state0 is None else state0,
        batches=batches,
        grad_lr=grad_lr,
        grad_steps=grad_steps,
    )
    state = tape.init
    for layer in range(1, L + 1):
        state = forward_cell(state, layer, tape, batch_rng)
    return state.v, tape
