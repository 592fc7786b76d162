"""Message-structured round execution and the experiment driver.

One communication round runs the L-cell forward over the active
clients. Its transcript lists every vector that crosses the
client/server boundary as a RoundMessage: per layer, one client_vector
per active client (u_i = v_i - z_i - alpha_i / step_i, with step_i the
dual step of unrolled_net.dual_step_weights; exactly the array the
server aggregates) followed by one global_broadcast (the new w); after
the last layer, one loss_report per active client and a single
loss_sum_broadcast. The transcript is the complete inter-party
exchange: the aggregated w is bit-for-bit recomputable from the
client_vector payloads, and nothing else about a client's state or
data appears in it.

The forward records no messages: round_transcript rebuilds them bit for
bit from the round's tape and verifies them, on the first read of
RoundResult.transcript. A round nobody asks about builds no message.

The experiment driver builds the clients' training statistics
(unrolled_net.ClientStats) once per run, from the training rows that
its RunLog stacks and validates for evaluation, and every round's
forward takes the active clients' entries from them: no round stacks
rows. A round's augmented objective is evaluated from its tape on the
first read of RoundResult.lagrangian_final, which the driver makes once
per round, for the last epoch, on the final residuals the loss reports
and the reverse pass already share. A round's active clients travel as an
array of 0-based indices; 1-based ids appear only in the transcript.

The driver keeps per-client iterates across rounds and epochs:
inactive clients keep their stale (v, z, alpha) and rejoin with them
later, and each epoch's forward starts from the carried state
(treated as constant by the reverse pass, i.e. backpropagation is
truncated at round boundaries). It records through baselines.RunLog,
divergence included, and returns a RunResult, as the baselines do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .baselines import RunLog, RunResult
from .config import ExperimentConfig
from .diagnostics import lagrangian
from .errors import ProtocolViolation
from .learner import OptimizerState, backward, init_optimizer, optimizer_step
from .math_core import rowdot
from .unrolled_net import (
    CellState,
    ClientStats,
    LearnableParams,
    Tape,
    check_client_indices,
    forward_network,
    init_params,
    init_state,
)

MESSAGE_KINDS = ("client_vector", "global_broadcast", "loss_report", "loss_sum_broadcast")


@dataclass
class RoundMessage:
    """One payload crossing the client/server boundary."""

    kind: str
    layer: Optional[int]           # None for the loss phase
    client_id: Optional[int]       # 1-based; None for server broadcasts
    payload: Union[np.ndarray, float]

    def digest(self) -> str:
        # imported here, so that runs without transcripts never load OpenSSL
        import hashlib

        h = hashlib.sha256()
        if isinstance(self.payload, np.ndarray):
            h.update(np.ascontiguousarray(self.payload, dtype=np.float64).tobytes())
        else:
            h.update(repr(float(self.payload)).encode())
        return h.hexdigest()[:16]


def full_participation(M: int) -> np.ndarray:
    """Every client's 0-based index."""
    return np.arange(M)


def sample_participants(M: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Draw ceil(fraction * M) distinct clients uniformly, as ascending
    0-based indices. The product is rounded to 9 decimals first, so that
    float noise (0.07 * 100 = 7.000000000000001) adds no client."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("participation fraction must lie in (0, 1]")
    count = math.ceil(round(fraction * M, 9))
    return np.sort(rng.choice(M, size=count, replace=False))


@dataclass
class Transcript:
    """Canonically ordered record of one round's communication."""

    round_index: int
    epoch: int
    messages: List[RoundMessage] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out = {k: 0 for k in MESSAGE_KINDS}
        for m in self.messages:
            out[m.kind] += 1
        return out

    def verify(self, n_active: int, L: int) -> None:
        """Check each message's kind and layer against the canonical
        order, which also fixes the counts; raise ProtocolViolation."""
        canonical = []
        for layer in range(1, L + 1):
            canonical += [("client_vector", layer)] * n_active + [("global_broadcast", layer)]
        canonical += [("loss_report", None)] * n_active + [("loss_sum_broadcast", None)]
        got = [(m.kind, m.layer) for m in self.messages]
        if got != canonical:
            # the first position where the two differ, or where one ends
            pos = next(i for i, (g, w) in enumerate(zip(got + [None], canonical + [None])) if g != w)
            want = canonical[pos] if pos < len(canonical) else "no further message"
            raise ProtocolViolation(
                f"round {self.round_index}: expected {want} at position {pos} of {len(got)} messages"
            )


def round_transcript(tape: Tape, losses: Sequence[float], round_index: int, epoch: int) -> Transcript:
    """One round's transcript, rebuilt from its tape and verified: per
    cell, each active client's u_i = v_i - z_i - alpha_i / step_i by the
    same operations as the array the server aggregated, then w; then
    the active clients' `losses` and the sum of exactly those floats."""
    ids = (tape.client_indices + 1).tolist()
    t = Transcript(round_index=round_index, epoch=epoch)
    for c in tape.cells:
        u = c.v - c.z - c.alpha / tape.params.step_w[c.slot][:, None]
        t.messages.extend(RoundMessage("client_vector", c.layer, cid, ui) for cid, ui in zip(ids, u))
        t.messages.append(RoundMessage("global_broadcast", c.layer, None, c.w.copy()))
    t.messages.extend(RoundMessage("loss_report", None, cid, F) for cid, F in zip(ids, losses))
    t.messages.append(RoundMessage("loss_sum_broadcast", None, None, float(sum(losses))))
    t.verify(n_active=len(ids), L=tape.L)
    return t


@dataclass
class RoundResult:
    params: LearnableParams
    loss_sum: float
    tape: Tape
    losses: List[float]            # the active clients' loss reports, in order
    round_index: int
    epoch: int

    @cached_property
    def lagrangian_final(self) -> float:
        """The augmented objective after the last cell, evaluated on
        first access from the residuals the loss reports read."""
        return lagrangian(self.tape, len(self.tape.cells) - 1)

    @cached_property
    def transcript(self) -> Transcript:
        """The round's messages, built and verified on first access."""
        return round_transcript(self.tape, self.losses, self.round_index, self.epoch)


def run_round(
    shards: Sequence,
    params: LearnableParams,
    opt_state: OptimizerState,
    state: CellState,
    active: np.ndarray,
    cfg: ExperimentConfig,
    round_index: int,
    epoch: int,
    population: Optional[ClientStats] = None,
) -> RoundResult:
    """Execute one communication round over the active clients, given
    by their 0-based indices (see check_client_indices; checked before
    anything reads them).

    `state` holds the full-population carried iterates and is updated
    in place for the active rows (and the shared w); `opt_state` is
    advanced by one step. `population` holds every client's training
    statistics (see forward_network). Returns the updated parameters
    with the round's tape and loss reports; its augmented objective and
    transcript are built from them only when read.
    """
    active = check_client_indices(active, len(shards))
    # fancy indexing copies the active rows; w is replaced, never written
    sub = CellState(v=state.v[active], z=state.z[active], alpha=state.alpha[active], w=state.w)
    batch_rng = None
    if cfg.mode == "grad":
        batch_rng = np.random.default_rng(
            np.random.SeedSequence([int(cfg.seed or 0), 0xB47C, round_index, epoch])
        )
    _, tape = forward_network(
        shards,
        params,
        L=cfg.L,
        mode=cfg.mode,
        dual_update=cfg.dual_update,
        state0=sub,
        client_indices=active,
        batch_rng=batch_rng,
        batch_size=cfg.batch_size,
        grad_lr=cfg.grad_lr,
        grad_steps=cfg.grad_steps,
        population=population,
    )
    # the backward seed reads the same residuals from the tape
    r = tape.final_residuals
    losses = rowdot(r, r).tolist()

    final = tape.cells[-1]
    grads = backward(tape, shards, policy=cfg.policy)
    new_params = optimizer_step(params, grads, opt_state)

    state.v[active] = final.v
    state.z[active] = final.z
    state.alpha[active] = final.alpha
    state.w = final.w

    return RoundResult(
        params=new_params,
        loss_sum=float(sum(losses)),
        tape=tape,
        losses=losses,
        round_index=round_index,
        epoch=epoch,
    )


def run_unrolled_experiment(
    cfg: ExperimentConfig,
    shards: Sequence,
    method_name: str = "unrolled",
) -> RunResult:
    """Train the unrolled network: rounds x epochs, carried state,
    per-round aggregate metrics over the full population (stale models
    for clients that sat a round out). Round transcripts are built only
    when `cfg.transcript` is set. Raises ConfigError for an invalid
    `cfg`."""
    cfg.validate()
    log = RunLog(method_name, shards)
    M, _, k = log.train.X.shape
    params = init_params(M, k, cfg.L, tied=cfg.tied)
    opt_state = init_optimizer(params, kind=cfg.optimizer, lr=cfg.lr)
    state = init_state(M, k, seed=cfg.seed)

    transcripts: List[Transcript] = []
    population = ClientStats.of(log.train)
    if cfg.rounds == 0:
        log.record(0, 0, state.v)
    part_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xAC71]))
    for rnd in range(1, cfg.rounds + 1):
        active = (sample_participants(M, cfg.participation, part_rng)
                  if cfg.participation < 1.0 else full_participation(M))
        with log.guard(rnd, cfg.epochs_per_round, loss_sum=math.nan, lagrangian=math.nan):
            for ep in range(1, cfg.epochs_per_round + 1):
                rr = run_round(shards, params, opt_state, state, active, cfg, rnd, ep, population)
                params = rr.params
                if cfg.transcript:
                    transcripts.append(rr.transcript)
            log.record(rnd, cfg.epochs_per_round, state.v,
                       loss_sum=rr.loss_sum, lagrangian=rr.lagrangian_final)
        if log.diverged:
            break

    return log.result(state.v.copy(), params=params, transcripts=transcripts)
