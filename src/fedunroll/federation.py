"""Message-structured round execution and the experiment driver.

One communication round runs the L-cell forward over the active
clients, with every vector that crosses the client/server boundary
recorded as a RoundMessage: per layer, one client_vector per active
client (u_i = v_i - z_i - alpha_i / step_i, with step_i the dual step of
unrolled_net.dual_step_weights; exactly the array the server
aggregates) followed by one global_broadcast (the new w); after the
last layer, one loss_report per active client and a single
loss_sum_broadcast. The transcript is the complete inter-party
exchange: the aggregated w is bit-for-bit recomputable from the
client_vector payloads, and nothing else about a client's state or
data appears in it.

The experiment driver keeps per-client iterates across rounds and
epochs: inactive clients keep their stale (v, z, alpha) and rejoin with
them later, and each epoch's forward starts from the carried state
(treated as constant by the reverse pass, i.e. backpropagation is
truncated at round boundaries).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .baselines import evaluate_models, evaluation_rows
from .config import ExperimentConfig
from .diagnostics import lagrangian
from .errors import (
    DegenerateWeights,
    DimensionMismatch,
    NonFiniteGradient,
    NonFiniteInput,
    NotPD,
    ProtocolViolation,
)
from .learner import OptimizerState, backward, init_optimizer, optimizer_step
from .metrics import MetricsRecord
from .unrolled_net import (
    CellState,
    LearnableParams,
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
        h = hashlib.sha256()
        if isinstance(self.payload, np.ndarray):
            h.update(np.ascontiguousarray(self.payload, dtype=np.float64).tobytes())
        else:
            h.update(repr(float(self.payload)).encode())
        return h.hexdigest()[:16]


@dataclass
class ParticipationPlan:
    """Which clients take part in one round (1-based ids, ascending)."""

    active_ids: List[int]
    fraction: float = 1.0

    @property
    def indices(self) -> np.ndarray:
        return np.asarray([cid - 1 for cid in self.active_ids], dtype=np.intp)


def full_participation(M: int) -> ParticipationPlan:
    return ParticipationPlan(active_ids=list(range(1, M + 1)), fraction=1.0)


def sample_participants(M: int, fraction: float, rng: np.random.Generator) -> ParticipationPlan:
    """Draw ceil(fraction * M) distinct clients uniformly."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("participation fraction must lie in (0, 1]")
    count = math.ceil(fraction * M)
    picked = rng.choice(M, size=count, replace=False)
    return ParticipationPlan(active_ids=sorted(int(i) + 1 for i in picked), fraction=fraction)


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
        """Check counts and canonical ordering; raise ProtocolViolation."""
        c = self.counts()
        expect = {
            "client_vector": n_active * L,
            "global_broadcast": L,
            "loss_report": n_active,
            "loss_sum_broadcast": 1,
        }
        for kind, want in expect.items():
            if c[kind] != want:
                raise ProtocolViolation(
                    f"round {self.round_index}: {kind} count {c[kind]} != {want}"
                )
        pos = 0
        for layer in range(1, L + 1):
            for _ in range(n_active):
                m = self.messages[pos]
                if m.kind != "client_vector" or m.layer != layer:
                    raise ProtocolViolation(
                        f"round {self.round_index}: expected client_vector "
                        f"for layer {layer} at position {pos}"
                    )
                pos += 1
            m = self.messages[pos]
            if m.kind != "global_broadcast" or m.layer != layer:
                raise ProtocolViolation(
                    f"round {self.round_index}: expected global_broadcast "
                    f"for layer {layer} at position {pos}"
                )
            pos += 1
        for _ in range(n_active):
            if self.messages[pos].kind != "loss_report":
                raise ProtocolViolation(
                    f"round {self.round_index}: expected loss_report at position {pos}"
                )
            pos += 1
        if self.messages[pos].kind != "loss_sum_broadcast":
            raise ProtocolViolation(
                f"round {self.round_index}: expected loss_sum_broadcast at position {pos}"
            )


@dataclass
class RoundResult:
    params: LearnableParams
    transcript: Transcript
    loss_sum: float
    lagrangian_final: float
    tape: object


def run_round(
    shards: Sequence,
    params: LearnableParams,
    opt_state: OptimizerState,
    state: CellState,
    plan: ParticipationPlan,
    cfg: ExperimentConfig,
    round_index: int,
    epoch: int,
) -> RoundResult:
    """Execute one communication round over the active clients.

    `state` holds the full-population carried iterates and is updated
    in place for the active rows (and the shared w); `opt_state` is
    advanced by one step. Returns the updated parameters.
    """
    idx = plan.indices
    if idx.size == 0:
        raise DimensionMismatch("run_round: no active clients")
    transcript = Transcript(round_index=round_index, epoch=epoch)

    def sink(kind: str, layer: int, client_index: Optional[int], payload: np.ndarray):
        cid = None if client_index is None else int(client_index) + 1
        transcript.messages.append(
            RoundMessage(kind=kind, layer=layer, client_id=cid, payload=np.array(payload, copy=True))
        )

    sub = CellState(
        v=state.v[idx].copy(),
        z=state.z[idx].copy(),
        alpha=state.alpha[idx].copy(),
        w=state.w.copy(),
    )
    batch_rng = None
    if cfg.mode == "grad":
        batch_rng = np.random.default_rng(
            np.random.SeedSequence([int(cfg.seed or 0), 0xB47C, round_index, epoch])
        )
    v_final, tape = forward_network(
        shards,
        params,
        L=cfg.L,
        mode=cfg.mode,
        dual_update=cfg.dual_update,
        state0=sub,
        client_indices=idx,
        batch_rng=batch_rng,
        batch_size=cfg.batch_size if cfg.mode == "grad" else None,
        grad_lr=cfg.grad_lr,
        grad_steps=cfg.grad_steps,
        message_sink=sink,
    )

    losses = tape.rows.sse(v_final).tolist()
    for ci, F in zip(idx, losses):
        transcript.messages.append(
            RoundMessage(kind="loss_report", layer=None, client_id=int(ci) + 1, payload=F)
        )
    loss_sum = sum(losses)
    transcript.messages.append(
        RoundMessage(kind="loss_sum_broadcast", layer=None, client_id=None, payload=float(loss_sum))
    )
    transcript.verify(n_active=idx.size, L=cfg.L)

    final = tape.cells[-1]
    lag = lagrangian(
        CellState(v=final.v, z=final.z, alpha=final.alpha, w=final.w),
        shards,
        params,
        final.layer,
        idx,
        cfg.dual_update,
    )

    grads = backward(tape, shards, policy=cfg.policy)
    new_params = optimizer_step(params, grads, opt_state)

    state.v[idx] = final.v
    state.z[idx] = final.z
    state.alpha[idx] = final.alpha
    state.w = final.w.copy()

    return RoundResult(
        params=new_params,
        transcript=transcript,
        loss_sum=float(loss_sum),
        lagrangian_final=float(lag),
        tape=tape,
    )


@dataclass
class ExperimentResult:
    method: str
    records: List[MetricsRecord]
    models_raw: np.ndarray
    per_client_test_rmse: np.ndarray
    mean_test_rmse: float
    std_test_rmse: float
    params: LearnableParams
    diverged: bool = False
    transcripts: List[Transcript] = field(default_factory=list)


def run_unrolled_experiment(
    cfg: ExperimentConfig,
    shards: Sequence,
    method_name: str = "unrolled",
) -> ExperimentResult:
    """Train the unrolled network: rounds x epochs, carried state,
    per-round aggregate metrics over the full population (stale models
    for clients that sat a round out)."""
    M = len(shards)
    k = shards[0].X_train.shape[1]
    seed = int(cfg.seed or 0)
    params = init_params(M, k, cfg.L, tied=cfg.tied)
    opt_state = init_optimizer(params, kind=cfg.optimizer, lr=cfg.lr)
    state = init_state(M, k, seed=seed)

    records: List[MetricsRecord] = []
    transcripts: List[Transcript] = []
    t0 = time.perf_counter()
    diverged = False
    train, test = evaluation_rows(shards)

    if cfg.rounds == 0:
        tr, te = evaluate_models(state.v, train, test)
        records.append(
            MetricsRecord(
                round=0,
                epoch=0,
                method=method_name,
                client_id="agg",
                train_rmse=float(tr.mean()),
                test_rmse=float(te.mean()),
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        te_f = te
    else:
        part_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xAC71]))
        te_f = None
        for rnd in range(1, cfg.rounds + 1):
            if cfg.participation < 1.0:
                plan = sample_participants(M, cfg.participation, part_rng)
            else:
                plan = full_participation(M)
            loss_sum = None
            lag = None
            try:
                for ep in range(1, cfg.epochs_per_round + 1):
                    rr = run_round(shards, params, opt_state, state, plan, cfg, rnd, ep)
                    params = rr.params
                    loss_sum = rr.loss_sum
                    lag = rr.lagrangian_final
                    if cfg.transcript:
                        transcripts.append(rr.transcript)
            except (
                FloatingPointError, NonFiniteInput, NonFiniteGradient, NotPD, DegenerateWeights
            ):
                diverged = True
            if diverged:
                records.append(
                    MetricsRecord(
                        round=rnd,
                        epoch=cfg.epochs_per_round,
                        method=method_name,
                        client_id="agg",
                        train_rmse=float("nan"),
                        test_rmse=float("nan"),
                        loss_sum=float("nan"),
                        lagrangian_final_cell=float("nan"),
                        wall_ms=(time.perf_counter() - t0) * 1e3,
                    )
                )
                break
            tr, te = evaluate_models(state.v, train, test)
            records.append(
                MetricsRecord(
                    round=rnd,
                    epoch=cfg.epochs_per_round,
                    method=method_name,
                    client_id="agg",
                    train_rmse=float(tr.mean()),
                    test_rmse=float(te.mean()),
                    loss_sum=loss_sum,
                    lagrangian_final_cell=lag,
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                )
            )
            te_f = te
        if te_f is None:
            _, te_f = evaluate_models(state.v, train, test)

    return ExperimentResult(
        method=method_name,
        records=records,
        models_raw=state.v.copy(),
        per_client_test_rmse=te_f,
        mean_test_rmse=float(te_f.mean()),
        std_test_rmse=float(te_f.std()),
        params=params,
        diverged=diverged,
        transcripts=transcripts,
    )
