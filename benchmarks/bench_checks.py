"""Correctness checks that run after a workload's timed part.

Each check is computed apart from the program (numpy least squares, the
benchmark's own loss and RMSE) or tests a property the method must have.
None compares against a stored copy of earlier output. A check raises
`CheckFailed` with the measured values when it does not hold.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from fedunroll.learner import PARAM_FIELDS
from fedunroll.math_core import EPS

# Reverse pass against central differences: criterion 1's measure and
# tolerance, |fd - an| / max(|fd|, |an|, 1e-8) <= 1e-5, retried with a
# coarser step when the default one is dominated by roundoff.
FD_TOL = 1e-5
FD_STEPS = (1e-5, 1e-4)
# Coordinates closer than this to a clamp or rectifier kink are skipped
# (a central difference straddling a kink is not a derivative).
KINK_MARGIN = 1e-3


class CheckFailed(AssertionError):
    """A correctness check did not hold."""


def client_test_rmse(models: np.ndarray, shards: Sequence) -> np.ndarray:
    """Each client's test RMSE, computed with plain numpy."""
    return np.array([
        math.sqrt(float(np.mean((sh.X_test @ models[i] - sh.Y_test) ** 2)))
        for i, sh in enumerate(shards)
    ])


def check_reported_rmse(method: str, models, reported, shards, rtol: float = 1e-12) -> None:
    """The reported per-client test RMSE equals a recomputation from the
    returned models."""
    mine = client_test_rmse(np.asarray(models), shards)
    reported = np.asarray(reported, dtype=np.float64)
    if reported.shape != mine.shape:
        raise CheckFailed(f"{method}: {reported.shape} test RMSEs reported for {mine.shape} clients")
    if not np.allclose(reported, mine, rtol=rtol, atol=0.0):
        worst = float(np.max(np.abs(reported - mine) / np.abs(mine)))
        raise CheckFailed(f"{method}: reported test RMSE differs from recomputation (worst rel {worst:.3e})")


def check_rounds_finite(method: str, records, diverged: bool) -> None:
    """No round diverged and every per-round record is finite."""
    if diverged:
        raise CheckFailed(f"{method}: run reported divergence")
    for rec in records:
        for field in ("train_rmse", "test_rmse", "loss_sum", "lagrangian_final_cell", "wall_ms"):
            value = getattr(rec, field)
            if value is None or not math.isfinite(value):
                raise CheckFailed(f"{method}: round {rec.round} has {field} = {value!r}")


def least_squares_rmse(shards: Sequence):
    """Mean test RMSE of one pooled least-squares model fitted on every
    client's training rows, and of per-client least squares."""
    X = np.vstack([sh.X_train for sh in shards])
    Y = np.concatenate([sh.Y_train for sh in shards])
    pooled = np.linalg.lstsq(X, Y, rcond=None)[0]
    local = np.stack([np.linalg.lstsq(sh.X_train, sh.Y_train, rcond=None)[0] for sh in shards])
    pooled_rmse = client_test_rmse(np.tile(pooled, (len(shards), 1)), shards).mean()
    return float(pooled_rmse), float(client_test_rmse(local, shards).mean())


def check_quality(test_rmse: float, shards: Sequence, multiple: float) -> None:
    """The unrolled model beats one pooled least-squares model and stays
    within `multiple` times per-client least squares."""
    pooled, local = least_squares_rmse(shards)
    if not test_rmse < pooled:
        raise CheckFailed(f"unrolled test RMSE {test_rmse:.4g} not below pooled least squares {pooled:.4g}")
    if not test_rmse <= multiple * local:
        raise CheckFailed(
            f"unrolled test RMSE {test_rmse:.4g} above {multiple} x per-client least squares {local:.4g}"
        )


def sse(models: np.ndarray, shards: Sequence, client_indices) -> float:
    """The benchmark's own training loss sum_i ||X_i v_i - Y_i||^2."""
    return float(sum(
        np.sum((shards[ci].X_train @ models[j] - shards[ci].Y_train) ** 2)
        for j, ci in enumerate(client_indices)
    ))


def _near_kink(field: str, value: float) -> bool:
    if field == "lam_raw":
        return abs(value) < KINK_MARGIN
    if field in ("rho_raw", "gam_raw"):
        return abs(value - EPS) < KINK_MARGIN
    return False


def fd_coordinates(params, grads, per_field: int = 2):
    """For each parameter field, the `per_field` coordinates away from a
    kink with the largest analytic gradient magnitude (the ones a central
    difference resolves)."""
    picked = []
    for field in PARAM_FIELDS:
        values = getattr(params, field)
        g = np.abs(getattr(grads, field)).ravel()
        order = np.argsort(-g, kind="stable")
        taken = 0
        for pos in order:
            idx = np.unravel_index(int(pos), values.shape)
            if _near_kink(field, float(values[idx])):
                continue
            picked.append((field, tuple(int(i) for i in idx)))
            taken += 1
            if taken == per_field:
                break
    return picked


def check_gradient_fd(loss_at, params, grads, coords) -> float:
    """`grads` matches central differences of `loss_at(params)` on
    `coords`; returns the worst relative error."""
    worst = 0.0
    for field, idx in coords:
        an = float(getattr(grads, field)[idx])
        rel = math.inf
        for h in FD_STEPS:
            hi = params.copy()
            getattr(hi, field)[idx] += h
            lo = params.copy()
            getattr(lo, field)[idx] -= h
            fd = (loss_at(hi) - loss_at(lo)) / (2.0 * h)
            rel = min(rel, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
            if rel <= FD_TOL / 2:
                break
        if not rel <= FD_TOL:
            raise CheckFailed(
                f"gradient {field}{list(idx)}: analytic {an:.6e} vs central difference "
                f"{fd:.6e} (rel {rel:.3e} > {FD_TOL})"
            )
        worst = max(worst, rel)
    return worst


def check_same_gradient(a, b, rtol: float = 1e-12) -> None:
    """Two gradients agree field by field."""
    for field in PARAM_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        scale = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))), 1e-300)
        diff = float(np.max(np.abs(x - y)))
        if diff > rtol * scale:
            raise CheckFailed(f"gradient field {field} differs by {diff:.3e} (scale {scale:.3e})")


def check_local_exact(models, shards: Sequence, rtol: float = 1e-8) -> None:
    """local_exact equals per-client numpy least squares."""
    for i, sh in enumerate(shards):
        ref = np.linalg.lstsq(sh.X_train, sh.Y_train, rcond=None)[0]
        rel = float(np.linalg.norm(models[i] - ref) / np.linalg.norm(ref))
        if not rel <= rtol:
            raise CheckFailed(f"local_exact client {i + 1}: relative distance {rel:.3e} from lstsq")


def check_shared_model(method: str, models, rtol: float = 1e-12) -> None:
    """A global-model method gives every client the same model."""
    models = np.asarray(models)
    diff = float(np.max(np.abs(models - models[0])))
    if diff > rtol * max(float(np.max(np.abs(models[0]))), 1e-300):
        raise CheckFailed(f"{method}: client models differ by up to {diff:.3e}")
