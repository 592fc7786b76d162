"""Small dense linear-algebra and model primitives.

Everything here works on plain float64 numpy arrays of modest size
(feature dimension k is 4 in the synthetic benchmark, a few hundred at
most by design). Vectors are 1-d arrays and matrices 2-d; a stack of
either, one per client, carries a leading client axis. The one container
is RowStack, which holds several clients' rows so that residuals and
losses run as array operations over the clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyData, NonFiniteInput, NotPD

# Positivity floor for the penalty scalars rho: values are clamped
# to [EPS, inf) at the point of use.
EPS = 1e-6


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-d array, validating shape and content."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name}: expected 1-d array, got shape {arr.shape}")
    if arr.size < 1:
        raise EmptyData(f"{name}: needs at least one entry")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{name}: contains non-finite entries")
    return arr


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-d array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name}: expected 2-d array, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise EmptyData(f"{name}: needs at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{name}: contains non-finite entries")
    return arr


def rectify(raw: np.ndarray) -> np.ndarray:
    """Entrywise max(0, raw); the nonnegativity map for consensus weights.

    The subgradient convention used throughout the package: derivative 1
    where raw > 0, else 0 (including exactly at the kink).
    """
    return np.maximum(raw, 0.0)


def clamp_positive(raw):
    """Clamp a penalty scalar (or array) to [EPS, inf).

    Gradient convention: identity where raw > EPS, zero otherwise.
    """
    return np.maximum(raw, EPS)


def spd_cholesky(A: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric PD matrix, or of
    every matrix of a stack [..., k, k] in one batched factorization.

    The checks run in this order, and the first that fails raises:
    DimensionMismatch unless square, EmptyData for 0 x 0, NonFiniteInput
    for a NaN or infinite entry, NotPD for asymmetry beyond 1e-12 times
    max(1, max|A|) of that matrix, and NotPD for a non-positive pivot.
    Stacked and single matrices go through the same lines. On exactly
    symmetric finite input a call costs one np.linalg.cholesky plus one
    subtraction A - A' and a count of its nonzero entries: when that
    count is 0 every check would pass (a NaN entry, or an infinite one,
    leaves a NaN or infinite entry in A - A'). Otherwise two reductions
    follow: one over |A| gives each matrix's scale and, since NaN and inf
    propagate into a max, its finiteness; one over A - A' gives its
    asymmetry. An infinite entry can make numpy warn of inf - inf in the
    subtraction before NonFiniteInput is raised.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"spd_cholesky: matrix must be square, got {A.shape}")
    if A.shape[-1] < 1:
        raise EmptyData("spd_cholesky: needs at least one row and one column")
    d = A - A.swapaxes(-1, -2)
    if np.count_nonzero(d):
        scale = np.maximum.reduce(np.abs(A), axis=(-2, -1), initial=1.0)
        # A - A' is antisymmetric, so its largest entry is its largest magnitude
        asym = np.maximum.reduce(d, axis=(-2, -1))
        ok = (asym <= 1e-12 * scale) & (scale < np.inf)
        if np.count_nonzero(ok) != ok.size:
            if not np.isfinite(scale).all():
                raise NonFiniteInput("spd_cholesky: contains non-finite entries")
            raise NotPD("spd_cholesky: matrix is not symmetric")
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPD(f"spd_cholesky: {exc}") from exc


def chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the lower Cholesky factor L of A.

    L [..., k, k] and b [..., k] may carry a leading stack axis; each
    system is solved as it would be on its own, bit for bit.
    """
    y = np.linalg.solve(L, b[..., None])
    return np.linalg.solve(np.swapaxes(L, -1, -2), y)[..., 0]


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products a_i . b_i of [..., k] arrays, [...]; [m, k]
    arrays give [m].

    Each row goes through the same BLAS dot as `a_i @ b_i` would, so a
    row's product does not depend on the leading axes it is stacked in.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class RowStack:
    """Several clients' rows in one array, for array operations over
    the clients.

    Client i's rows are X[i, :counts[i]] of X [m, n, k] and the matching
    entries of Y [m, n]. Rows past a client's count are zero, so they
    add nothing to its sums, and clients may hold different numbers of
    rows. Each client's products run through the same BLAS call as the
    per-client matrix product, so on clients of equal size the results
    equal it bit for bit. Build it with `stack_rows`, which validates
    the data once.
    """

    X: np.ndarray
    Y: np.ndarray
    counts: np.ndarray

    def gram(self) -> np.ndarray:
        """Each client's X_i'X_i, [m, k, k]."""
        return np.swapaxes(self.X, 1, 2) @ self.X

    def xt(self, r: np.ndarray) -> np.ndarray:
        """Each client's X_i' r_i for per-row values r [m, n], [m, k]."""
        return (np.swapaxes(self.X, 1, 2) @ r[:, :, None])[:, :, 0]

    def residuals(self, V: np.ndarray) -> np.ndarray:
        """Residuals X_i v_i - Y_i of per-client models V [m, k], [m, n]."""
        V = np.asarray(V, dtype=np.float64)
        if V.shape != (self.X.shape[0], self.X.shape[2]):
            raise DimensionMismatch(
                f"models have shape {V.shape}, rows need {(self.X.shape[0], self.X.shape[2])}"
            )
        if not np.all(np.isfinite(V)):
            raise NonFiniteInput("models contain non-finite entries")
        return (self.X @ V[:, :, None])[:, :, 0] - self.Y

    def sse(self, V: np.ndarray) -> np.ndarray:
        """Each client's sum of squared residuals ||X_i v_i - Y_i||^2, [m]."""
        r = self.residuals(V)
        return rowdot(r, r)


def stack_rows(Xs: Sequence, Ys: Sequence) -> RowStack:
    """Stack per-client design matrices and targets into a RowStack,
    checking shapes and finiteness once for all of them."""
    try:
        X = as_matrix(np.concatenate(Xs), "X")
        Y = as_vector(np.concatenate(Ys), "Y")
    except ValueError as exc:
        raise DimensionMismatch(f"stack_rows: client arrays disagree in shape: {exc}") from exc
    counts = np.array([np.shape(x)[0] for x in Xs], dtype=np.intp)
    if np.any(counts < 1):
        raise EmptyData("stack_rows: every client needs at least one row")
    if not np.array_equal(counts, [np.shape(y)[0] for y in Ys]):
        raise DimensionMismatch("stack_rows: row counts do not match target lengths")
    client = np.repeat(np.arange(counts.shape[0]), counts)
    row = np.arange(X.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    Xp = np.zeros((counts.shape[0], counts.max(), X.shape[1]))
    Yp = np.zeros(Xp.shape[:2])
    Xp[client, row] = X
    Yp[client, row] = Y
    return RowStack(X=Xp, Y=Yp, counts=counts)


@dataclass(frozen=True)
class MinibatchLayout:
    """What every minibatch draw of the same rows and batch size shares,
    built once by `minibatch_layout`; `draw` takes one batch.

    A client whose rows outnumber `batch_size` (flagged in `drawn`)
    draws `batch_size` of them without replacement, so its count falls
    to `batch_size`; the other clients keep all their rows, in order.
    A draw is one `rng.random` call: every row of every drawing client
    gets a uniform key, client by client in order, and a client's batch
    is its rows of the `batch_size` smallest keys, in key order. A
    client that does not draw consumes no keys.
    """

    batch_size: int
    drawn: np.ndarray     # [m] the clients that draw
    keys: np.ndarray      # [m, width] key template: the row index on the
                          # rows of clients that keep theirs, +inf on padding
    key_rows: np.ndarray  # [m, width] the rows that get a uniform key
    n_keys: int           # their number, the length of a draw's key stream
    offsets: np.ndarray   # [m, 1] each client's first row in X and Y
    X: np.ndarray         # the rows' X, flattened to [m * width, k]
    Y: np.ndarray         # the rows' Y, flattened to [m * width]
    counts: np.ndarray    # [m] each client's batch count

    def draw(self, rng: Optional[np.random.Generator]) -> RowStack:
        """One minibatch of every client, stacked; ValueError without a
        generator."""
        if rng is None:
            raise ValueError("batch_size given without a generator")
        keys = self.keys.copy()
        keys[self.key_rows] = rng.random(self.n_keys)
        # one gather on flat row indices, much cheaper than X[client, take]
        flat = np.argsort(keys, axis=1)[:, :self.batch_size] + self.offsets
        return RowStack(X=np.take(self.X, flat, axis=0), Y=np.take(self.Y, flat),
                        counts=self.counts)


def minibatch_layout(rows: RowStack, batch_size: Optional[int]) -> Optional[MinibatchLayout]:
    """The layout of minibatch draws of `batch_size` rows from `rows`
    (see MinibatchLayout), or None when no client draws: every client
    has at most `batch_size` rows, or the size is None."""
    width = rows.X.shape[1]
    counts = rows.counts
    drawn = np.zeros(counts.shape, dtype=bool) if batch_size is None else counts > batch_size
    if not drawn.any():
        return None
    col = np.arange(width)
    own = col < counts[:, None]
    return MinibatchLayout(
        batch_size=batch_size,
        drawn=drawn,
        keys=np.where(own, col.astype(np.float64), np.inf),
        key_rows=own & drawn[:, None],
        n_keys=int(counts[drawn].sum()),
        offsets=(np.arange(counts.shape[0]) * width)[:, None],
        X=rows.X.reshape(-1, rows.X.shape[2]),
        Y=rows.Y.reshape(-1),
        counts=np.where(drawn, batch_size, counts),
    )


def minibatch_rows(
    rows: RowStack,
    batch_size: Optional[int],
    rng: Optional[np.random.Generator] = None,
) -> RowStack:
    """One minibatch of every client of `rows`, stacked, as a one-shot
    draw on minibatch_layout(rows, batch_size): the same batch and key
    stream. When no client draws, `rows` itself is returned; otherwise
    a missing generator raises ValueError."""
    layout = minibatch_layout(rows, batch_size)
    return rows if layout is None else layout.draw(rng)


def design_matrix(xs: np.ndarray, degree: int) -> np.ndarray:
    """Monomial features (1, x, x^2, ..., x^degree), one row per abscissa."""
    xs = as_vector(xs, "xs")
    out = np.empty((xs.shape[0], degree + 1), dtype=np.float64)
    out[:, 0] = 1.0
    for d in range(degree):
        out[:, d + 1] = out[:, d] * xs
    return out

