"""Synthetic federated polynomial-regression benchmark and data ingestion.

Each client observes noisy samples of its own cubic polynomial. The
three benchmark settings control how many of the four coefficients are
shared across clients (shared low-order, personal high-order):

  setting 1: coefficients 0..2 shared, coefficient 3 personal
  setting 2: coefficients 0..1 shared, coefficients 2..3 personal
  setting 3: coefficient 0 shared, coefficients 1..3 personal

Targets are y = f_i(x) + Normal(0, noise_std^2) at abscissae drawn
uniformly from [-1, 1]; features are the monomials (1, x, x^2, x^3).
Test targets are kept noiseless (the ground-truth function values) so
test RMSE measures recovery of f_i rather than the noise floor.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import EmptyData, InvalidSetting, MissingColumn, ParseError
from .math_core import design_matrix

DEGREE = 3
K = DEGREE + 1
SETTINGS = (1, 2, 3)
TRAIN_RATIO = 0.9  # share of each client's samples in its training split


@dataclass
class DataShard:
    """One client's data: train/test design matrices and targets."""

    client_id: int
    X_train: np.ndarray
    Y_train: np.ndarray
    X_test: np.ndarray
    Y_test: np.ndarray
    gt_coeffs: Optional[np.ndarray] = None

    @property
    def k(self) -> int:
        return self.X_train.shape[1]


@dataclass
class SettingSpec:
    """Parameters of one synthetic benchmark instance (train share TRAIN_RATIO)."""

    setting: int
    M: int = 10
    n_per_client: int = 200
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise InvalidSetting(f"unknown setting {self.setting!r}")
        if self.M < 2:
            raise InvalidSetting("need at least 2 clients for shared coefficients")
        if self.n_per_client < 2:
            # a single sample would leave a client without a train row
            raise InvalidSetting("n_per_client must be >= 2")
        if self.noise_std < 0:
            raise InvalidSetting("noise_std must be >= 0")


def split(X: np.ndarray, Y: np.ndarray, ratio: float, seed: int) -> Tuple:
    """Seed-deterministic disjoint, exhaustive train/test split.

    Returns ((X_train, Y_train), (X_test, Y_test)). The train side gets
    floor(ratio * n) rows.
    """
    n = X.shape[0]
    if n == 0:
        raise EmptyData("split: no rows")
    if not (0.0 < ratio < 1.0):
        raise ValueError("split: ratio must be in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(ratio * n)
    tr, te = perm[:n_train], perm[n_train:]
    return (X[tr], Y[tr]), (X[te], Y[te])


def generate_setting(spec: SettingSpec) -> List[DataShard]:
    """Generate the M client shards for one benchmark instance.

    All randomness (coefficients, abscissae, noise, splits) derives from
    spec.seed, so equal specs give identical shards.
    """
    s = spec.setting  # setting s keeps its top s coefficients personal
    root = np.random.SeedSequence(spec.seed)
    coeff_seq, data_seq = root.spawn(2)
    coeff_rng = np.random.default_rng(coeff_seq)

    shared = coeff_rng.uniform(-1.0, 1.0, K)
    coeffs = np.tile(shared, (spec.M, 1))
    for i in range(spec.M):
        coeffs[i, K - s:] = coeff_rng.uniform(-1.0, 1.0, s)

    shards = []
    client_seqs = data_seq.spawn(spec.M)
    for i in range(spec.M):
        rng = np.random.default_rng(client_seqs[i])
        xs = rng.uniform(-1.0, 1.0, spec.n_per_client)
        X = design_matrix(xs, DEGREE)
        y_clean = X @ coeffs[i]
        y = y_clean + rng.normal(0.0, spec.noise_std, spec.n_per_client)

        n_train = int(TRAIN_RATIO * spec.n_per_client)
        perm = rng.permutation(spec.n_per_client)
        tr, te = perm[:n_train], perm[n_train:]
        shards.append(
            DataShard(
                client_id=i + 1,
                X_train=X[tr],
                Y_train=y[tr],
                X_test=X[te],
                Y_test=y_clean[te],
                gt_coeffs=coeffs[i].copy(),
            )
        )
    return shards


def export_delimited(shard: DataShard, path: str):
    """Write a shard's rows as CSV: split marker, features, target."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        k = shard.k
        writer.writerow(["split"] + [f"x{j}" for j in range(k)] + ["y"])
        for X, Y, tag in (
            (shard.X_train, shard.Y_train, "train"),
            (shard.X_test, shard.Y_test, "test"),
        ):
            for row, y in zip(X, Y):
                writer.writerow([tag] + [repr(float(c)) for c in row] + [repr(float(y))])


def ingest_delimited(
    path: str,
    target_column: str,
    feature_columns: List[str],
    client_id: int = 1,
    train_ratio: float = TRAIN_RATIO,
    seed: int = 0,
) -> Tuple[DataShard, int]:
    """Read a delimited text file into a DataShard.

    The file must be comma-separated with a header line. Rows whose
    target or feature fields fail to parse as finite reals are skipped;
    the skip count is returned alongside the shard. If the file carries
    a 'split' column with train/test markers it is honored, otherwise
    rows are split by (train_ratio, seed). Raises EmptyData when no row
    parses, or when no row falls on the training side.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line_number=1) from None
        header = [h.strip() for h in header]
        col_index = {name: j for j, name in enumerate(header)}
        for name in [target_column] + list(feature_columns):
            if name not in col_index:
                raise MissingColumn(f"column {name!r} not in header {header}")
        has_split = "split" in col_index

        feats, targets, split_tags = [], [], []
        skipped = 0
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(row)}", line_number=line_no
                )
            try:
                fv = [float(row[col_index[c]]) for c in feature_columns]
                tv = float(row[col_index[target_column]])
            except ValueError:
                skipped += 1
                continue
            if not all(np.isfinite(fv)) or not np.isfinite(tv):
                skipped += 1
                continue
            feats.append(fv)
            targets.append(tv)
            if has_split:
                split_tags.append(row[col_index["split"]].strip())

    if not feats:
        raise EmptyData(f"{path}: no usable rows")
    X = np.asarray(feats, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)

    if has_split:
        tr = np.array([t == "train" for t in split_tags])
        Xtr, Ytr, Xte, Yte = X[tr], Y[tr], X[~tr], Y[~tr]
    else:
        (Xtr, Ytr), (Xte, Yte) = split(X, Y, train_ratio, seed)
    if Xtr.shape[0] == 0:
        raise EmptyData(f"{path}: no train rows")

    shard = DataShard(
        client_id=client_id, X_train=Xtr, Y_train=Ytr, X_test=Xte, Y_test=Yte
    )
    return shard, skipped
