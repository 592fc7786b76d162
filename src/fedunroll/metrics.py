"""Metrics rows and the one deterministic CSV writer.

Every CSV the CLI writes (metrics_<method>.csv, summary.csv,
final_rmse.csv, lambda_*.csv and transcript_*.csv) goes through
`write_csv`, so one set of rules covers them all: floats are serialized
with repr(), the shortest round-tripping decimal form, so equal runs
produce byte-identical files; ints with str(); strings unchanged;
non-finite values as the literal marker DIVERGED; absent values (None)
as the empty string. Lines end with a fixed "\n" regardless of
platform.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

DIVERGED = "DIVERGED"


@dataclass
class MetricsRecord:
    """One row per (round, method) aggregate."""

    round: int
    epoch: int
    method: str
    client_id: Union[int, str]
    train_rmse: Optional[float]
    test_rmse: Optional[float]
    loss_sum: Optional[float] = None
    lagrangian_final_cell: Optional[float] = None
    wall_ms: Optional[float] = None


COLUMNS = tuple(f.name for f in dataclasses.fields(MetricsRecord))


def format_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return str(x)
    xf = float(x)
    if not math.isfinite(xf):
        return DIVERGED
    return repr(xf)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write `header` and `rows` to `path`, each value through format_value."""
    lines = [",".join(header)]
    lines.extend(",".join(format_value(x) for x in row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
