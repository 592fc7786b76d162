"""The CSV writer every CLI output goes through."""

import math

import numpy as np

from fedunroll.metrics import write_csv


def test_write_csv_serialization_rules(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c"), [
        (None, float("nan"), math.inf),
        (-math.inf, np.float64(np.inf), np.float64(0.1)),
        (0.1, 1 / 3, 2.0),
        (3, -7, "agg"),
    ])
    assert path.read_bytes() == (
        b"a,b,c\n"
        b",DIVERGED,DIVERGED\n"
        b"DIVERGED,DIVERGED,0.1\n"
        b"0.1,0.3333333333333333,2.0\n"
        b"3,-7,agg\n"
    )

