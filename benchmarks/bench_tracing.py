"""Span tracing of fedunroll's layers from outside the package.

`instrument()` rebinds the public functions listed in `SPANNED` and
`COUNTED` in every fedunroll module that holds a reference to them (the
defining module, the modules that import them by name and the package
namespace), and restores the originals on exit. A spanned function
records one span per call: its name, start, end, the span that caused
it (the innermost open span) and the trace id of the workload pass it
ran in. A counted function only increments a counter, because it is
called too often for a span to stay cheap.

Spans stay in memory until the run ends; `write_spans` writes them out
and `self_times_ns` gives each span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

# (module, attribute) of each function that gets a span. Spans are named
# "<module>.<attribute>"; the module is the layer the span belongs to.
SPANNED = (
    ("datagen", "generate_setting"),
    ("unrolled_net", "forward_network"),
    ("unrolled_net", "forward_cell"),
    ("learner", "backward"),
    ("learner", "optimizer_step"),
    ("diagnostics", "lagrangian"),
    ("federation", "run_unrolled_experiment"),
    ("federation", "run_round"),
    ("baselines", "run_baseline"),
    ("baselines", "evaluate_models"),
    ("math_core", "spd_cholesky"),
    ("math_core", "chol_solve"),
)

# Functions whose calls are counted without a span.
COUNTED = (("math_core", "as_vector"),)

LAYERS = ("datagen", "unrolled_net", "learner", "federation", "diagnostics", "baselines", "math_core")


class Tracer:
    """In-memory span store plus call counters and per-round samples."""

    def __init__(self):
        # (span id, parent id, trace id, name, start ns, end ns), appended
        # when a span ends; ids count up in start order
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self.counts: Counter = Counter()
        # counted calls made inside run_unrolled_experiment
        self.unrolled_counts: Counter = Counter()
        # span id of each run_baseline call -> its method
        self.baseline_methods: Dict[int, str] = {}
        # per run_round call: tape bytes, message count, payload bytes
        self.round_samples: List[tuple] = []
        self.trace_id = 0
        self._stack = [-1]

    def span_wrapper(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, tracer.trace_id, name, start, end))
            if after is not None:
                after(sid, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- hooks that record counts at span boundaries --------------------

    def _after_forward_cell(self, sid, args, kwargs, out):
        self.counts["unrolled_net.forward_cell_calls"] += 1
        self.counts["unrolled_net.client_cells"] += out.v.shape[0]

    def _after_run_baseline(self, sid, args, kwargs, out):
        self.baseline_methods[sid] = kwargs["method"] if "method" in kwargs else args[0]

    def _after_run_round(self, sid, args, kwargs, out):
        msgs = out.transcript.messages
        payload = sum(m.payload.nbytes if isinstance(m.payload, np.ndarray) else 8 for m in msgs)
        self.round_samples.append((tape_bytes(out.tape), len(msgs), payload))

    # -- analysis --------------------------------------------------------

    def table(self) -> Dict[str, np.ndarray]:
        """The spans as arrays indexed by span id (start order), so a
        parent always comes before its children."""
        rows = sorted(self.spans)
        ids, parents, trace_ids, names, starts, ends = (zip(*rows) if rows else ([],) * 6)
        assert list(ids) == list(range(len(rows))), "a span is still open"
        return {
            "parent": np.asarray(parents, dtype=np.int64),
            "trace_id": np.asarray(trace_ids, dtype=np.int64),
            "name": np.asarray(names, dtype=object),
            "start_ns": np.asarray(starts, dtype=np.int64),
            "end_ns": np.asarray(ends, dtype=np.int64),
        }

    def write_spans(self, path: str) -> None:
        """One line per span: id, parent id (-1 for a root), trace id, name,
        start and end in nanoseconds of the process's performance counter."""
        with open(path, "w", newline="") as fh:
            fh.write("span_id,parent_id,trace_id,name,start_ns,end_ns\n")
            for row in sorted(self.spans):
                fh.write(",".join(map(str, row)) + "\n")


def self_times_ns(table: Dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children run inside their parent on one thread, so they never overlap
    and their durations sum to the part of the parent they cover.
    """
    dur = table["end_ns"] - table["start_ns"]
    own = dur.copy()
    has_parent = table["parent"] >= 0
    np.subtract.at(own, table["parent"][has_parent], dur[has_parent])
    return own


def tape_bytes(tape) -> int:
    """Bytes of the numpy arrays a forward tape holds (initial state and
    every cell record, minibatch index arrays included)."""
    total = 0
    for rec in [tape.init] + list(tape.cells):
        for value in vars(rec).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif isinstance(value, list):
                total += sum(a.nbytes for a in value if isinstance(a, np.ndarray))
    return total


def _fedunroll_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "fedunroll" or name.startswith("fedunroll."))]


@contextmanager
def instrument(tracer: Tracer):
    """Rebind the traced functions in every fedunroll module for the
    duration of the block; restore the originals on exit."""
    import fedunroll  # noqa: F401  (loads every submodule)
    from fedunroll import federation

    hooks: Dict[str, Callable] = {
        "unrolled_net.forward_cell": tracer._after_forward_cell,
        "federation.run_round": tracer._after_run_round,
        "baselines.run_baseline": tracer._after_run_baseline,
    }
    wrappers = {}
    for module, attr in SPANNED:
        name = f"{module}.{attr}"
        fn = getattr(sys.modules[f"fedunroll.{module}"], attr)
        wrappers[id(fn)] = (fn, tracer.span_wrapper(name, fn, hooks.get(name)))
    for module, attr in COUNTED:
        name = f"{module}.{attr}"
        fn = getattr(sys.modules[f"fedunroll.{module}"], attr)
        wrappers[id(fn)] = (fn, tracer.count_wrapper(name, fn))

    patched = []  # (namespace, attribute, original)
    for mod in _fedunroll_modules():
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patched.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    verify = federation.Transcript.verify
    federation.Transcript.verify = tracer.span_wrapper("federation.transcript_verify", verify)
    try:
        yield tracer
    finally:
        federation.Transcript.verify = verify
        for mod, attr, original in patched:
            setattr(mod, attr, original)
