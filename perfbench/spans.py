"""Span recorder for the traced run.

Spans are recorded from the benchmark's side of each layer boundary: a
public allocore function is wrapped under the module attribute its caller
looks it up by (``allocore.gibbs.cell_rates``, ``allocore.state.cell_rates``,
...) or, for ``MaskCorrections``, on the class. Spans stay in memory as
(name, start, end, parent) and are written out when the phase ends.
Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

__all__ = ["SpanRecorder", "span_stats", "write_spans", "live_draws",
           "instrument", "FIT_TARGETS", "SETUP_TARGETS", "EVAL_TARGETS"]


class SpanRecorder:
    """In-memory spans plus named counters. ``spans[i]`` is a list
    ``[name, start, end, parent]`` with ``parent`` the index of the
    enclosing span, or -1 at the top level."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, and self seconds, where a span's
    self time is its duration minus the durations of its direct children.
    Spans come from one thread, so sibling children never overlap."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child_time[i]
    return out


def write_spans(spans, path) -> None:
    with open(path, "w") as f:
        f.write("index\tname\tstart\tend\tparent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            f.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def live_draws(per_cell: np.ndarray) -> int:
    """Binomial draws of one thinning pass whose remaining count was > 0.

    ``thin_counts`` draws columns 0..Q-2 in order and the remainder before
    draw q is the sum of columns q.., so draw q of a row is live exactly
    when the row's last non-zero column is at q or later."""
    nnz, Q = per_cell.shape
    if nnz == 0 or Q < 2:
        return 0
    nonzero = per_cell != 0
    last = Q - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    last[~nonzero.any(axis=1)] = -1
    return int(np.minimum(last, Q - 2).sum() + nnz)


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


# Counter hooks run after the span has closed, so their cost shows in the
# tracing overhead and not in the layer's self time. ``pre`` sees the call's
# arguments before it runs; ``post`` gets what ``pre`` returned.

def _thin_post(counts, token, args, result):
    state, train = args[0], args[1]
    counts["gibbs.thin_counts.draws"] += train.nnz * (state.Q - 1)
    counts["gibbs.thin_counts.live"] += live_draws(result.per_cell)
    counts["gibbs.thin_counts.bytes"] += train.nnz * state.Q * 8 * 3


def _locations_pre(args):
    return args[0].core_locations.copy()


def _locations_post(counts, before, args, result):
    state = args[0]
    counts["gibbs.sample_locations.moves"] += int(
        np.count_nonzero(state.core_locations != before))
    counts["gibbs.sample_locations.slots"] += state.Q * state.M


def _cells_post(key):
    def post(counts, token, args, result):
        counts[key] += len(args[1])
    return post


def _dir_post(key):
    """Bytes in the state directory, which is the last argument of both
    ``save_state(state, dirpath)`` and ``load_state(dirpath)``."""
    def post(counts, token, args, result):
        counts[key] += _dir_bytes(args[-1])
    return post


# (module, attribute, span name, pre hook, post hook). Module "gibbs.
# MaskCorrections" names a class whose method is wrapped.
SETUP_TARGETS = [
    ("tensors", "load_coo", "tensors.load_coo", None, None),
    ("tensors", "make_fiber_mask", "tensors.make_fiber_mask", None, None),
    ("tensors", "split", "tensors.split", None, None),
]

FIT_TARGETS = [
    ("gibbs", "run_chain", "gibbs.run_chain", None, None),
    ("gibbs", "thin_counts", "gibbs.thin_counts", None, _thin_post),
    ("gibbs", "sample_locations", "gibbs.sample_locations",
     _locations_pre, _locations_post),
    ("gibbs", "sample_lambda", "gibbs.sample_lambda", None, None),
    ("gibbs", "sample_phi", "gibbs.sample_phi", None, None),
    ("gibbs", "sample_pi", "gibbs.sample_pi", None, None),
    ("gibbs", "proportional_train_loglik", "gibbs.proportional_train_loglik",
     None, None),
    ("gibbs.MaskCorrections", "mode_weights", "gibbs.mask.mode_weights",
     None, None),
    ("gibbs.MaskCorrections", "masked_rate_totals",
     "gibbs.mask.masked_rate_totals", None, None),
    ("gibbs.MaskCorrections", "phi_corrections", "gibbs.mask.phi_corrections",
     None, None),
    ("gibbs", "cell_rates", "state.cell_rates", None,
     _cells_post("state.cell_rates.cells")),
    ("state", "cell_rates", "state.cell_rates", None,
     _cells_post("state.cell_rates.cells")),
    ("gibbs", "save_state", "state.save_state", None,
     _dir_post("state.save_state.bytes")),
]

# reconstruct_cells is timed with the cell_rates call inside it, since that
# is the work eval spends per held-out cell.
EVAL_TARGETS = [
    ("evaluation", "load_samples", "evaluation.load_samples", None, None),
    ("evaluation", "load_state", "state.load_state", None,
     _dir_post("state.load_state.bytes")),
    ("evaluation", "ppd", "evaluation.ppd", None, None),
    ("evaluation", "ppd_positive", "evaluation.ppd_positive", None, None),
    ("evaluation", "ppd_constant_baseline", "evaluation.ppd_constant_baseline",
     None, None),
    ("evaluation", "train_loglik", "evaluation.train_loglik", None, None),
    ("evaluation", "reconstruct_cells", "evaluation.reconstruct_cells", None,
     _cells_post("evaluation.reconstruct_cells.cells")),
]


def _wrap(fn, recorder: SpanRecorder, name: str, pre, post):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = pre(args) if pre else None
        idx = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(idx)
        if post:
            post(recorder.counts, token, args, result)
        return result
    return traced


def instrument(recorder: SpanRecorder, targets):
    """Wrap every target for ``recorder``; returns a function that puts the
    original attributes back. One function looked up under several names is
    wrapped once, so a call is never recorded twice."""
    import allocore

    wrapped = {}
    restore = []
    for mod_name, attr, name, pre, post in targets:
        owner = allocore
        for part in mod_name.split("."):
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        if id(original) not in wrapped:
            wrapped[id(original)] = _wrap(original, recorder, name, pre, post)
        restore.append((owner, attr, original))
        setattr(owner, attr, wrapped[id(original)])

    def undo():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
    return undo
