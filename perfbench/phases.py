"""The benchmark's measured phases, each run in a child process of its own.

    python3 perfbench/phases.py {prepare|fit|eval} REQUEST.json RESULT.json

``prepare`` generates a workload's tensor and mask into the input cache.
``fit`` and ``eval`` drive the library's public API the way ``allocore fit``
and ``allocore eval`` do and report their timings, peak RSS and the values
the correctness gate checks. Each phase gets a process of its own so that
its peak RSS is its own. The child needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

import numpy as np

from allocore import evaluation, gibbs, state, synthetic, tensors

from calibrate import scaled, time_reference
from gate import fingerprint, state_digest
from spans import (EVAL_TARGETS, FIT_TARGETS, SETUP_TARGETS, SpanRecorder,
                   instrument, span_stats, write_spans)
from workloads import Workload

__all__ = ["prepare", "fit", "evaluate"]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_atomic(path, write) -> None:
    tmp = path + ".tmp"
    write(tmp)
    os.replace(tmp, path)


def _write_json(obj, path) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)
        f.write("\n")


def prepare(req: dict) -> dict:
    """Fill the input cache: generate the workload's tensor and record how
    long that took, unless an earlier workload sharing the tensor already
    did, then write the workload's mask. The record is written after the
    tensor, so an interrupted prepare leaves no record and is redone."""
    wl = Workload.from_json(req["workload"])
    paths = req["paths"]
    if os.path.exists(paths["record"]):
        X = tensors.load_coo(paths["coo"])
        with open(paths["record"]) as f:
            record = json.load(f)
    else:
        config = synthetic.SyntheticConfig(
            shape=wl.shape, true_dims=wl.true_dims, true_budget=wl.true_budget,
            column_scale=wl.column_scale,
            column_concentration=wl.column_concentration, seed=wl.data_seed)
        t0 = time.perf_counter()
        X, _ = synthetic.generate(config)
        record = {"generate_s": time.perf_counter() - t0, "nnz": X.nnz}
        _write_atomic(paths["coo"], lambda p: tensors.write_coo(X, p))
        _write_atomic(paths["record"], lambda p: _write_json(record, p))
    if "mask" in paths:
        mask = tensors.make_fiber_mask(X, wl.mask_mode, wl.mask_frac, wl.mask_seed)
        _write_atomic(paths["mask"], lambda p: tensors.write_mask(mask, p))
    return record


def _setup(wl: Workload, coo: str, seed: int):
    """What ``allocore fit`` pays before sweep 1."""
    X = tensors.load_coo(coo)
    mask = None
    train = X
    held_cells = 0
    if wl.mask_frac is not None:
        mask = tensors.make_fiber_mask(X, wl.mask_mode, wl.mask_frac, wl.mask_seed)
        train, heldout = tensors.split(X, mask)
        held_cells = heldout.n_cells
    init = state.init_canonical(X.shape, wl.Q, seed=seed)
    return X, mask, train, held_cells, init


def _chain_log_ok(out: str, sweeps: int) -> bool:
    """Every sweep logged a finite log-likelihood."""
    with open(os.path.join(out, gibbs.CHAIN_LOG_NAME)) as f:
        rows = [line.split("\t") for line in f
                if not line.startswith(("#", "iteration"))]
    return len(rows) == sweeps and all(math.isfinite(float(r[1])) for r in rows)


def fit(req: dict) -> dict:
    wl = Workload.from_json(req["workload"])
    seed, out = req["seed"], req["out"]
    recorder = SpanRecorder() if req["trace"] else None
    undo = instrument(recorder, SETUP_TARGETS + FIT_TARGETS) if recorder else None
    try:
        # Each set-up is bracketed by the reference task, so its time can
        # be scaled to the reference host speed (see calibrate.py).
        setup_wall, setup_s = [], []
        time_reference()
        before = time_reference()
        for _ in range(wl.setup_reps):
            t0 = time.perf_counter()
            X, mask, train, held_cells, init = _setup(wl, req["coo"], seed)
            wall = time.perf_counter() - t0
            after = time_reference()
            setup_wall.append(wall)
            setup_s.append(scaled(wall, before, after))
            before = after

        config = gibbs.ChainConfig(burn_in=0, total=wl.sweeps, thin=wl.thin,
                                   seed=seed)
        marks: list[float] = []
        t0 = time.perf_counter()
        samples = gibbs.run_chain(
            train, mask, init, config, out_dir=out,
            sample_sink=lambda it, st: marks.append(time.perf_counter()))
        fit_s = time.perf_counter() - t0
    finally:
        if undo:
            undo()

    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "fit_s": fit_s,
        "sink_intervals": [b - a for a, b in zip(marks, marks[1:])],
        "rss_mb": _peak_rss_mb(),
        "samples": samples.S,
        "state_sha256": state_digest(os.path.join(out, "checkpoint")),
        "log_ok": _chain_log_ok(out, wl.sweeps),
        "nnz": X.nnz,
        "stems": mask.n_stems if mask is not None else 0,
        "held_cells": held_cells,
        "mask_ok": None,
        "fingerprint": fingerprint(),
    }
    # The checkpoint must load: load_state checks its checksum and validity.
    state.load_state(os.path.join(out, "checkpoint"))
    if mask is not None:
        cached = tensors.load_mask(req["mask"])
        result["mask_ok"] = bool(cached.free_mode == mask.free_mode
                                 and np.array_equal(cached.stems, mask.stems))
    if recorder:
        write_spans(recorder.spans, req["spans"])
        result["spans"] = span_stats(recorder.spans)
        result["counts"] = dict(recorder.counts)
    return result


def evaluate(req: dict) -> dict:
    """``allocore eval`` on the fit's run directory: load the samples and
    score the held-out cells. Without a mask nothing is held out, so each
    sample scores the training data with ``train_loglik`` instead."""
    wl = Workload.from_json(req["workload"])
    train = tensors.load_coo(req["coo"])
    heldout = None
    if wl.mask_frac is not None:
        train, heldout = tensors.split(train, tensors.load_mask(req["mask"]))
    recorder = SpanRecorder() if req["trace"] else None
    undo = instrument(recorder, EVAL_TARGETS) if recorder else None
    # A traced eval runs once, so its spans are those of one eval phase.
    reps = 1 if req["trace"] else wl.eval_reps
    eval_s, reps_values = [], []
    try:
        for _ in range(reps):
            values = {}
            t0 = time.perf_counter()
            samples = evaluation.load_samples(req["out"])
            if heldout is not None:
                values["ppd"] = evaluation.ppd(samples, heldout)
                values["ppd_positive"] = evaluation.ppd_positive(samples, heldout)
                values["ppd_baseline"] = evaluation.ppd_constant_baseline(train, heldout)
            else:
                values["train_loglik"] = sum(
                    evaluation.train_loglik(st, train) for st in samples.samples)
            eval_s.append(time.perf_counter() - t0)
            # repr keeps every digit, so the gate can compare exactly.
            reps_values.append({k: repr(v) for k, v in values.items()})
            n_samples = samples.S
            # Drop this repetition's samples before the next one loads its
            # own, so peak RSS stays that of a single eval.
            del samples
    finally:
        if undo:
            undo()
    result = {
        "eval_s": eval_s,
        "rss_mb": _peak_rss_mb(),
        "samples": n_samples,
        "values": reps_values[0],
        "values_repeat": all(v == reps_values[0] for v in reps_values),
    }
    if recorder:
        write_spans(recorder.spans, req["spans"])
        result["spans"] = span_stats(recorder.spans)
        result["counts"] = dict(recorder.counts)
    return result


PHASES = {"prepare": prepare, "fit": fit, "eval": evaluate}


def main(argv: list[str]) -> int:
    phase, req_path, res_path = argv
    with open(req_path) as f:
        req = json.load(f)
    result = PHASES[phase](req)
    _write_atomic(res_path, lambda p: _write_json(result, p))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
