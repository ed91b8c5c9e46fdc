"""Workload definitions and the cache of generated inputs.

A workload fixes the synthetic tensor (config and data seed), the mask, the
budget Q and the chain length. The benchmark's ``--seed`` is the chain seed:
it seeds ``init_canonical`` and the chain's substreams, exactly as
``allocore fit --seed`` does. The tensor and the mask stay fixed per
workload, so every seed does the same amount of work on the same input and
run-to-run spread reflects the sampler, not the input size (across data
seeds the dense tensor's nnz ranges from 31k to 47k).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

__all__ = ["Workload", "WORKLOADS", "data_key", "input_paths"]


@dataclass(frozen=True)
class Workload:
    """One benchmark input plus the chain settings that run on it.

    ``mask_frac`` of ``None`` means no held-out fibers: the fit sees the
    whole tensor and the eval phase scores the training data instead.
    The set-up runs ``setup_reps`` times and the untraced eval phase
    ``eval_reps`` times, and the median of each is reported; the chain runs
    once, since the gate hashes its final state.
    """

    name: str
    shape: tuple[int, ...]
    true_dims: tuple[int, ...]
    true_budget: int
    column_scale: float
    column_concentration: float
    data_seed: int
    Q: int
    sweeps: int
    thin: int
    setup_reps: int
    eval_reps: int = 1
    mask_mode: int = 2
    mask_frac: float | None = None
    mask_seed: int = 1

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "Workload":
        d = dict(d)
        d["shape"] = tuple(d["shape"])
        d["true_dims"] = tuple(d["true_dims"])
        return cls(**d)


_DENSE = dict(shape=(300, 300, 60), true_dims=(10, 10, 5), true_budget=30,
              column_scale=60.0, column_concentration=0.01, data_seed=0)

WORKLOADS = {w.name: w for w in [
    # The paper's over-complete regime (Q=400 against 30 true classes) on the
    # ROADMAP baseline tensor; thinning, loglik, locations and the mask all
    # take a visible share. ROADMAP speed items quote this one.
    Workload(
        name="dense-q400-mask1",
        Q=400, sweeps=8, thin=2, setup_reps=9, eval_reps=3, mask_frac=0.01,
        **_DENSE),
    # 246k nnz with median count 1: most binomial draws see a remaining
    # count of 0 and the nnz x Q temporaries set peak RSS. No mask, so mask
    # and location work must show no change here.
    Workload(
        name="lowcount-q100",
        shape=(300, 300, 60), true_dims=(10, 10, 5), true_budget=30,
        column_scale=20.0, column_concentration=0.1, data_seed=0,
        Q=100, sweeps=6, thin=1, setup_reps=5, eval_reps=2),
    # 10% of fibers held out: mask corrections take a fifth of a sweep, every
    # sweep writes a sample and a checkpoint, and eval then reads them all
    # back and scores 540k held-out cells per sample. That eval takes about
    # 10 s, long enough to be steady without repeating it.
    Workload(
        name="heldout-q50-mask10",
        Q=50, sweeps=12, thin=1, setup_reps=9, mask_frac=0.10, **_DENSE),
]}


def data_key(w: Workload) -> str:
    """Cache key of a workload's generated tensor: every SyntheticConfig
    field that ``generate`` reads, so workloads sharing a tensor share it."""
    spec = json.dumps([list(w.shape), list(w.true_dims), w.true_budget,
                       w.column_scale, w.column_concentration, w.data_seed])
    return hashlib.sha256(spec.encode()).hexdigest()[:16]


def input_paths(w: Workload, data_dir: str) -> dict[str, str]:
    """Where the cached COO tensor, its generation record and the mask of
    a workload live inside ``data_dir``."""
    key = data_key(w)
    paths = {
        "coo": os.path.join(data_dir, f"{key}.coo"),
        "record": os.path.join(data_dir, f"{key}.json"),
    }
    if w.mask_frac is not None:
        paths["mask"] = os.path.join(
            data_dir, f"{key}_mask_m{w.mask_mode}_f{w.mask_frac}_s{w.mask_seed}.txt")
    return paths
