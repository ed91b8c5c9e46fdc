"""Ground-truth tensor generation from the generative model.

Used for recovery experiments: generate data with known effective core
dimensions, fit with a larger budget, and check that the posterior
concentrates near the truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gibbs import PosteriorSamples
from .state import TINY, Hyperparameters, ModelState, effective_dims
from .tensors import SparseCountTensor, sum_entries, write_manifest

__all__ = [
    "SyntheticConfig",
    "default_config",
    "generate",
    "recovery_trace",
    "write_trace",
    "write_histograms",
    "write_config",
]


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings. Random factor columns are sparse-Dirichlet draws
    rescaled to sum to ``column_scale``; ``fixed_columns`` pins whole factor
    matrices (mode index -> (D_m, K_m) array). Core values are gamma draws;
    locations are uniform over the rank-1 location prior."""

    shape: tuple[int, ...] = (40, 40, 5)
    true_dims: tuple[int, ...] = (4, 4, 2)
    true_budget: int = 6
    column_scale: float = 5.0
    column_concentration: float = 0.01
    fixed_columns: dict[int, np.ndarray] | None = None
    lambda_shape: float = 2.0
    lambda_rate: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        object.__setattr__(self, "true_dims", tuple(int(k) for k in self.true_dims))
        if len(self.true_dims) != len(self.shape):
            raise ValueError("true_dims must give one latent dimension per mode")
        if self.true_budget < 1:
            raise ValueError("true_budget must be at least 1")
        if self.column_scale <= 0 or self.column_concentration <= 0:
            raise ValueError("column scale and concentration must be positive")
        if self.lambda_shape <= 0 or self.lambda_rate <= 0:
            raise ValueError("core-value prior parameters must be positive")
        if self.fixed_columns:
            for m, cols in self.fixed_columns.items():
                if not 0 <= m < len(self.shape):
                    raise ValueError(f"fixed columns given for mode {m}, want a mode "
                                     f"in 0..{len(self.shape) - 1}")
                want = (self.shape[m], self.true_dims[m])
                arr = np.asarray(cols, dtype=np.float64)
                if arr.shape != want:
                    raise ValueError(
                        f"fixed columns for mode {m} have shape {arr.shape}, want {want}")
                if (arr <= 0).any():
                    raise ValueError("fixed factor columns must be strictly positive")


# Heterogeneous columns for the last mode of the default 3-mode design: two
# factors over five entities, each column summing to the column scale.
_DEFAULT_MODE3 = np.array([
    [2.5, 0.5],
    [0.5, 2.5],
    [1.0, 1.0],
    [0.5, 0.5],
    [0.5, 0.5],
])


def default_config(seed: int = 0) -> SyntheticConfig:
    return SyntheticConfig(fixed_columns={2: _DEFAULT_MODE3}, seed=seed)


def generate(config: SyntheticConfig) -> tuple[SparseCountTensor, ModelState]:
    """Draw a tensor from the generative model, seeded by ``config.seed``:
    gamma core values at uniform rank-1 locations, per-class Poisson event
    totals allocated independently along each mode by the normalized factor
    columns. Returns the tensor and the state that generated it."""
    rng = np.random.default_rng(config.seed)
    M = len(config.shape)
    Q = config.true_budget

    factors = []
    fixed = config.fixed_columns or {}
    for m, (d, k) in enumerate(zip(config.shape, config.true_dims)):
        if m in fixed:
            factors.append(np.asarray(fixed[m], dtype=np.float64).copy())
            continue
        cols = [np.maximum(rng.dirichlet(np.full(d, config.column_concentration)),
                           TINY) * config.column_scale
                for _ in range(k)]
        factors.append(np.column_stack(cols))

    core_values = np.maximum(
        rng.gamma(config.lambda_shape, 1.0 / config.lambda_rate, size=Q), TINY)
    locations = np.empty((Q, M), dtype=np.int64)
    for m in range(M):
        locations[:, m] = rng.integers(0, config.true_dims[m], size=Q)

    # Per class, the rank-1 rate tensor is sampled exactly by drawing the
    # Poisson event total, then placing each event independently per mode.
    # The total multiplies the modes first and lambda last, not in
    # gibbs.class_mass's order: it feeds rng.poisson, so reordering it would
    # change every generated tensor and any input cached from one.
    colsums = [f.sum(axis=0) for f in factors]
    event_coords = [np.empty((0, M), dtype=np.int64)]
    for q in range(Q):
        total_rate = core_values[q] * math.prod(
            colsums[m][locations[q, m]] for m in range(M))
        n = rng.poisson(total_rate)
        if n == 0:
            continue
        coords = np.empty((n, M), dtype=np.int64)
        for m in range(M):
            col = factors[m][:, locations[q, m]]
            coords[:, m] = rng.choice(config.shape[m], size=n, p=col / col.sum())
        event_coords.append(coords)

    # The empty first block makes a draw of no events the empty tensor. The
    # blocks go before the sum, whose event-long temporaries set the peak.
    events = np.concatenate(event_coords)
    del event_coords
    tensor = sum_entries(config.shape, events, np.ones(len(events), dtype=np.int64))

    hyper = Hyperparameters(a0=config.lambda_shape, b0=config.lambda_rate)
    truth_state = ModelState(
        shape=config.shape, hyper=hyper, factors=factors,
        core_values=core_values, core_locations=locations,
        mode_priors=[np.full(k, 1.0 / k) for k in config.true_dims],
        core_mode="allocore", seed=config.seed)
    truth_state.validate()
    return tensor, truth_state


def recovery_trace(samples: PosteriorSamples) -> tuple[np.ndarray, np.ndarray]:
    """Per saved sample: the effective budget and per-mode effective
    dimensions, as (S,) and (S, M) arrays."""
    if samples.S < 1:
        raise ValueError("need at least one posterior sample")
    dims = [effective_dims(st) for st in samples.samples]
    q_eff = np.array([d[0] for d in dims], dtype=np.int64)
    k_eff = np.array([d[1] for d in dims], dtype=np.int64)
    return q_eff, k_eff


def write_trace(iterations, q_eff: np.ndarray, k_eff: np.ndarray, path) -> None:
    with open(path, "w") as f:
        cols = "\t".join(f"k_eff_{m + 1}" for m in range(k_eff.shape[1]))
        f.write(f"sample\titeration\t{cols}\tq_eff\n")
        for s, it in enumerate(iterations):
            ks = "\t".join(str(int(k)) for k in k_eff[s])
            f.write(f"{s + 1}\t{it}\t{ks}\t{int(q_eff[s])}\n")


def write_histograms(q_eff: np.ndarray, k_eff: np.ndarray, path) -> None:
    stats = {"q_eff": q_eff, **{f"k_eff_{m + 1}": k for m, k in enumerate(k_eff.T)}}
    with open(path, "w") as f:
        f.write("statistic\tvalue\tcount\n")
        for name, vals in stats.items():
            uniq, counts = np.unique(vals, return_counts=True)
            for v, c in zip(uniq, counts):
                f.write(f"{name}\t{int(v)}\t{int(c)}\n")


def write_config(config: SyntheticConfig, path) -> None:
    write_manifest(path, {
        "shape": " ".join(str(d) for d in config.shape),
        "true_dims": " ".join(str(k) for k in config.true_dims),
        "true_budget": config.true_budget,
        "column_scale": repr(config.column_scale),
        "column_concentration": repr(config.column_concentration),
        "lambda_shape": repr(config.lambda_shape),
        "lambda_rate": repr(config.lambda_rate),
        "seed": config.seed,
        "fixed_modes": " ".join(str(m + 1) for m in sorted(config.fixed_columns or {})),
    })
