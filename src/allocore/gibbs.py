"""Gibbs sampling for the sparse-core Poisson Tucker model.

One sweep runs, in fixed order: multinomial thinning of the observed counts
into per-class latent sources, categorical resampling of each core-location
sub-index, then conjugate gamma/gamma/Dirichlet updates for the core values,
factor entries, and location priors. Held-out fibers are treated as missing
at random: every rate sum over observed cells is computed as the full
product-of-column-sums minus a per-fiber correction, never by enumerating
cells.

Per-block randomness comes from counter-style substreams keyed by
(seed, iteration, block), so chains are reproducible and resumable.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .state import (
    LAMBDA_BLOCK,
    LOCATION_BLOCK,
    PHI_BLOCK,
    PI_BLOCK,
    THIN_BLOCK,
    TINY,
    ModelState,
    cell_rates,
    effective_dims,
    save_state,
    substream,
)
from .tensors import FiberMask, SparseCountTensor

__all__ = [
    "LatentSources",
    "MaskCorrections",
    "ChainConfig",
    "PosteriorSamples",
    "thin_counts",
    "sample_locations",
    "resample_location_subindex",
    "location_log_weights",
    "sample_lambda",
    "lambda_conditional_params",
    "sample_phi",
    "phi_conditional_params",
    "sample_pi",
    "pi_conditional_alphas",
    "run_chain",
    "proportional_train_loglik",
    "observed_rate_total",
    "class_mass",
]

FREEZABLE_BLOCKS = frozenset({"locations", "lambda", "phi", "pi"})


@dataclass
class LatentSources:
    """Per-class latent counts for every training non-zero, plus the
    aggregates the conditionals consume.

    ``per_cell[i, q]`` splits the i-th training count across classes;
    ``totals[q]`` sums it over cells; ``mode_marginals[m][d, q]`` sums it
    over cells whose mode-m coordinate is d; ``factor_counts[m][d, k]``
    further groups classes by their current mode-m sub-index and is kept
    in sync as locations move.
    """

    per_cell: np.ndarray
    totals: np.ndarray
    mode_marginals: list[np.ndarray]
    factor_counts: list[np.ndarray]

    def recompute_factor_counts(self, state: ModelState) -> list[np.ndarray]:
        return [
            _group_columns(self.mode_marginals[m], state.core_locations[:, m], k)
            for m, k in enumerate(state.K)
        ]


def _group_columns(marginal: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """Sum the columns of ``marginal`` (D, Q) into (D, k) groups by key."""
    out = np.zeros((marginal.shape[0], k), dtype=marginal.dtype)
    np.add.at(out.T, keys, marginal.T)
    return out


def _accumulate_rows(idx: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum rows of ``values`` (n, Q) into ``size`` bins given by ``idx``."""
    out = np.zeros((size, values.shape[1]), dtype=values.dtype)
    np.add.at(out, idx, values)
    return out


def thin_counts(state: ModelState, train: SparseCountTensor,
                rng: np.random.Generator) -> LatentSources:
    """Split every observed count into per-class sources by its multinomial
    complete conditional, with probabilities proportional to the per-class
    rates. Zero cells carry no sources. O(nnz * Q * M)."""
    if train.shape != state.shape:
        raise ValueError("training tensor shape does not match state")
    nnz, Q = train.nnz, state.Q
    per_cell = np.zeros((nnz, Q), dtype=np.int64)
    if nnz:
        rates = cell_rates(state, train.coords)
        suffix = np.cumsum(rates[:, ::-1], axis=1)[:, ::-1]
        if not np.isfinite(suffix[:, 0]).all() or (suffix[:, 0] <= 0).any():
            raise RuntimeError(
                "thinning rates vanished or blew up; state positivity is broken")
        remaining = train.counts.copy()
        for q in range(Q - 1):
            denom = suffix[:, q]
            with np.errstate(invalid="ignore", divide="ignore"):
                p = np.where(denom > 0, rates[:, q] / np.where(denom > 0, denom, 1.0), 0.0)
            draw = rng.binomial(remaining, np.clip(p, 0.0, 1.0))
            per_cell[:, q] = draw
            remaining -= draw
        per_cell[:, Q - 1] = remaining

    totals = per_cell.sum(axis=0)
    marginals = [_accumulate_rows(train.coords[:, m], per_cell, d)
                 for m, d in enumerate(state.shape)]
    sources = LatentSources(per_cell=per_cell, totals=totals,
                            mode_marginals=marginals, factor_counts=[])
    sources.factor_counts = sources.recompute_factor_counts(state)
    return sources


class MaskCorrections:
    """Rate-sum corrections for held-out fibers.

    A masked fiber factorizes, so its contribution to any product-of-sums
    is a product over the stem modes times a full column sum over the free
    mode. Everything here is recomputed from the current state on demand;
    with no mask all corrections are identically zero and the samplers skip
    the subtraction entirely.

    Every method takes the same floating-point steps, in the same order, for
    one q or for an array of them, so chains do not depend on which form a
    caller uses. Stem products multiply the modes before the one left out
    from left to right and the modes after it from right to left, then the
    two parts; sums over stems run along the last axis of a C-ordered
    (Q, S) array, which adds in the same order as a 1-D sum per q.
    """

    def __init__(self, mask: FiberMask | None, shape: tuple[int, ...]):
        self.shape = tuple(shape)
        M = len(self.shape)
        self.active = mask is not None and mask.n_stems > 0
        if not self.active:
            self.free_mode = -1
            self.stem_modes: list[int] = []
            self.stems = np.zeros((0, max(M - 1, 0)), dtype=np.int64)
            return
        self.free_mode = mask.free_mode
        self.stem_modes = [m for m in range(M) if m != mask.free_mode]
        self.stems = mask.stems

    def _stem_product(self, state: ModelState, q, skip: int = -1) -> np.ndarray:
        """Product over the stem modes other than ``skip`` of each stem's
        factor values at q's sub-indices: (S,) for one q, (len(q), S) for
        an array of them."""
        kappa = state.core_locations[q]

        def column(j):
            m = self.stem_modes[j]
            return state.factors[m][self.stems[:, j], kappa[..., m, None]]

        J = len(self.stem_modes)
        cut = self.stem_modes.index(skip) if skip in self.stem_modes else J
        prefix = np.ones(np.shape(q) + (len(self.stems),))
        suffix = np.ones_like(prefix)
        for j in range(cut):
            prefix *= column(j)
        for j in range(J - 1, cut, -1):
            suffix *= column(j)
        return prefix * suffix

    def masked_rate_totals(self, state: ModelState,
                           colsums: list[np.ndarray]) -> np.ndarray:
        """For each q: sum over masked cells of the factor product at q's
        location (the correction to the lambda rate and the total rate)."""
        if not self.active:
            return np.zeros(state.Q)
        s_free = colsums[self.free_mode][state.core_locations[:, self.free_mode]]
        return self._stem_product(state, np.arange(state.Q)).sum(axis=1) * s_free

    def mode_weights(self, state: ModelState, q, m: int,
                     colsums: list[np.ndarray]) -> np.ndarray:
        """w[d] = sum over masked cells with mode-m coordinate d of the
        product of q's factor values over the other modes. ``q`` is one
        index, giving (D_m,), or an array of them, giving (len(q), D_m)."""
        D = self.shape[m]
        if m == self.free_mode:
            total = self._stem_product(state, q).sum(axis=-1)
            return np.full(np.shape(q) + (D,), total[..., None])
        rows = np.arange(np.size(q)).reshape(np.shape(q) + (1,))
        keys = rows * D + self.stems[:, self.stem_modes.index(m)]
        u = np.bincount(keys.ravel(), weights=self._stem_product(state, q, m).ravel(),
                        minlength=np.size(q) * D).reshape(np.shape(q) + (D,))
        return u * colsums[self.free_mode][state.core_locations[q, self.free_mode, None]]

    def phi_corrections(self, state: ModelState, m: int,
                        colsums: list[np.ndarray]) -> np.ndarray:
        """(D_m, K_m) correction matrix for the factor-entry rate sums."""
        if not self.active:
            return np.zeros((self.shape[m], state.K[m]))
        w = self.mode_weights(state, np.arange(state.Q), m, colsums)
        return _group_columns((state.core_values[:, None] * w).T,
                              state.core_locations[:, m], state.K[m])


def _colsums(state: ModelState) -> list[np.ndarray]:
    return [f.sum(axis=0) for f in state.factors]


def class_mass(state: ModelState, colsums: list[np.ndarray], values=None,
               q=slice(None), skip: int = -1):
    """values * prod over modes m != skip of colsums[m][kappa[q, m]]: the
    rate of core entries q summed over every cell, optionally leaving mode
    ``skip`` out. ``values`` defaults to the core values at q. The product
    runs values first, then the modes in ascending order; saved states and
    logged log-likelihoods depend on that order bit for bit."""
    kappa = state.core_locations[q]
    out = state.core_values[q] if values is None else values
    for m, colsum in enumerate(colsums):
        if m != skip:
            out = out * colsum[kappa[..., m]]
    return out


def observed_rate_total(state: ModelState,
                        corrections: MaskCorrections | None = None) -> float:
    """Sum of the reconstruction over all observed (unmasked) cells, computed
    from column sums rather than cell enumeration."""
    colsums = _colsums(state)
    per_q = class_mass(state, colsums)
    if corrections is not None and corrections.active:
        per_q = np.maximum(
            per_q - state.core_values * corrections.masked_rate_totals(state, colsums),
            0.0)
    return float(per_q.sum())


def proportional_train_loglik(state: ModelState, train: SparseCountTensor,
                              corrections: MaskCorrections | None = None) -> float:
    """Poisson log-likelihood of the training data dropping the count-only
    constant: sum over non-zeros of y*log(yhat) minus the total observed
    rate."""
    rate_total = observed_rate_total(state, corrections)
    if train.nnz == 0:
        return -rate_total
    yhat = cell_rates(state, train.coords).sum(axis=1)
    if (yhat <= 0).any():
        return float("-inf")
    return float(train.counts @ np.log(yhat)) - rate_total


# ---------------------------------------------------------------------------
# Complete-conditional parameter computations, exposed separately from the
# draws so oracle tests can check them directly.
# ---------------------------------------------------------------------------

def lambda_conditional_params(state: ModelState, sources: LatentSources,
                              corrections: MaskCorrections
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Gamma (shape, rate) for every core value: shape a0 + y_q, rate b0 +
    product over modes of the factor column sums at q's location, minus the
    masked-cell correction."""
    colsums = _colsums(state)
    prod = class_mass(state, colsums, values=1.0)
    if corrections.active:
        prod = np.maximum(prod - corrections.masked_rate_totals(state, colsums), 0.0)
    shape = state.hyper.a0 + sources.totals
    rate = state.hyper.b0 + prod
    return shape, rate


def sample_lambda(state: ModelState, sources: LatentSources,
                  corrections: MaskCorrections, rng: np.random.Generator) -> None:
    shape, rate = lambda_conditional_params(state, sources, corrections)
    if not np.isfinite(rate).all() or (rate <= 0).any():
        raise RuntimeError("non-finite rate in core-value update")
    state.core_values = np.maximum(rng.gamma(shape, 1.0 / rate), TINY)


def phi_conditional_params(state: ModelState, sources: LatentSources,
                           corrections: MaskCorrections, m: int
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Gamma (shape, rate) matrices for every entry of factor matrix m,
    using the current values of the other modes' factors."""
    colsums = _colsums(state)
    base = np.zeros(state.K[m])
    np.add.at(base, state.core_locations[:, m], class_mass(state, colsums, skip=m))
    c = np.broadcast_to(base, (state.shape[m], state.K[m]))
    if corrections.active:
        c = np.maximum(c - corrections.phi_corrections(state, m, colsums), 0.0)
    shape = state.hyper.e0 + sources.factor_counts[m]
    rate = state.hyper.f0 + c
    return shape, rate


def sample_phi(state: ModelState, sources: LatentSources,
               corrections: MaskCorrections, rng: np.random.Generator) -> None:
    for m in range(state.M):
        shape, rate = phi_conditional_params(state, sources, corrections, m)
        if not np.isfinite(rate).all() or (rate <= 0).any():
            raise RuntimeError(f"non-finite rate in mode-{m} factor update")
        state.factors[m] = np.maximum(rng.gamma(shape, 1.0 / rate), TINY)


def pi_conditional_alphas(state: ModelState, m: int) -> np.ndarray:
    counts = np.bincount(state.core_locations[:, m], minlength=state.K[m])
    return state.hyper.alpha_vector(m, state.K[m]) + counts


def sample_pi(state: ModelState, rng: np.random.Generator) -> None:
    for m in range(state.M):
        state.mode_priors[m] = rng.dirichlet(pi_conditional_alphas(state, m))


def location_log_weights(state: ModelState, sources: LatentSources,
                         corrections: MaskCorrections, q: int, m: int,
                         log_factors: np.ndarray | None = None,
                         colsums: list[np.ndarray] | None = None) -> np.ndarray:
    """Unnormalized log conditional over the K_m candidates for one
    sub-index: log prior + sum_d y_marg[d] log phi[d, k] - rate sum."""
    if colsums is None:
        colsums = _colsums(state)
    if log_factors is None:
        log_factors = np.log(state.factors[m])
    marg = sources.mode_marginals[m][:, q]
    nz = np.flatnonzero(marg)
    data_term = (marg[nz].astype(np.float64) @ log_factors[nz, :]
                 if nz.size else np.zeros(state.K[m]))
    rate_term = class_mass(state, colsums, q=q, skip=m) * colsums[m]
    if corrections.active:
        w = corrections.mode_weights(state, q, m, colsums)
        rate_term = np.maximum(rate_term - state.core_values[q] * (w @ state.factors[m]),
                               0.0)
    with np.errstate(divide="ignore"):
        log_prior = np.log(state.mode_priors[m])
    return log_prior + data_term - rate_term


def _draw_categorical_from_log(logw: np.ndarray, rng: np.random.Generator) -> int:
    if np.all(np.isneginf(logw)):
        raise RuntimeError("all location candidates carry zero probability")
    w = np.exp(logw - logw.max())
    p = w / w.sum()
    return int(min(np.searchsorted(np.cumsum(p), rng.random(), side="right"),
                   len(p) - 1))


def resample_location_subindex(state: ModelState, sources: LatentSources,
                               corrections: MaskCorrections, q: int, m: int,
                               rng: np.random.Generator,
                               log_factors: np.ndarray | None = None,
                               colsums: list[np.ndarray] | None = None) -> int:
    """Draw one sub-index from its complete conditional and move the
    allocation there, updating the grouped source counts incrementally."""
    logw = location_log_weights(state, sources, corrections, q, m,
                                log_factors, colsums)
    new_k = _draw_categorical_from_log(logw, rng)
    old_k = int(state.core_locations[q, m])
    if new_k != old_k:
        state.core_locations[q, m] = new_k
        if sources.factor_counts:
            col = sources.mode_marginals[m][:, q]
            sources.factor_counts[m][:, old_k] -= col
            sources.factor_counts[m][:, new_k] += col
    return new_k


def sample_locations(state: ModelState, sources: LatentSources,
                     corrections: MaskCorrections,
                     rng: np.random.Generator) -> None:
    """One full sweep over (q, m) sub-indices. Skipped entirely (consuming
    no randomness) when locations are pinned by the core mode."""
    if state.core_mode != "allocore":
        return
    colsums = _colsums(state)
    log_factors = [np.log(f) for f in state.factors]
    for q in range(state.Q):
        for m in range(state.M):
            resample_location_subindex(state, sources, corrections, q, m, rng,
                                       log_factors[m], colsums)


# ---------------------------------------------------------------------------
# Chain driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainConfig:
    """burn_in sweeps are discarded, then ``total`` more run with every
    ``thin``-th state saved (thin must divide total). ``freeze`` names
    parameter blocks to hold fixed for diagnostics; location updates are
    additionally skipped automatically outside allocore mode."""

    burn_in: int = 1000
    total: int = 4000
    thin: int = 20
    seed: int | None = None
    freeze: frozenset = frozenset()
    log_every: int = 1

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.total < 1 or self.thin < 1 or self.total % self.thin != 0:
            raise ValueError("thin must divide total")
        bad = set(self.freeze) - FREEZABLE_BLOCKS
        if bad:
            raise ValueError(f"cannot freeze unknown blocks {sorted(bad)}")
        object.__setattr__(self, "freeze", frozenset(self.freeze))

    @property
    def n_samples(self) -> int:
        return self.total // self.thin


@dataclass
class PosteriorSamples:
    """Ordered saved states plus chain metadata."""

    samples: list[ModelState]
    iterations: list[int] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def S(self) -> int:
        return len(self.samples)


SWEEP_ORDER = ("thin", "locations", "lambda", "phi", "pi")

CHAIN_LOG_NAME = "chain_log.tsv"
INCOMPLETE_MARKER = "INCOMPLETE"


def _chain_log_header(M: int) -> str:
    k_cols = "\t".join(f"k_eff_{m + 1}" for m in range(M))
    return f"iteration\tloglik\tq_eff\t{k_cols}\tseconds"


def run_chain(train: SparseCountTensor, mask: FiberMask | None,
              init: ModelState, config: ChainConfig,
              out_dir: str | None = None, sample_sink=None) -> PosteriorSamples:
    """Run (or resume) a chain from ``init``. States are saved at absolute
    iterations burn_in + thin, burn_in + 2*thin, ...; the chain restarts
    bit-identically from its checkpoint because all randomness is keyed by
    (seed, absolute iteration, block)."""
    if train.shape != init.shape:
        raise ValueError("training tensor shape does not match the initial state")
    state = init.snapshot()
    if config.seed is not None:
        state.seed = int(config.seed)
    seed = state.seed
    corrections = MaskCorrections(mask, train.shape)
    freeze = config.freeze
    last_iter = config.burn_in + config.total
    first_iter = state.next_iteration

    log_file = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        os.makedirs(os.path.join(out_dir, "samples"), exist_ok=True)
        marker = os.path.join(out_dir, INCOMPLETE_MARKER)
        with open(marker, "w") as f:
            f.write("chain in progress\n")
        log_path = os.path.join(out_dir, CHAIN_LOG_NAME)
        # A resumed chain keeps the rows before its checkpoint; rows a
        # killed run logged past it are about to be logged again.
        kept = []
        if os.path.exists(log_path) and first_iter > 1:
            with open(log_path) as f:
                kept = [line for line in f if not line[0].isdigit()
                        or int(line.split("\t", 1)[0]) < first_iter]
        log_file = open(log_path, "w")
        log_file.writelines(kept or [f"# sweep={','.join(SWEEP_ORDER)} seed={seed}\n",
                                     _chain_log_header(state.M) + "\n"])

    saved: list[ModelState] = []
    saved_iters: list[int] = []
    try:
        for it in range(first_iter, last_iter + 1):
            t0 = time.perf_counter()
            sources = thin_counts(state, train, substream(seed, it, THIN_BLOCK))
            if "locations" not in freeze:
                sample_locations(state, sources, corrections,
                                 substream(seed, it, LOCATION_BLOCK))
            if "lambda" not in freeze:
                sample_lambda(state, sources, corrections,
                              substream(seed, it, LAMBDA_BLOCK))
            if "phi" not in freeze:
                sample_phi(state, sources, corrections,
                           substream(seed, it, PHI_BLOCK))
            if "pi" not in freeze:
                sample_pi(state, substream(seed, it, PI_BLOCK))
            state.next_iteration = it + 1
            elapsed = time.perf_counter() - t0

            if log_file is not None and config.log_every and (
                    it % config.log_every == 0 or it == last_iter):
                ll = proportional_train_loglik(state, train, corrections)
                q_eff, k_eff = effective_dims(state)
                row = [str(it), f"{ll:.6f}", str(q_eff)]
                row += [str(k) for k in k_eff]
                row.append(f"{elapsed:.6f}")
                log_file.write("\t".join(row) + "\n")

            if it > config.burn_in and (it - config.burn_in) % config.thin == 0:
                snap = state.snapshot()
                saved.append(snap)
                saved_iters.append(it)
                if sample_sink is not None:
                    sample_sink(it, snap)
                if out_dir is not None:
                    index = (it - config.burn_in) // config.thin
                    save_state(snap, os.path.join(out_dir, "samples",
                                                  f"sample_{index:04d}"))
            if out_dir is not None and (it % config.thin == 0 or it == last_iter):
                save_state(state, os.path.join(out_dir, "checkpoint"))
    finally:
        if log_file is not None:
            log_file.close()
    if out_dir is not None:
        marker = os.path.join(out_dir, INCOMPLETE_MARKER)
        if os.path.exists(marker):
            os.remove(marker)

    meta = {
        "seed": seed,
        "burn_in": config.burn_in,
        "total": config.total,
        "thin": config.thin,
        "sweep": ",".join(SWEEP_ORDER),
        "first_iteration": first_iter,
        "last_iteration": last_iter,
    }
    return PosteriorSamples(samples=saved, iterations=saved_iters, meta=meta)
