"""Gibbs sampling for the sparse-core Poisson Tucker model.

One sweep runs, in fixed order: multinomial thinning of the observed counts
into per-class latent sources, categorical resampling of the core locations
(one mode at a time, all classes at once), then conjugate gamma/gamma/
Dirichlet updates for the core values, factor entries, and location priors.
Held-out fibers are treated as missing at random: every rate sum over
observed cells is computed as the full product-of-column-sums minus a
per-fiber correction, never by enumerating cells.

Per-block randomness comes from counter-style substreams keyed by
(seed, iteration, block), so chains are reproducible and resumable.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

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
    draw_categorical,
    effective_dims,
    reconstruct_cells,
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
    "location_log_weights",
    "sample_lambda",
    "lambda_conditional_params",
    "sample_phi",
    "phi_conditional_params",
    "sample_pi",
    "pi_conditional_alphas",
    "run_chain",
    "read_chain_log",
    "proportional_train_loglik",
    "observed_rate_total",
    "class_mass",
]

@dataclass
class LatentSources:
    """Per-class latent counts for every training non-zero, plus the
    aggregates the conditionals consume. A sweep's sources live only until
    its blocks have run.

    ``per_cell[i, q]`` splits the i-th training count across classes;
    ``totals[q]`` sums it over cells; ``mode_marginals[m][d, q]`` sums it
    over cells whose mode-m coordinate is d. They do not depend on the core
    locations, so moving a location leaves them valid. ``per_cell`` is the
    transposed view of thinning's q-major (Q, nnz) table: the table
    ``cell_rates`` returns, with the int64 draws written over the
    probabilities. So it is not C-contiguous.
    """

    per_cell: np.ndarray
    totals: np.ndarray
    mode_marginals: list[np.ndarray]


def _scatter_add(keys: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """out[keys[i]] += rows[i] over ``size`` bins, adding the rows in index
    order; saved chains depend on that order for float rows bit for bit."""
    out = np.zeros((size,) + rows.shape[1:], dtype=rows.dtype)
    np.add.at(out, keys, rows)
    return out


def thin_counts(state: ModelState, train: SparseCountTensor,
                rng: np.random.Generator) -> LatentSources:
    """Split every observed count into per-class sources by its multinomial
    complete conditional, with probabilities proportional to the per-class
    rates. Zero cells carry no sources. O(nnz * Q * M). The work runs
    q-major on the (Q, nnz) table that ``cell_rates`` returns: its rows
    become the conditional probabilities, and each class's draws are
    written over its own spent row, so one nnz x Q table is alive at a
    time. The totals and mode marginals are summed from each class row's
    non-zero draws alone; every such sum is an integer below 2**53, so
    they equal the int64 sums over the whole table exactly."""
    if train.shape != state.shape:
        raise ValueError("training tensor shape does not match state")
    Q = state.Q
    p = cell_rates(state, train.coords)
    # p[q] becomes rate_q / (rate_q + ... + rate_{Q-1}), in [0, 1]: a
    # rounded sum of non-negative terms is never below one of them, and
    # where a suffix underflowed to 0 its own rate is 0 and stays so. The
    # suffix adds from the last row down, as a cumsum of the reversed row.
    suffix = p[Q - 1]
    for q in range(Q - 2, -1, -1):
        suffix = suffix + p[q]
        np.divide(p[q], suffix, out=p[q], where=suffix > 0)
    if not np.isfinite(suffix).all() or (suffix <= 0).any():
        raise RuntimeError(
            "thinning rates vanished or blew up; state positivity is broken")
    # binomial reads row q before its draws replace it
    draws = p.view(np.int64)
    remaining = train.counts.copy()
    for q in range(Q - 1):
        draws[q] = rng.binomial(remaining, p[q])
        remaining -= draws[q]
    draws[Q - 1] = remaining
    # The non-zero draws are a few percent of a row on real data. A float
    # sum of them is exact: it is an integer no larger than the tensor's
    # total count, below 2**53, whatever the order of the adds (the gamma
    # shapes read these counts as floats in any case).
    keys = np.ascontiguousarray(train.coords.T)
    totals = np.empty(Q)
    marginals = [np.empty((d, Q)) for d in state.shape]
    for q, row in enumerate(draws):
        nz = np.flatnonzero(row != 0)
        weights = row[nz].astype(np.float64)
        totals[q] = weights.sum()
        for m, d in enumerate(state.shape):
            marginals[m][:, q] = np.bincount(keys[m][nz], weights=weights,
                                             minlength=d)
    return LatentSources(per_cell=draws.T, totals=totals.astype(np.int64),
                         mode_marginals=[g.astype(np.int64) for g in marginals])


class MaskCorrections:
    """Rate-sum corrections for held-out fibers.

    A masked fiber factorizes, so its contribution to any product-of-sums
    is a product over the stem modes times a full column sum over the free
    mode. Everything here is recomputed from the current state on demand.
    With no mask (``active`` false) all corrections are zero: the samplers
    skip them and call no method here.

    Every method covers all q at once. Stem modes multiply in mode order;
    sums over stems run along the last axis of a C-ordered (Q, S) array, so
    each q's row adds in stem order.

    Each stem mode keeps one contiguous column of stem indices. A mode's
    (Q, S) column gathers the small (Q, D_m) rows of q's factor values first,
    then takes the stems from them with ``np.take(..., axis=1)``, whose
    result is C-ordered; fancy indexing ``rows[:, stems]`` gives a (Q, S)
    array with transposed strides, whose row sums differ in the last bits.
    A product starts from its first column and multiplies the others into
    it in place, so a call holds only the columns it multiplies.
    """

    def __init__(self, mask: FiberMask | None):
        self.active = mask is not None and mask.n_stems > 0
        if self.active:
            self.free_mode = mask.free_mode
            self.stem_modes = mask.stem_modes
            self.stem_columns = list(np.ascontiguousarray(mask.stems.T))

    def _stem_product(self, state: ModelState, skip: int = -1) -> np.ndarray:
        """(Q, S): product over the stem modes other than ``skip`` of each
        stem's factor values at each q's sub-indices; all ones when ``skip``
        is the only stem mode."""
        out = None
        for m, stems in zip(self.stem_modes, self.stem_columns):
            if m != skip:
                column = np.take(state.factors[m].T[state.core_locations[:, m]], stems, axis=1)
                out = column if out is None else np.multiply(out, column, out=out)
        return np.ones((state.Q, len(self.stem_columns[0]))) if out is None else out

    def masked_rate_totals(self, state: ModelState,
                           colsums: list[np.ndarray]) -> np.ndarray:
        """For each q: sum over masked cells of the factor product at q's
        location (the correction to the lambda rate and the total rate)."""
        s_free = colsums[self.free_mode][state.core_locations[:, self.free_mode]]
        return self._stem_product(state).sum(axis=1) * s_free

    def mode_weights(self, state: ModelState, m: int,
                     colsums: list[np.ndarray]) -> np.ndarray:
        """(Q, D_m): w[q, d] = sum over masked cells with mode-m coordinate d
        of the product of q's factor values over the other modes."""
        D = state.shape[m]
        if m == self.free_mode:
            total = self._stem_product(state).sum(axis=1)
            return np.full((state.Q, D), total[:, None])
        stems = self.stem_columns[self.stem_modes.index(m)]
        u = np.array([np.bincount(stems, weights=row, minlength=D)
                      for row in self._stem_product(state, m)])
        return u * colsums[self.free_mode][state.core_locations[:, self.free_mode, None]]

    def phi_corrections(self, state: ModelState, m: int,
                        colsums: list[np.ndarray]) -> np.ndarray:
        """(D_m, K_m) correction matrix for the factor-entry rate sums."""
        w = self.mode_weights(state, m, colsums)
        return _scatter_add(state.core_locations[:, m],
                            state.core_values[:, None] * w, state.K[m]).T


def _colsums(state: ModelState) -> list[np.ndarray]:
    return [f.sum(axis=0) for f in state.factors]


def class_mass(state: ModelState, colsums: list[np.ndarray], values=None,
               skip: int = -1) -> np.ndarray:
    """(Q,): values * prod over modes m != skip of colsums[m][kappa[:, m]],
    the rate of each core entry summed over every cell, optionally leaving
    mode ``skip`` out. ``values``, a scalar or one per q, defaults to the
    core values. The product runs values first, then the modes in ascending
    order; saved states and logged log-likelihoods depend on that order bit
    for bit."""
    kappa = state.core_locations
    out = state.core_values if values is None else values
    for m, colsum in enumerate(colsums):
        if m != skip:
            out = out * colsum[kappa[:, m]]
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
    yhat = reconstruct_cells(state, train.coords)
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
    using the current values of the other modes' factors. The shape counts
    group the mode-m marginals by each class's current mode-m sub-index."""
    colsums = _colsums(state)
    keys = state.core_locations[:, m]
    base = _scatter_add(keys, class_mass(state, colsums, skip=m), state.K[m])
    c = np.broadcast_to(base, (state.shape[m], state.K[m]))
    if corrections.active:
        c = np.maximum(c - corrections.phi_corrections(state, m, colsums), 0.0)
    counts = _scatter_add(keys, sources.mode_marginals[m].T, state.K[m]).T
    shape = state.hyper.e0 + counts
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
    return state.hyper.alpha_vector(state.K[m]) + counts


def sample_pi(state: ModelState, rng: np.random.Generator) -> None:
    for m in range(state.M):
        state.mode_priors[m] = rng.dirichlet(pi_conditional_alphas(state, m))


def location_log_weights(state: ModelState, sources: LatentSources,
                         corrections: MaskCorrections, m: int,
                         colsums: list[np.ndarray] | None = None) -> np.ndarray:
    """(Q, K_m) unnormalized log conditionals of every q's mode-m sub-index:
    log prior + sum_d y_marg[d, q] log phi[d, k] - rate sum. The data term
    and the mask term's factor product are one vector-matrix product per q,
    so each row adds in the same order whatever Q is."""
    if colsums is None:
        colsums = _colsums(state)
    factors = state.factors[m]
    log_factors = np.log(factors)
    data_term = np.zeros((state.Q, factors.shape[1]))
    for q, marg in enumerate(sources.mode_marginals[m].T):
        nz = np.flatnonzero(marg)
        if nz.size:
            data_term[q] = marg[nz].astype(np.float64) @ log_factors[nz]
    rate_term = class_mass(state, colsums, skip=m)[:, None] * colsums[m]
    if corrections.active:
        w = corrections.mode_weights(state, m, colsums)
        masked = np.array([row @ factors for row in w])
        rate_term = np.maximum(rate_term - state.core_values[:, None] * masked, 0.0)
    with np.errstate(divide="ignore"):
        log_prior = np.log(state.mode_priors[m])
    return log_prior + data_term - rate_term


def sample_locations(state: ModelState, sources: LatentSources,
                     corrections: MaskCorrections,
                     rng: np.random.Generator) -> None:
    """Resample every core location from its complete conditional, one mode
    at a time for all q at once. Skipped entirely (consuming no randomness)
    when locations are pinned by the core mode.

    Given the sources, factors and priors, the conditional of kappa[q, m]
    reads only q's own row: its value, its other sub-indices and its mode-m
    marginal. So different q are independent, and at step m each q sees its
    new sub-indices below m and its old ones above, as in a q-by-q sweep.
    The uniforms are drawn up front in q-major order, u[q, m] being the
    (q * M + m)-th, which is the order a q-by-q sweep draws them in."""
    if state.core_mode != "allocore":
        return
    colsums = _colsums(state)
    u = rng.random(state.Q * state.M).reshape(state.Q, state.M)
    for m in range(state.M):
        logw = location_log_weights(state, sources, corrections, m, colsums)
        top = logw.max(axis=1, keepdims=True)
        if (top == -np.inf).any():
            raise RuntimeError("all location candidates carry zero probability")
        w = np.exp(logw - top)
        state.core_locations[:, m] = draw_categorical(w / w.sum(axis=1, keepdims=True),
                                                      u[:, m])


# ---------------------------------------------------------------------------
# Chain driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainConfig:
    """burn_in sweeps are discarded, then ``total`` more run with every
    ``thin``-th state saved (thin must divide total). Every sweep runs all
    blocks; the location block does nothing outside allocore mode."""

    burn_in: int = 1000
    total: int = 4000
    thin: int = 20
    seed: int | None = None

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.total < 1 or self.thin < 1 or self.total % self.thin != 0:
            raise ValueError("thin must divide total")


@dataclass
class PosteriorSamples:
    """Saved states in chain order."""

    samples: list[ModelState]

    @property
    def S(self) -> int:
        return len(self.samples)

    @property
    def iterations(self) -> list[int]:
        """The sweep after which each state was saved."""
        return [st.next_iteration - 1 for st in self.samples]


SWEEP_ORDER = ("thin", "locations", "lambda", "phi", "pi")

CHAIN_LOG_NAME = "chain_log.tsv"


def read_chain_log(path) -> tuple[list[str], list[str]]:
    """The leading ``#`` and header lines and the whole data rows of the
    chain log at ``path``; a row cut partway by a stop has no newline."""
    with open(path) as f:
        lines = [line for line in f if line.endswith("\n")]
    rows = [line for line in lines if line[0].isdigit()]
    return [line for line in lines if not line[0].isdigit()], rows


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
    corrections = MaskCorrections(mask)
    last_iter = config.burn_in + config.total
    first_iter = state.next_iteration

    log_file = None
    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "samples"), exist_ok=True)
        marker = os.path.join(out_dir, "INCOMPLETE")
        with open(marker, "w") as f:
            f.write("chain in progress\n")
        log_path = os.path.join(out_dir, CHAIN_LOG_NAME)
        # a resumed chain keeps the rows before its checkpoint and logs the rest again
        kept = []
        if os.path.exists(log_path) and first_iter > 1:
            head, rows = read_chain_log(log_path)
            kept = head + [row for row in rows if int(row.split("\t", 1)[0]) < first_iter]
        k_cols = "".join(f"k_eff_{m + 1}\t" for m in range(state.M))
        log_file = open(log_path, "w")
        log_file.writelines(kept or [f"# sweep={','.join(SWEEP_ORDER)} seed={seed}\n",
                                     f"iteration\tloglik\tq_eff\t{k_cols}seconds\n"])

    saved: list[ModelState] = []
    try:
        for it in range(first_iter, last_iter + 1):
            t0 = time.perf_counter()
            sources = thin_counts(state, train, substream(seed, it, THIN_BLOCK))
            sample_locations(state, sources, corrections,
                             substream(seed, it, LOCATION_BLOCK))
            sample_lambda(state, sources, corrections,
                          substream(seed, it, LAMBDA_BLOCK))
            sample_phi(state, sources, corrections, substream(seed, it, PHI_BLOCK))
            sample_pi(state, substream(seed, it, PI_BLOCK))
            # per_cell is a view of this thinning's nnz x Q table; without
            # this it would stay alive beside the next thinning's.
            del sources
            state.next_iteration = it + 1
            elapsed = time.perf_counter() - t0

            if log_file is not None:
                ll = proportional_train_loglik(state, train, corrections)
                q_eff, k_eff = effective_dims(state)
                row = [str(it), f"{ll:.6f}", str(q_eff), *map(str, k_eff), f"{elapsed:.6f}"]
                log_file.write("\t".join(row) + "\n")

            due = []
            if it > config.burn_in and (it - config.burn_in) % config.thin == 0:
                snap = state.snapshot()
                saved.append(snap)
                if sample_sink is not None:
                    sample_sink(it, snap)
                if out_dir is not None:
                    index = (it - config.burn_in) // config.thin
                    due.append(os.path.join(out_dir, "samples", f"sample_{index:04d}"))
            if out_dir is not None and (it % config.thin == 0 or it == last_iter):
                # the checkpoint goes last: a save stopped before its swap
                # resumes from the previous one and writes the sample again
                due.append(os.path.join(out_dir, "checkpoint"))
            if due:
                # resume and trace read these rows: a hard kill flushes nothing
                log_file.flush()
                save_state(state, *due)
    finally:
        if log_file is not None:
            log_file.close()
    if out_dir is not None:
        if os.path.exists(marker):
            os.remove(marker)
    return PosteriorSamples(samples=saved)
