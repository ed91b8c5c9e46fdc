"""Posterior predictive evaluation and latent-class summaries.

The pointwise predictive density averages each heldout cell's Poisson mass
over the saved posterior states in probability space (via log-sum-exp), then
takes the geometric mean over cells.

The log masses are streamed over the blocks of ``state.row_blocks``, about
1 MiB of one sample's rates each, so no (n_cells, Q) or (S, n_cells) table
is ever held. A heldout set written by ``split`` carries its fiber layout:
all cells of a fiber share their stem, so a block of stems is scored from
each sample's class tables as a (stems, D_free, Q) product, the stem rows
times the whole free-mode table. A set without a layout (such as
``HeldoutSet.positive()``) is scored cell by cell through
``reconstruct_cells``. Both give the same bits as scoring every cell on its
own with one log-sum-exp over all cells.

``train_loglik`` scores one sample at a time over every training non-zero.
``reconstruct_cells`` takes each cell's total from the blocks of the one
rate table that ``cell_rates`` fills, so its peak is that table.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

from .gibbs import PosteriorSamples, proportional_train_loglik
from .state import (ModelState, class_tables, load_state, rate_product,
                    reconstruct_cells, row_blocks)
from .tensors import FiberMask, HeldoutSet, SparseCountTensor

__all__ = [
    "PosteriorSamples",
    "ClassSummary",
    "ppd",
    "ppd_positive",
    "ppd_constant_baseline",
    "train_loglik",
    "top_classes",
    "classes_for_mass_share",
    "export_classes",
    "load_samples",
    "poisson_logpmf",
]


def poisson_logpmf(counts: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """log Pois(y; rate), with the y=0, rate=0 limit equal to 0."""
    counts = np.asarray(counts, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    return xlogy(counts, rates) - rates - gammaln(counts + 1.0)


def _fiber_yhats(samples: PosteriorSamples, layout: FiberMask):
    """For a block of stems, the (S, cells) rates at the block's cells in
    stem-major order: per sample the class-table rows of the stems times the
    whole free-mode table, a (stems, D_free, Q) product summed over q."""
    tables = [class_tables(state) for state in samples.samples]

    def block_yhats(lo: int, hi: int):
        index = [slice(None)] * (layout.stems.shape[1] + 1)
        for j, m in enumerate(layout.stem_modes):
            index[m] = layout.stems[lo:hi, j][:, None]
        return np.array([
            rate_product(state.core_values, state_tables, index).sum(axis=-1).ravel()
            for state, state_tables in zip(samples.samples, tables)])
    return block_yhats


def _log_mixture_masses(samples: PosteriorSamples, heldout: HeldoutSet) -> np.ndarray:
    """log of each heldout cell's Poisson mass averaged over the samples,
    streamed over blocks of cells, or of whole fibers when the set has a
    layout."""
    layout = heldout.layout
    if layout is None:
        unit_cells, n_units = 1, heldout.n_cells

        def block_yhats(lo: int, hi: int):
            return np.array([reconstruct_cells(state, heldout.coords[lo:hi])
                             for state in samples.samples])
    else:
        unit_cells, n_units = heldout.n_cells // layout.n_stems, layout.n_stems
        block_yhats = _fiber_yhats(samples, layout)
    Q = max(state.Q for state in samples.samples)
    out = np.empty(heldout.n_cells)
    for lo, hi in row_blocks(n_units, unit_cells * Q):
        cells = slice(lo * unit_cells, hi * unit_cells)
        masses = poisson_logpmf(heldout.counts[cells], block_yhats(lo, hi))
        out[cells] = logsumexp(masses, axis=0) - math.log(samples.S)
    return out


def ppd(samples: PosteriorSamples, heldout: HeldoutSet) -> float:
    """Geometric mean over heldout cells of the posterior-averaged Poisson
    mass."""
    if samples.S < 1:
        raise ValueError("need at least one posterior sample")
    if heldout.n_cells == 0:
        raise ValueError("heldout set is empty")
    return float(np.exp(_log_mixture_masses(samples, heldout).mean()))


def ppd_positive(samples: PosteriorSamples, heldout: HeldoutSet) -> float:
    pos = heldout.positive()
    if pos.n_cells == 0:
        raise ValueError("heldout set has no positive counts")
    return ppd(samples, pos)


def ppd_constant_baseline(train: SparseCountTensor, heldout: HeldoutSet) -> float:
    """PPD of the rate-matched null model: one shared rate equal to the mean
    training count over all observed cells."""
    if heldout.n_cells == 0:
        raise ValueError("heldout set is empty")
    observed_cells = math.prod(train.shape) - heldout.n_cells
    if observed_cells <= 0:
        raise ValueError("mask leaves no observed cells")
    rate = train.total() / observed_cells
    masses = poisson_logpmf(heldout.counts, np.full(heldout.n_cells, rate))
    return float(np.exp(masses.mean()))


def train_loglik(state: ModelState, train: SparseCountTensor) -> float:
    """Poisson log-likelihood of every cell of ``train``, the log row of an
    unmasked chain: sum over non-zeros of y*log(yhat) minus the total rate,
    without the count-only -log(y!) constant. Warns when it is -inf."""
    ll = proportional_train_loglik(state, train)
    if ll == -math.inf:
        warnings.warn("reconstruction vanished at a positive count; "
                      "log-likelihood is -inf", RuntimeWarning)
    return ll


@dataclass(frozen=True)
class ClassSummary:
    """One occupied core location: its total allocated value and, per mode,
    the entities of the indexed factor column with normalized weight at or
    above the display threshold, sorted descending."""

    location: tuple[int, ...]
    value: float
    entities: tuple[tuple[tuple[int, float], ...], ...]


def top_classes(state: ModelState, n: int,
                display_threshold: float = 0.02) -> list[ClassSummary]:
    """Distinct occupied core locations ranked by total allocated value."""
    if n < 1:
        raise ValueError("n must be at least 1")
    locations, inverse = np.unique(state.core_locations, axis=0, return_inverse=True)
    values = np.bincount(inverse, weights=state.core_values,
                         minlength=locations.shape[0])
    order = np.argsort(-values, kind="stable")
    out = []
    for rank in order[:n]:
        loc = tuple(int(k) for k in locations[rank])
        per_mode = []
        for m, k in enumerate(loc):
            col = state.factors[m][:, k]
            weights = col / col.sum()
            idx = np.argsort(-weights, kind="stable")
            kept = [(int(d), float(weights[d])) for d in idx
                    if weights[d] >= display_threshold]
            per_mode.append(tuple(kept))
        out.append(ClassSummary(location=loc, value=float(values[rank]),
                                entities=tuple(per_mode)))
    return out


def classes_for_mass_share(state: ModelState, share: float) -> int:
    """Smallest number of top classes whose values cover the given share of
    the total allocated mass."""
    if not 0 < share <= 1:
        raise ValueError("share must lie in (0, 1]")
    _, inverse = np.unique(state.core_locations, axis=0, return_inverse=True)
    values = np.sort(np.bincount(inverse, weights=state.core_values))[::-1]
    cum = np.cumsum(values)
    return int(np.searchsorted(cum, share * cum[-1] - 1e-12) + 1)


def export_classes(state: ModelState, out_dir, n: int,
                   display_threshold: float = 0.02,
                   vocabularies: list[list[str]] | None = None) -> list[ClassSummary]:
    """Write an index file (rank, location, value, cumulative share) plus, per
    class, one file of (mode, entity, weight) rows and one of its full
    unnormalized factor columns for downstream use. Locations and entity
    indices are 1-based in the files."""
    classes = top_classes(state, n, display_threshold)
    os.makedirs(out_dir, exist_ok=True)
    total = float(state.core_values.sum())
    cum = 0.0
    with open(os.path.join(out_dir, "index.tsv"), "w") as f:
        f.write("rank\tlocation\tvalue\tcumulative_share\n")
        for rank, cls in enumerate(classes, 1):
            cum += cls.value
            loc = ",".join(str(k + 1) for k in cls.location)
            f.write(f"{rank}\t{loc}\t{cls.value:.6g}\t{cum / total:.6f}\n")
    for rank, cls in enumerate(classes, 1):
        with open(os.path.join(out_dir, f"class_{rank:03d}.tsv"), "w") as f:
            f.write("mode\tentity\tweight\n")
            for m, kept in enumerate(cls.entities):
                for d, w in kept:
                    label = (vocabularies[m][d] if vocabularies else str(d + 1))
                    f.write(f"{m + 1}\t{label}\t{w:.6f}\n")
        with open(os.path.join(out_dir, f"class_{rank:03d}_columns.tsv"), "w") as f:
            f.write("mode\tentity\tvalue\n")
            for m, k in enumerate(cls.location):
                col = state.factors[m][:, k]
                for d in range(col.shape[0]):
                    label = (vocabularies[m][d] if vocabularies else str(d + 1))
                    f.write(f"{m + 1}\t{label}\t{col[d]:.8g}\n")
    return classes


def load_samples(run_dir) -> PosteriorSamples:
    """Read the saved posterior states of a fitted run directory, in chain
    order."""
    sample_root = os.path.join(run_dir, "samples")
    if not os.path.isdir(sample_root):
        raise ValueError(f"{run_dir}: no samples directory")
    names = [d for d in os.listdir(sample_root) if d.startswith("sample_")]
    if not names:
        raise ValueError(f"{run_dir}: no saved samples")
    # By iteration, not by name: sample_10000 sorts before sample_1001.
    samples = [load_state(os.path.join(sample_root, name)) for name in names]
    return PosteriorSamples(sorted(samples, key=lambda st: st.next_iteration))
