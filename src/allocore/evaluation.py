"""Posterior predictive evaluation and latent-class summaries.

The pointwise predictive density averages each heldout cell's Poisson mass
over the saved posterior states in probability space (via log-sum-exp), then
takes the geometric mean over cells.

The log masses are streamed over the blocks of ``state.row_blocks``, about
1 MiB of one sample's rates each, so no (n_cells, Q) or (S, n_cells) table
is ever held. A heldout set written by ``split`` is its fiber layout and
one count per cell, with no coordinate table: all cells of a fiber share
their stem, so a block of stems is scored from each sample's class tables
as a (stems, D_free, Q) product, the stem rows times the whole free-mode
table. A set without a layout (such as ``HeldoutSet.positive()``) is scored
cell by cell through ``reconstruct_cells``. Both give the same bits as
scoring every cell on its own with one log-sum-exp over all cells. The
log masses are written in place, into one array per block.

The fiber path runs on two threads: the calling thread and one helper,
opened and joined inside the call. Both draw blocks from one shared
iterator and write each block's masses to its own slice of the output, so
two blocks are in flight at a time and the bits do not depend on which
thread scored a block. The product, its sum over q and the log masses are
NumPy loops that release the GIL, so the second block runs on a second
core; with one block the helper finds no block left. The helper scores under
the caller's NumPy error state. The cell path stays on the calling thread:
it takes a small share of an eval, and profilers that wrap
``reconstruct_cells`` assume that one thread calls it.

``train_loglik`` scores one sample at a time over every training non-zero.
``reconstruct_cells`` sums each block of cells' rates as it is made, so no
(n_cells, Q) table is held there either.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

from .gibbs import PosteriorSamples, proportional_train_loglik
from .state import (ModelState, class_tables, load_state, rate_product,
                    reconstruct_cells, recover_state, row_blocks)
from .tensors import FiberMask, HeldoutSet, SparseCountTensor

__all__ = [
    "PosteriorSamples",
    "ClassSummary",
    "ppd",
    "ppd_positive",
    "ppd_constant_baseline",
    "train_loglik",
    "top_classes",
    "export_classes",
    "load_samples",
    "sample_dirs",
    "poisson_logpmf",
]


def poisson_logpmf(counts: np.ndarray, rates) -> np.ndarray:
    """log Pois(y; rate), with the y=0, rate=0 limit equal to 0: the terms
    xlogy(y, rate) - rate - gammaln(y + 1) in that order, written into one
    output array, with one count-sized scratch array for the last."""
    out = xlogy(counts, rates)
    out -= rates
    scratch = np.add(counts, 1.0, out=np.empty(np.shape(counts)))
    out -= gammaln(scratch, out=scratch)
    return out


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
            rate_product(state_tables, index).sum(axis=-1).ravel()
            for state_tables in tables])
    return block_yhats


def _log_mixture_masses(samples: PosteriorSamples, heldout: HeldoutSet) -> np.ndarray:
    """log of each heldout cell's Poisson mass averaged over the samples,
    streamed over blocks of cells, or of whole fibers when the set has a
    layout. Fiber blocks are shared by the calling thread and one helper
    thread (see the module docstring); each block is scored whole by one
    thread, so the result does not depend on which."""
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
    # a list's iterator, unlike a generator, may be drawn from by two threads
    blocks = iter(list(row_blocks(n_units, unit_cells * Q)))

    def score():
        try:
            for lo, hi in blocks:
                cells = slice(lo * unit_cells, hi * unit_cells)
                masses = poisson_logpmf(heldout.counts[cells], block_yhats(lo, hi))
                out[cells] = logsumexp(masses, axis=0) - math.log(samples.S)
        finally:
            # after an error, leave the other thread no further blocks
            for _ in blocks:
                pass

    if layout is None:
        score()
        return out
    # NumPy keeps the error state per thread (1.x) or per context (2.x), so
    # the helper sets the caller's own
    errstate = dict(np.geterr(), call=np.geterrcall())

    def helper_score():
        with np.errstate(**errstate):
            score()

    with ThreadPoolExecutor(1) as helper:
        helped = helper.submit(helper_score)
        score()
        helped.result()
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
    masses = poisson_logpmf(heldout.counts, rate)
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


def sample_dirs(run_dir) -> list[str]:
    """A fitted run's ``sample_<digits>`` directories by index, which is chain
    order, and any ``.sample_<digits>.old`` that a rewrite stopped between
    ``save_state``'s two renames left, after ``recover_state`` moves it back."""
    sample_root = os.path.join(run_dir, "samples")
    if not os.path.isdir(sample_root):
        raise ValueError(f"{run_dir}: no samples directory")
    indices = {}
    for entry in os.listdir(sample_root):
        name = entry[1:-len(".old")] if entry[:1] == "." and entry.endswith(".old") else entry
        if name.startswith("sample_") and name[len("sample_"):].isdecimal():
            indices[name] = int(name[len("sample_"):])
    if not indices:
        raise ValueError(f"{run_dir}: no saved samples")
    # by index, not by name: sample_10000 sorts before sample_1001
    paths = [os.path.join(sample_root, name) for name in sorted(indices, key=indices.get)]
    return [path for path in paths if recover_state(path)]


def load_samples(run_dir) -> PosteriorSamples:
    """The saved posterior states of a fitted run, in chain order."""
    return PosteriorSamples([load_state(path) for path in sample_dirs(run_dir)])
