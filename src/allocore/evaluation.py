"""Posterior predictive evaluation and latent-class summaries.

The pointwise predictive density averages each heldout cell's Poisson mass
over the saved posterior states in probability space (via log-sum-exp), then
takes the geometric mean over cells.

The log masses are streamed over the blocks of ``state.row_blocks``, about
1 MiB of one sample's rates each, so no (n_cells, Q) or (S, n_cells) table
is ever held. Each sample's class tables are built once per call, and a
block's rates are one ``rate_product`` of them per sample, summed over q. A
heldout set written by ``split`` is its fiber layout and one count per cell,
with no coordinate table: all cells of a fiber share their stem, so a block
of stems is a (stems, D_free, Q) product, the stem rows times the whole
free-mode table. A set without a layout (such as ``HeldoutSet.positive()``)
indexes the tables by its cells' coordinates. Both give the same bits as
scoring every cell on its own with one log-sum-exp over all cells. The log
masses are written in place, into one array per block.

A set of more than one block is scored on two threads, the calling thread
and one helper, by ``state.each_block``; ``state.beside`` describes the
helper. Each block's masses are written to its own slice of the output, so
the bits do not depend on which thread scored a block.

``train_loglik`` scores one sample at a time over every training non-zero,
through ``state.reconstruct_cells``, whose blocks the two threads share in
the same way.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

from .gibbs import PosteriorSamples, proportional_train_loglik
from .state import (ModelState, class_tables, each_block, load_state,
                    rate_product, recover_state, row_blocks)
from .state import reconstruct_cells  # noqa: F401  perfbench's EVAL_TARGETS wraps it here
from .tensors import HeldoutSet, SparseCountTensor

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


def _log_mixture_masses(samples: PosteriorSamples, heldout: HeldoutSet) -> np.ndarray:
    """log of each heldout cell's Poisson mass averaged over the samples,
    streamed over blocks of whole fibers, or of cells when the set has no
    layout, from each sample's class tables. The calling thread and one
    helper share the blocks (see the module docstring); each block is scored
    whole by one thread, so the result does not depend on which."""
    layout = heldout.layout
    unit_cells = 1 if layout is None else heldout.n_cells // layout.n_stems
    tables = [class_tables(state) for state in samples.samples]
    Q = max(state.Q for state in samples.samples)
    out = np.empty(heldout.n_cells)

    def score(lo, hi):
        if layout is None:  # each mode's table rows at the cells
            index = heldout.coords[lo:hi].T
        else:  # the stems' rows, and every row of the free mode
            index = [slice(None)] * (layout.stems.shape[1] + 1)
            for j, m in enumerate(layout.stem_modes):
                index[m] = layout.stems[lo:hi, j][:, None]
        yhats = np.array([rate_product(state_tables, index).sum(axis=-1).ravel()
                          for state_tables in tables])
        cells = slice(lo * unit_cells, hi * unit_cells)
        masses = poisson_logpmf(heldout.counts[cells], yhats)
        out[cells] = logsumexp(masses, axis=0) - math.log(samples.S)

    each_block(row_blocks(heldout.n_cells // unit_cells, unit_cells * Q), score)
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
