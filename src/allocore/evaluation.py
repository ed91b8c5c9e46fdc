"""Posterior predictive evaluation and latent-class summaries.

The pointwise predictive density averages each heldout cell's Poisson mass
over the saved posterior states in probability space (via log-sum-exp), then
takes the geometric mean over cells.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

from .gibbs import MaskCorrections, PosteriorSamples, proportional_train_loglik
from .state import ModelState, load_state, reconstruct_cells
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


def _log_mixture_masses(samples: PosteriorSamples, heldout: HeldoutSet) -> np.ndarray:
    per_sample = np.empty((samples.S, heldout.n_cells))
    for s, state in enumerate(samples.samples):
        yhat = reconstruct_cells(state, heldout.coords)
        per_sample[s] = poisson_logpmf(heldout.counts, yhat)
    return logsumexp(per_sample, axis=0) - math.log(samples.S)


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


def train_loglik(state: ModelState, train: SparseCountTensor,
                 mask: FiberMask | None = None, exact: bool = False) -> float:
    """Poisson log-likelihood of the training data: the proportional
    log-likelihood the chain logs, plus the -log(y!) constant if ``exact``."""
    ll = proportional_train_loglik(state, train, MaskCorrections(mask, train.shape))
    if ll == -math.inf:
        warnings.warn("reconstruction vanished at a positive count; "
                      "log-likelihood is -inf", RuntimeWarning)
        return ll
    if exact:
        ll -= float(gammaln(train.counts + 1.0).sum())
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
                   vocabularies: list[list[str]] | None = None,
                   include_full_columns: bool = True) -> list[ClassSummary]:
    """Write an index file (rank, location, value, cumulative share) plus one
    file per class with (mode, entity, weight) rows; optionally also the full
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
        if include_full_columns:
            with open(os.path.join(out_dir, f"class_{rank:03d}_columns.tsv"), "w") as f:
                f.write("mode\tentity\tvalue\n")
                for m, k in enumerate(cls.location):
                    col = state.factors[m][:, k]
                    for d in range(col.shape[0]):
                        label = (vocabularies[m][d] if vocabularies else str(d + 1))
                        f.write(f"{m + 1}\t{label}\t{col[d]:.8g}\n")
    return classes


def load_samples(run_dir) -> PosteriorSamples:
    """Read the saved posterior states of a fitted run directory."""
    sample_root = os.path.join(run_dir, "samples")
    if not os.path.isdir(sample_root):
        raise ValueError(f"{run_dir}: no samples directory")
    names = sorted(d for d in os.listdir(sample_root)
                   if d.startswith("sample_"))
    if not names:
        raise ValueError(f"{run_dir}: no saved samples")
    samples = [load_state(os.path.join(sample_root, name)) for name in names]
    iterations = [st.next_iteration - 1 for st in samples]
    return PosteriorSamples(samples=samples, iterations=iterations,
                            meta={"run_dir": str(run_dir)})
