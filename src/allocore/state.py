"""Model state for the sparse-core Poisson Tucker family.

The core tensor is never materialized: it is represented by ``Q`` strictly
positive values and their latent locations, a (Q, M) index table. Three core
modes share this representation:

* ``allocore``     - locations are free latent variables,
* ``cp_locked``    - locations pinned to the super-diagonal (CP form),
* ``tucker_dense`` - locations enumerate every core cell (dense Tucker).
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
import shutil
from dataclasses import asdict, dataclass, fields

import numpy as np

from .tensors import read_manifest, write_manifest

__all__ = [
    "Hyperparameters",
    "ModelState",
    "IntegrityError",
    "CORE_MODES",
    "init_canonical",
    "init_explicit",
    "draw_categorical",
    "core_value_at",
    "reconstruct_at",
    "reconstruct_cells",
    "class_tables",
    "rate_product",
    "cell_rates",
    "effective_dims",
    "save_state",
    "load_state",
    "recover_state",
    "substream",
]

CORE_MODES = ("allocore", "cp_locked", "tucker_dense")

# Positive floor applied to gamma draws so factor/core values never collapse
# to exact zero in float64.
TINY = 1e-300

# Sub-stream identifiers; a generator is derived per (seed, iteration, block).
INIT_BLOCK, THIN_BLOCK, LOCATION_BLOCK, LAMBDA_BLOCK, PHI_BLOCK, PI_BLOCK = range(6)

STATE_FORMAT_VERSION = 1

# Most cells a tucker_dense core may enumerate.
CORE_CELL_LIMIT = 10 ** 6

# Bytes of one block of rates: big enough that NumPy's per-call cost
# vanishes, small enough that the block stays in cache.
_BLOCK_BYTES = 1 << 20


class IntegrityError(RuntimeError):
    """A state directory failed its checksum or internal consistency check."""


def substream(seed: int, iteration: int, block: int) -> np.random.Generator:
    """Counter-style generator keyed by (seed, iteration, block).

    Iteration 0 is reserved for initialization; chain sweeps use their
    absolute 1-based iteration number, which makes resumed chains
    bit-identical to uninterrupted ones.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(iteration), int(block)))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class Hyperparameters:
    """Gamma shape/rate pairs for core values (a0, b0) and factor entries
    (e0, f0), plus the Dirichlet concentration alpha0 that every component
    of every mode's location prior shares."""

    a0: float = 1.0
    b0: float = 1.0
    e0: float = 1.0
    f0: float = 10.0
    alpha0: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be strictly positive")

    def alpha_vector(self, k: int) -> np.ndarray:
        return np.full(k, self.alpha0, dtype=np.float64)


@dataclass
class ModelState:
    """All latent parameters of one chain.

    ``factors[m]`` is the (D_m, K_m) matrix of strictly positive factor
    entries; ``core_values``/``core_locations`` are the Q allocated core
    entries; ``mode_priors[m]`` is the length-K_m simplex of the rank-1
    location prior. ``seed``/``next_iteration`` fully determine the chain's
    remaining randomness.
    """

    shape: tuple[int, ...]
    hyper: Hyperparameters
    factors: list[np.ndarray]
    core_values: np.ndarray
    core_locations: np.ndarray
    mode_priors: list[np.ndarray]
    core_mode: str = "allocore"
    seed: int = 0
    next_iteration: int = 1

    @property
    def M(self) -> int:
        return len(self.shape)

    @property
    def Q(self) -> int:
        return int(self.core_values.shape[0])

    @property
    def K(self) -> tuple[int, ...]:
        return tuple(int(f.shape[1]) for f in self.factors)

    def validate(self) -> None:
        if self.core_mode not in CORE_MODES:
            raise ValueError(f"unknown core mode {self.core_mode!r}")
        if len(self.factors) != self.M or len(self.mode_priors) != self.M:
            raise ValueError("per-mode parameter lists do not match mode count")
        for m, (d, f) in enumerate(zip(self.shape, self.factors)):
            if f.shape != (d, f.shape[1]) or f.shape[0] != d:
                raise ValueError(f"factor matrix {m} has shape {f.shape}, want ({d}, K)")
            if not np.all(f > 0) or not np.all(np.isfinite(f)):
                raise ValueError(f"factor matrix {m} must be strictly positive and finite")
        if self.core_values.ndim != 1 or self.core_locations.shape != (self.Q, self.M):
            raise ValueError("core value/location shapes disagree")
        if self.Q < 1:
            raise ValueError("core budget must be at least 1")
        if not np.all(self.core_values > 0) or not np.all(np.isfinite(self.core_values)):
            raise ValueError("core values must be strictly positive and finite")
        for m, k_m in enumerate(self.K):
            col = self.core_locations[:, m]
            if col.min() < 0 or col.max() >= k_m:
                raise ValueError(f"core location out of range in mode {m}")
            pri = self.mode_priors[m]
            if pri.shape != (k_m,) or pri.min() < 0 or abs(pri.sum() - 1.0) > 1e-12:
                raise ValueError(f"mode-{m} prior is not a simplex over {k_m} entries")
        if self.core_mode == "cp_locked":
            if len(set(self.K)) != 1:
                raise ValueError("cp_locked requires a hypercube core")
            diag = np.arange(self.Q)[:, None] * np.ones(self.M, dtype=np.int64)
            if not np.array_equal(self.core_locations, diag):
                raise ValueError("cp_locked locations must sit on the super-diagonal")
        if self.core_mode == "tucker_dense" and self.Q != math.prod(self.K):
            raise ValueError("tucker_dense must enumerate every core cell")

    def snapshot(self) -> "ModelState":
        return copy.deepcopy(self)


def draw_categorical(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per uniform ``u[i]`` from the simplex on the last axis
    of ``probs``: how many cumulative sums are <= ``u[i]``, capped at K - 1."""
    cum = np.cumsum(probs, axis=-1)
    return np.minimum((cum <= u[..., None]).sum(axis=-1), probs.shape[-1] - 1)


def init_canonical(shape, Q: int, hyper: Hyperparameters | None = None,
                   seed: int = 0, core_mode: str = "allocore") -> ModelState:
    """``init_explicit`` with ``K=None``: the canonical K_m = Q."""
    return init_explicit(shape, None, Q, core_mode, hyper, seed)


def init_explicit(shape, K, Q: int, core_mode: str,
                  hyper: Hyperparameters | None = None,
                  seed: int = 0) -> ModelState:
    """The one builder of a chain's initial state. Core values, factors and
    location priors are drawn from their priors; where the Q entries sit
    depends on K and the core mode:

    * ``K=None`` means the canonical K_1 = ... = K_M = Q, with the entries
      on the super-diagonal;
    * given K, allocore draws the locations from the location prior and
      cp_locked pins the first Q diagonal cells, which needs a hypercube
      core with Q <= K;
    * tucker_dense enumerates every core cell, so Q = prod(K) whatever Q
      is given, up to ``CORE_CELL_LIMIT`` cells."""
    if core_mode not in CORE_MODES:
        raise ValueError(f"unknown core mode {core_mode!r}")
    hyper = hyper or Hyperparameters()
    shape = tuple(int(d) for d in shape)
    M = len(shape)
    if Q < 1 and (K is None or core_mode != "tucker_dense"):
        raise ValueError("budget Q must be at least 1")
    diagonal = K is None or core_mode == "cp_locked"
    K = tuple(int(k) for k in K) if K is not None else (Q,) * M
    if len(K) != M:
        raise ValueError("K must give one latent dimension per mode")
    if any(k < 1 for k in K):
        raise ValueError("latent dimensions must be at least 1")
    if core_mode == "tucker_dense":
        Q = math.prod(K)
        if Q > CORE_CELL_LIMIT:
            raise ValueError(f"dense core of {Q} cells exceeds the limit "
                             f"of {CORE_CELL_LIMIT}")
    if core_mode == "cp_locked":
        if len(set(K)) != 1:
            raise ValueError("cp_locked requires equal latent dimensions in every mode")
        if Q > K[0]:
            raise ValueError("cp_locked requires Q <= K to fit the super-diagonal")

    rng = substream(seed, 0, INIT_BLOCK)
    core_values = np.maximum(rng.gamma(hyper.a0, 1.0 / hyper.b0, size=Q), TINY)
    factors = [np.maximum(rng.gamma(hyper.e0, 1.0 / hyper.f0, size=(d, k)), TINY)
               for d, k in zip(shape, K)]
    mode_priors = [rng.dirichlet(hyper.alpha_vector(k)) for k in K]
    if core_mode == "tucker_dense":
        locations = np.stack(np.unravel_index(np.arange(Q), K), axis=1).astype(np.int64)
    elif diagonal:
        locations = np.arange(Q, dtype=np.int64)[:, None] * np.ones(M, dtype=np.int64)
    else:
        locations = np.stack([draw_categorical(p, rng.random(Q)) for p in mode_priors], 1)

    state = ModelState(shape=shape, hyper=hyper, factors=factors,
                       core_values=core_values, core_locations=locations,
                       mode_priors=mode_priors, core_mode=core_mode, seed=int(seed))
    state.validate()
    return state


def core_value_at(state: ModelState, kappa) -> float:
    """Value of the (implicit) core tensor at one location: the sum of the
    allocated values that sit there."""
    kappa = np.asarray(kappa, dtype=np.int64)
    if kappa.shape != (state.M,):
        raise ValueError("core index must have one coordinate per mode")
    if (kappa < 0).any() or (kappa >= np.asarray(state.K)).any():
        raise ValueError(f"core index {tuple(kappa)} out of range for K={state.K}")
    hit = np.all(state.core_locations == kappa, axis=1)
    return float(state.core_values[hit].sum())


def class_tables(state: ModelState) -> list[np.ndarray]:
    """Per mode m the C-contiguous (D_m, Q) class table
    ``factors[m][:, core_locations[:, m]]``: column q is the factor column
    at q's location. The core values are folded into table 0, whose
    entries are ``values[q] * factors[0][d, core_locations[q, 0]]``."""
    tables = [np.ascontiguousarray(f[:, state.core_locations[:, m]])
              for m, f in enumerate(state.factors)]
    tables[0] *= state.core_values
    return tables


def rate_product(tables: list[np.ndarray], index) -> np.ndarray:
    """``tables[0][index[0]] * tables[1][index[1]] * ...``, one row gather
    per mode, multiplied in exactly that order into a fresh C-ordered,
    writable array of shape broadcast(rows) + (Q,). The core values come
    in with table 0 (see ``class_tables``).

    ``index[m]`` selects rows of mode m's class table; the indices may
    broadcast against each other (a fiber block indexes each stem mode by a
    column of stems and the free mode by every row). The product grows to
    the broadcast shape only when a factor needs it, and is multiplied in
    place once it has that shape."""
    rates = tables[0][index[0]]
    if isinstance(index[0], slice):
        rates = rates.copy()  # a view of table 0
    for table, idx in zip(tables[1:], index[1:]):
        rows = table[idx]
        if np.broadcast_shapes(rates.shape, rows.shape) == rates.shape:
            rates *= rows
        else:
            rates = np.multiply(rates, rows, order="C")
        del rows  # else the next gather runs beside this one
    return rates


def row_blocks(n: int, width: int, block_bytes: int | None = None):
    """(lo, hi) ranges that cut n rows of ``width`` float64 values each into
    blocks of about ``block_bytes`` (``_BLOCK_BYTES`` by default). No block
    is a single row unless n is 1: the ppd's blocks of cells go through a
    logsumexp, which sums one column's samples pairwise but several
    columns' row by row, and that changes the bits from S = 9 on."""
    step = max((block_bytes or _BLOCK_BYTES) // (8 * width), 2)
    edges = list(range(0, n, step)) + [n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return zip(edges[:-1], edges[1:])


def cell_rates(state: ModelState, coords: np.ndarray) -> np.ndarray:
    """Per-class Poisson rates at the given cells: out[q, i] is the rate the
    q-th core entry contributes to cell i, ``values[q] * T_0[c_0, q] *
    T_1[c_1, q] * ...`` from the class tables of ``class_tables``, values
    first and then the modes in ascending order. O(n * Q * M).

    The result is a fresh, writable, C-ordered (Q, n) table, so a caller
    reads or writes each class's rates as one contiguous row. It is filled
    in blocks of cells of half ``_BLOCK_BYTES``: each block is a cell-major
    ``rate_product`` that stays in cache for its transposed write, so a
    call holds only the one table plus a block's gathers."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, state.M)
    tables = class_tables(state)
    out = np.empty((state.Q, coords.shape[0]))
    for lo, hi in row_blocks(coords.shape[0], state.Q, _BLOCK_BYTES // 2):
        out[:, lo:hi] = rate_product(tables, coords[lo:hi].T).T
    return out


def reconstruct_cells(state: ModelState, coords: np.ndarray) -> np.ndarray:
    """The model's total rate (its reconstruction) at each given cell: the
    ``sum(axis=1)`` of each block of ``cell_rates``'s fill, which NumPy
    adds pairwise along the row, without the (Q, n) table."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, state.M)
    tables = class_tables(state)
    totals = np.empty(coords.shape[0])
    for lo, hi in row_blocks(coords.shape[0], state.Q, _BLOCK_BYTES // 2):
        totals[lo:hi] = rate_product(tables, coords[lo:hi].T).sum(axis=1)
    return totals


def reconstruct_at(state: ModelState, d) -> float:
    """Model reconstruction at one cell without materializing the core."""
    d = np.asarray(d, dtype=np.int64)
    if d.shape != (state.M,):
        raise ValueError("cell index must have one coordinate per mode")
    if (d < 0).any() or (d >= np.asarray(state.shape)).any():
        raise ValueError(f"cell index {tuple(d)} out of range for shape {state.shape}")
    return float(reconstruct_cells(state, d[None, :])[0])


def effective_dims(state: ModelState) -> tuple[int, tuple[int, ...]]:
    """Distinct occupied core locations and, per mode, distinct occupied
    sub-indices."""
    q_eff = int(np.unique(state.core_locations, axis=0).shape[0])
    k_eff = tuple(int(np.unique(state.core_locations[:, m]).shape[0])
                  for m in range(state.M))
    return q_eff, k_eff


# ---------------------------------------------------------------------------
# State directory format: manifest.txt (key=value, through the shared
# ``tensors.write_manifest`` and ``tensors.read_manifest``) plus data files
# that ``np.savetxt`` writes (%.17g values, %d 1-based locations) and
# ``_read_table`` reads: a factor matrix per mode, core.txt and priors.txt.
# Data files are covered by a SHA-256 checksum recorded in the manifest. A
# save writes a temp directory beside each target and swaps it in; a save to
# several targets renders the text once and copies the files.
# ---------------------------------------------------------------------------

def _data_files(m: int) -> list[str]:
    return [f"factors_{i + 1}.txt" for i in range(m)] + ["core.txt", "priors.txt"]


def _checksum(dirpath, names) -> str:
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(dirpath, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _beside(dirpath) -> tuple[str, str]:
    """The temp and old directories a save of ``dirpath`` uses, hidden
    beside it so that no ``sample_*`` listing sees them."""
    head, name = os.path.split(os.path.normpath(os.fspath(dirpath)))
    return os.path.join(head, f".{name}.tmp"), os.path.join(head, f".{name}.old")


def recover_state(dirpath) -> bool:
    """Clear what a ``save_state`` stopped partway left beside ``dirpath``.
    A temp directory is removed. An old directory is the previous state,
    whole: it is moved back if ``dirpath`` is missing (the stop fell between
    the two renames) and removed otherwise. Returns whether a state
    directory is at ``dirpath``."""
    tmp, old = _beside(dirpath)
    if os.path.isdir(old) and not os.path.isdir(dirpath):
        os.rename(old, dirpath)
    for leftover in (tmp, old):
        if os.path.isdir(leftover):
            shutil.rmtree(leftover)
    return os.path.isdir(dirpath)


def save_state(state: ModelState, *dirpaths) -> None:
    """Write ``state`` to each directory of ``dirpaths``, replacing the
    state there. The state is rendered once, into a temp directory beside
    the first target, which is then swapped in: the old directory renamed
    aside, the new one renamed in and the old one removed. Each further
    target in turn gets a file copy of the first target's directory in a
    temp directory of its own and the same swap. A write stopped at any
    point leaves every target's state whole, old or new, where
    ``recover_state`` finds it. A caller names a resume point (the
    checkpoint) last: a stop before its swap leaves it at the previous
    state, and the resumed chain writes the earlier targets again."""
    for i, dirpath in enumerate(dirpaths):
        recover_state(dirpath)
        tmp, old = _beside(dirpath)
        if i == 0:
            _write_state(state, tmp)
        else:
            shutil.copytree(dirpaths[0], tmp)
        replacing = os.path.isdir(dirpath)
        if replacing:
            os.rename(dirpath, old)
        os.rename(tmp, dirpath)
        if replacing:
            shutil.rmtree(old)


def _write_state(state: ModelState, dirpath) -> None:
    os.makedirs(dirpath)
    for m, f in enumerate(state.factors):
        np.savetxt(os.path.join(dirpath, f"factors_{m + 1}.txt"), f, fmt="%.17g")
    np.savetxt(os.path.join(dirpath, "core.txt"),
               np.column_stack([state.core_values, state.core_locations + 1]),
               fmt=["%.17g"] + ["%d"] * state.M)
    with open(os.path.join(dirpath, "priors.txt"), "w") as f:
        for p in state.mode_priors:
            np.savetxt(f, p[None], fmt="%.17g")

    write_manifest(os.path.join(dirpath, "manifest.txt"), {
        "version": STATE_FORMAT_VERSION,
        "mode": state.core_mode,
        "M": state.M,
        "shape": " ".join(str(d) for d in state.shape),
        "K": " ".join(str(k) for k in state.K),
        "Q": state.Q,
        **{k: repr(v) for k, v in asdict(state.hyper).items()},
        "seed": state.seed,
        "next_iteration": state.next_iteration,
        "checksum": _checksum(dirpath, _data_files(state.M)),
    })


def _read_table(dirpath, name, shape, lines=None) -> np.ndarray:
    """The float table of the data file ``name`` in the state directory
    ``dirpath``, or of ``lines`` from it, checked to have ``shape``."""
    try:
        table = np.loadtxt(os.path.join(dirpath, name) if lines is None else lines,
                           ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{dirpath}: cannot parse {name}: {exc}") from None
    if table.shape != shape:
        raise ValueError(f"{dirpath}: {name} has shape {table.shape}, manifest says {shape}")
    return table


def load_state(dirpath) -> ModelState:
    recover_state(dirpath)
    man = read_manifest(dirpath)

    def value(key, parse=int):
        """The manifest's ``key`` parsed; a missing or unparsable value is
        refused with the directory and the key named."""
        if key not in man:
            raise ValueError(f"{dirpath}: manifest missing key '{key}'")
        try:
            return parse(man[key])
        except ValueError:
            raise ValueError(f"{dirpath}: manifest key '{key}' has the bad value "
                             f"{man[key]!r}") from None

    def ints(text):
        return tuple(int(d) for d in text.split())

    version, M, Q = value("version"), value("M"), value("Q")
    shape, K = value("shape", ints), value("K", ints)
    mode, declared = value("mode", str), value("checksum", str)
    seed, next_iteration = value("seed"), value("next_iteration")
    hyper = {f.name: value(f.name, float) for f in fields(Hyperparameters)
             if f.name != "alpha0"}
    alpha = value("alpha0", lambda text: {float(a) for a in text.split()})
    if version != STATE_FORMAT_VERSION:
        raise ValueError(
            f"{dirpath}: state format version {version} is not supported "
            f"(expected {STATE_FORMAT_VERSION})")
    if len(shape) != M or len(K) != M:
        raise ValueError(f"{dirpath}: manifest shape/K do not match M={M}")

    actual = _checksum(dirpath, _data_files(M))
    if actual != declared:
        raise IntegrityError(f"{dirpath}: checksum mismatch, state files corrupt")

    # Older manifests repeat alpha0 once per mode and carry
    # divide_alpha_by_k=0; states of any other model are refused.
    if len(alpha) != 1:
        raise ValueError(f"{dirpath}: alpha0={man['alpha0']} is not one shared value")
    if man.get("divide_alpha_by_k", "0") != "0":
        raise ValueError(f"{dirpath}: divide_alpha_by_k="
                         f"{man['divide_alpha_by_k']} is not supported")
    hyper = Hyperparameters(**hyper, alpha0=alpha.pop())

    factors = [_read_table(dirpath, f"factors_{m + 1}.txt", (shape[m], K[m]))
               for m in range(M)]
    core = _read_table(dirpath, "core.txt", (Q, M + 1))
    with np.errstate(invalid="ignore"):  # a NaN or huge entry is refused below
        locations = core[:, 1:].astype(np.int64)
    if (locations != core[:, 1:]).any():
        raise ValueError(f"{dirpath}: core.txt holds a location that is not an integer")
    with open(os.path.join(dirpath, "priors.txt")) as f:
        rows = [line for line in f if line.strip()]
    if len(rows) != M:
        raise ValueError(f"{dirpath}: priors.txt has {len(rows)} rows, want {M}")
    priors = [_read_table(dirpath, f"priors.txt row {m + 1}", (1, K[m]), [row])[0]
              for m, row in enumerate(rows)]

    state = ModelState(shape=shape, hyper=hyper, factors=factors,
                       core_values=core[:, 0].copy(), core_locations=locations - 1,
                       mode_priors=priors, core_mode=mode, seed=seed,
                       next_iteration=next_iteration)
    state.validate()
    return state
