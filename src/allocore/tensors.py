"""Sparse count tensors, event-log ingestion, and fiber-holdout masks.

Coordinates and mode indices are 0-based everywhere in memory. The text
formats (COO tensors, mask files) use 1-based coordinates; the conversion
happens only at the I/O boundary.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparseCountTensor",
    "FiberMask",
    "HeldoutSet",
    "EventSchema",
    "TimeBinning",
    "load_events",
    "sum_entries",
    "make_fiber_mask",
    "split",
    "load_coo",
    "write_coo",
    "load_mask",
    "write_mask",
    "load_vocab",
    "write_vocab",
    "read_manifest",
    "write_manifest",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SparseCountTensor:
    """M-mode count tensor in coordinate form; zero cells are implicit.

    ``coords`` holds one row per stored cell (lexicographically sorted,
    unique); ``counts`` are the matching strictly positive values.
    """

    shape: tuple[int, ...]
    coords: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        shape = tuple(int(d) for d in self.shape)
        if len(shape) == 0 or any(d <= 0 for d in shape):
            raise ValueError(f"invalid tensor shape {shape}")
        coords = np.asarray(self.coords, dtype=np.int64)
        if coords.size == 0:
            coords = coords.reshape(0, len(shape))
        if coords.ndim != 2 or coords.shape[1] != len(shape):
            raise ValueError(f"coordinates of shape {coords.shape} do not give "
                             f"{len(shape)} indices per cell")
        counts = np.asarray(self.counts, dtype=np.int64).reshape(-1)
        if coords.shape[0] != counts.shape[0]:
            raise ValueError("coords and counts disagree in length")
        if counts.size and counts.min() <= 0:
            raise ValueError("stored counts must be strictly positive")
        if coords.size and (coords.min() < 0 or (coords >= np.asarray(shape)).any()):
            raise ValueError("coordinate out of range for shape")
        order, starts = _row_order(coords, shape)
        if len(starts) < len(order):
            raise ValueError("duplicate coordinates; aggregate entries first")
        coords, counts = coords[order], counts[order]
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "coords", _frozen(coords))
        object.__setattr__(self, "counts", _frozen(counts))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.counts.shape[0])

    def total(self) -> int:
        return int(self.counts.sum())

    def density(self) -> float:
        return self.nnz / math.prod(self.shape)

    @classmethod
    def from_entries(cls, shape, entries) -> "SparseCountTensor":
        """Build from (multi-index, count) pairs, summing duplicates and
        dropping zero totals."""
        pairs = list(entries.items() if isinstance(entries, dict) else entries)
        return sum_entries(shape, [idx for idx, _ in pairs],
                           np.array([int(c) for _, c in pairs], dtype=object))


_COUNT_MAX = np.iinfo(np.int64).max


def _row_order(rows: np.ndarray, dims) -> tuple[np.ndarray, np.ndarray]:
    """The stable order that sorts the int64 ``rows`` lexicographically, as
    ``np.lexsort(rows.T[::-1])`` does, and the sorted index of the first row
    of each run of equal rows. A row's key is its row-major index within
    ``dims``; rows with no int64 index there (more than 2**63 - 1 cells, a
    row outside ``dims``, no columns) are keyed by their rank instead. A
    stable sort of sorted keys takes one pass."""
    try:  # with no columns the index is one scalar, which fits only one row
        keys = np.ravel_multi_index(tuple(rows.T), dims).reshape(len(rows))
    except (TypeError, ValueError):
        keys = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
    order = np.argsort(keys, kind="stable")
    return order, np.flatnonzero(np.diff(keys[order], prepend=-1))


def sum_entries(shape, coords, counts, path=None, lines=None) -> SparseCountTensor:
    """The tensor of the entries (coords[i], counts[i]), 0-based, with a
    repeated cell's counts summed and zero totals dropped. ``counts`` holds
    int64 values or Python ints of any size. The first entry, in input
    order, that is negative or takes its cell's total past ``_COUNT_MAX``
    raises ValueError naming its line of ``path`` (given ``lines``) or its
    cell. The cells come out in ``_row_order``'s order, so the tensor
    constructor's own sort of them takes one pass. Every tensor builder
    sums through it: ``SparseCountTensor.from_entries``, ``load_coo`` (and
    its line-by-line reread), ``load_events`` and ``synthetic.generate``."""
    coords = np.asarray(coords, dtype=np.int64).reshape(len(counts), len(shape))
    order, starts = _row_order(coords, shape)  # starts: each cell's first entry
    counts = np.asarray(counts)[order]
    if counts.size and (counts.min() < 0 or counts.max() > _COUNT_MAX // counts.size):
        # each entry's running total within its cell, added exactly
        cum = np.cumsum(counts.astype(object))
        running = cum - np.repeat((cum - counts)[starts], np.diff(starts, append=len(counts)))
        bad = np.flatnonzero((counts < 0) | (running > _COUNT_MAX))
        if bad.size:
            j = bad[np.argmin(order[bad])]  # the first in input order
            at = (f"{path}:{lines[order[j]]}" if lines is not None
                  else f"cell {tuple(coords[order[j]].tolist())}")
            raise ValueError(f"{at}: negative count {counts[j]}" if counts[j] < 0
                             else f"{at}: count total of the cell exceeds {_COUNT_MAX}")
    totals = np.add.reduceat(counts.astype(np.int64, copy=False), starts)
    first = order[starts]
    if not totals.all():  # a cell whose counts are all 0 is not stored
        first, totals = first[totals > 0], totals[totals > 0]
    return SparseCountTensor(shape, coords[first], totals)


@dataclass(frozen=True)
class FiberMask:
    """Set of held-out fibers: coordinates for every mode except ``free_mode``.

    A cell is masked iff its non-free coordinates match one of the stems.
    Stems are stored lexicographically sorted and must be unique.
    """

    free_mode: int
    stems: np.ndarray  # (n_stems, M-1)

    def __post_init__(self):
        if self.free_mode < 0:
            raise ValueError("free_mode must be non-negative")
        stems = np.asarray(self.stems, dtype=np.int64)
        if stems.ndim != 2:
            raise ValueError("stems must be a 2-d array")
        if stems.size and stems.min() < 0:
            raise ValueError("stem coordinates must be non-negative")
        order, starts = _row_order(stems, stems.max(axis=0, initial=0) + 1)
        if len(starts) < len(order):
            raise ValueError("stems must be unique")
        stems = stems[order]
        object.__setattr__(self, "free_mode", int(self.free_mode))
        object.__setattr__(self, "stems", _frozen(stems))

    @property
    def n_stems(self) -> int:
        return int(self.stems.shape[0])

    @property
    def stem_modes(self) -> list[int]:
        """The modes a stem indexes, in order: every mode but the free one."""
        return [m for m in range(self.stems.shape[1] + 1) if m != self.free_mode]


class HeldoutSet:
    """Every cell of every masked fiber with its true count (zeros included).

    A fiber set, as ``split`` writes it, is its ``layout`` (the mask) and one
    count per cell, stem-major: cell i lies on stem i // D_free at free-mode
    index i % D_free, D_free = n_cells // n_stems, so a scorer can treat each
    fiber as a whole. It stores no coordinates; ``coords`` builds them on
    each read. A cell set takes explicit ``coords`` and no layout.
    """

    def __init__(self, coords, counts, layout: FiberMask | None = None):
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        if counts.size and counts.min() < 0:
            raise ValueError("heldout counts must be non-negative")
        if (coords is None) == (layout is None):
            raise ValueError("a heldout set takes either coords or a layout")
        if layout is None:
            coords = _frozen(np.asarray(coords, dtype=np.int64))
            if coords.shape[0] != counts.shape[0]:
                raise ValueError("coords and counts disagree in length")
        elif counts.size % layout.n_stems if layout.n_stems else counts.size:
            raise ValueError(f"layout of {layout.n_stems} stems does not tile "
                             f"{counts.size} heldout cells")
        self._coords, self.counts, self.layout = coords, _frozen(counts), layout

    @property
    def n_cells(self) -> int:
        return int(self.counts.shape[0])

    @property
    def coords(self) -> np.ndarray:
        """The (n_cells, M) cell coordinates."""
        return self._coords if self.layout is None else self._at(np.arange(self.n_cells))

    def _at(self, cells: np.ndarray) -> np.ndarray:
        """The coordinates of the cells at the indices ``cells``."""
        if self.layout is None:
            return self._coords[cells]
        stem, free = np.divmod(cells, self.n_cells // max(self.layout.n_stems, 1))
        return np.insert(self.layout.stems[stem], self.layout.free_mode, free, axis=1)

    def total(self) -> int:
        return int(self.counts.sum())

    def positive(self) -> "HeldoutSet":
        """The cells with a positive count, as a cell set."""
        keep = np.flatnonzero(self.counts)
        return HeldoutSet(self._at(keep), self.counts[keep])


def make_fiber_mask(tensor: SparseCountTensor, free_mode: int, fraction: float,
                    seed: int) -> FiberMask:
    """Sample floor(fraction * n_candidate_stems) stems uniformly without
    replacement; deterministic given the seed."""
    M = tensor.ndim
    if not 0 <= free_mode < M:
        raise ValueError(f"free_mode {free_mode} out of range for {M}-mode tensor")
    if M < 2:
        raise ValueError("fiber masking needs at least two modes")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie strictly in (0, 1), got {fraction}")
    reduced = tuple(d for m, d in enumerate(tensor.shape) if m != free_mode)
    total = math.prod(reduced)
    if total > np.iinfo(np.int64).max:
        raise ValueError(f"{total} candidate stems: more than int64 can index")
    n = int(math.floor(fraction * total))
    if n < 1:
        raise ValueError(
            f"fraction {fraction} of {total} candidate stems selects none")
    rng = np.random.default_rng(seed)
    keys = rng.choice(total, size=n, replace=False)
    stems = np.stack(np.unravel_index(keys, reduced), axis=1)
    return FiberMask(free_mode=free_mode, stems=stems)


def _check_mask(tensor: SparseCountTensor, mask: FiberMask) -> None:
    M = tensor.ndim
    if not 0 <= mask.free_mode < M:
        raise ValueError("mask free_mode out of range for tensor")
    if mask.stems.shape[1] != M - 1:
        raise ValueError("mask stem width does not match tensor mode count")
    reduced = np.asarray([tensor.shape[m] for m in mask.stem_modes])
    if mask.n_stems and (mask.stems >= reduced).any():
        raise ValueError("mask stem coordinate out of range for tensor")


def split(tensor: SparseCountTensor, mask: FiberMask) -> tuple[SparseCountTensor, HeldoutSet]:
    """Partition a tensor into unmasked training entries and the heldout
    fiber set of the masked fibers: the mask as its layout and one count
    per cell, zeros included, stem-major."""
    _check_mask(tensor, mask)
    reduced = tuple(tensor.shape[m] for m in mask.stem_modes)
    stem_keys = np.ravel_multi_index(tuple(mask.stems.T), reduced)  # sorted
    d_free = tensor.shape[mask.free_mode]
    cell_keys = np.ravel_multi_index(tuple(tensor.coords[:, mask.stem_modes].T),
                                     reduced)
    masked = np.isin(cell_keys, stem_keys)
    train = SparseCountTensor(tensor.shape, tensor.coords[~masked],
                              tensor.counts[~masked])

    held_counts = np.zeros(mask.n_stems * d_free, dtype=np.int64)
    stem_pos = np.searchsorted(stem_keys, cell_keys[masked])
    pos = stem_pos * d_free + tensor.coords[masked, mask.free_mode]
    held_counts[pos] = tensor.counts[masked]
    return train, HeldoutSet(None, held_counts, layout=mask)


# ---------------------------------------------------------------------------
# Text formats. COO: header "M D_1 ... D_M", then "d_1 ... d_M count" per
# non-zero, 1-based. Mask: header "free_mode=m", then one stem per line.
# ``np.savetxt`` writes the rows of both (%d, space-separated).
# Manifest: one key=value per line, written by ``write_manifest`` (state
# directories, run directories, synth's config.txt) and read by
# ``read_manifest``. These three skip blank lines and '#' comments through
# ``_content_lines``. Vocabulary: one label per line.
# ---------------------------------------------------------------------------

def write_coo(tensor: SparseCountTensor, path) -> None:
    np.savetxt(path, np.column_stack((tensor.coords + 1, tensor.counts)), fmt="%d",
               header=" ".join(map(str, (tensor.ndim, *tensor.shape))), comments="")


def _content_lines(f):
    """(1-based line number, stripped text) of each line that is neither
    blank nor a '#' comment."""
    for ln, raw in enumerate(f, 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield ln, line


def _coo_header(path, lines) -> tuple[int, ...]:
    """The shape from the first line of ``lines``."""
    for ln, line in lines:
        tok = line.split()
        try:
            M = int(tok[0])
            dims = [int(t) for t in tok[1:]]
        except ValueError:
            raise ValueError(f"{path}:{ln}: malformed header") from None
        if M < 1 or len(dims) != M or any(d <= 0 for d in dims):
            raise ValueError(f"{path}:{ln}: malformed header")
        return tuple(dims)
    raise ValueError(f"{path}: missing header line")


def _load_coo_lines(path) -> SparseCountTensor:
    """``load_coo`` one line at a time, naming the first bad line."""
    lines, coords, counts = [], [], []
    with open(path) as f:
        rows = _content_lines(f)
        shape = _coo_header(path, rows)
        M = len(shape)
        for ln, line in rows:
            tok = line.split()
            if len(tok) != M + 1:
                raise ValueError(f"{path}:{ln}: expected {M + 1} fields, got {len(tok)}")
            try:
                vals = [int(t) for t in tok]
            except ValueError:
                raise ValueError(f"{path}:{ln}: non-integer field") from None
            if any(not 1 <= c <= shape[m] for m, c in enumerate(vals[:M])):
                raise ValueError(f"{path}:{ln}: coordinate out of range")
            if vals[M] <= 0:
                raise ValueError(f"{path}:{ln}: count must be positive")
            lines.append(ln)
            coords.append([c - 1 for c in vals[:M]])
            counts.append(vals[M])
    return sum_entries(shape, coords, np.array(counts, dtype=object), path, lines)


def load_coo(path) -> SparseCountTensor:
    """Read a COO file, summing duplicate coordinates. The body is parsed
    and checked in bulk; a body that fails to parse (a '#' comment after
    the header among them), to check or to sum within int64 is read again
    line by line, which names the first bad line."""
    with open(path) as f:
        shape = _coo_header(path, _content_lines(f))
        M = len(shape)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty body only warns
                body = np.loadtxt(f, dtype=np.int64, comments=None, ndmin=2)
            coords, counts = body[:, :M], body[:, -1]
            coords -= 1  # in place: a copy would live through the sum
            if (body.shape[1] == M + 1 and coords.min() >= 0 and (coords < shape).all()
                    and counts.min() > 0):
                return sum_entries(shape, coords, counts)
        except (ValueError, Warning):  # a total past int64 among them
            pass
    return _load_coo_lines(path)


def write_mask(mask: FiberMask, path) -> None:
    np.savetxt(path, mask.stems + 1, fmt="%d", header=f"free_mode={mask.free_mode + 1}",
               comments="")


def load_mask(path) -> FiberMask:
    with open(path) as f:
        lines = _content_lines(f)
        ln, header = next(lines, (0, None))
        if header is None:
            raise ValueError(f"{path}: missing 'free_mode=' header")
        if not header.startswith("free_mode="):
            raise ValueError(f"{path}:{ln}: expected 'free_mode=' header")
        try:
            free_mode = int(header.split("=", 1)[1]) - 1
        except ValueError:
            free_mode = -1
        if free_mode < 0:
            raise ValueError(f"{path}:{ln}: free_mode must be a 1-based mode")
        stems = []
        int64_max = np.iinfo(np.int64).max
        for ln, line in lines:
            try:
                row = [int(t) - 1 for t in line.split()]
            except ValueError:
                raise ValueError(f"{path}:{ln}: non-integer stem coordinate") from None
            if any(abs(c) > int64_max for c in row):
                raise ValueError(f"{path}:{ln}: stem coordinate past int64")
            if stems and len(row) != len(stems[0]):
                raise ValueError(f"{path}:{ln}: inconsistent stem width")
            stems.append(row)
    if not stems:
        raise ValueError(f"{path}: no stems after the 'free_mode=' header")
    return FiberMask(free_mode=free_mode, stems=np.array(stems, dtype=np.int64))


def write_manifest(path, items) -> None:
    """Write the dict ``items`` as key=value lines, in order; a newline in
    an item is written as backslash-n, so each item stays one line."""
    with open(path, "w") as f:
        f.writelines(f"{k}={v}".replace("\n", "\\n") + "\n" for k, v in items.items())


def read_manifest(dirpath) -> dict[str, str]:
    """The key=value items of ``dirpath``'s manifest.txt, values as text."""
    path = os.path.join(dirpath, "manifest.txt")
    out = {}
    with open(path) as f:
        for _, line in _content_lines(f):
            key, eq, val = line.partition("=")
            if not eq:
                raise ValueError(f"{path}: malformed manifest line {line!r}")
            out[key] = val
    return out


def write_vocab(labels, path) -> None:
    with open(path, "w") as f:
        for lab in labels:
            f.write(f"{lab}\n")


def load_vocab(path) -> list[str]:
    with open(path) as f:
        return [line.rstrip("\n") for line in f if line.rstrip("\n")]


# ---------------------------------------------------------------------------
# Event-log ingestion: delimiter-separated text with a header row; one column
# per mode plus an optional count column. Rows aggregate by summation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeBinning:
    """Calendar binning for the temporal mode; dates are 'YYYY',
    'YYYY-MM', or 'YYYY-MM-DD'. ``start``/``end`` fix the bin range
    (inclusive); left unset they are inferred from the data. Both are
    parsed here, so a bad one is named as the field, not as data."""

    unit: str  # "month" or "year"
    start: str | None = None
    end: str | None = None

    def __post_init__(self):
        if self.unit not in ("month", "year"):
            raise ValueError(f"unknown time binning unit {self.unit!r}")
        start = self.start and _parse_ym(self.start, "time binning start")
        end = self.end and _parse_ym(self.end, "time binning end")
        if start and end and _ym_index(end, start, self.unit) < 0:
            raise ValueError("time binning end precedes start")


@dataclass(frozen=True)
class EventSchema:
    mode_columns: tuple[str, ...]
    count_column: str | None = None
    delimiter: str = "\t"
    vocabularies: dict[int, tuple[str, ...]] | None = None
    time_mode: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "mode_columns", tuple(self.mode_columns))
        if len(self.mode_columns) < 1:
            raise ValueError("schema needs at least one mode column")
        if self.time_mode is not None and not 0 <= self.time_mode < len(self.mode_columns):
            raise ValueError("time_mode out of range")


def _parse_ym(text: str, where) -> tuple[int, int]:
    parts = text.strip().split("-")
    try:
        if len(parts) == 1:
            return int(parts[0]), 1
        if len(parts) in (2, 3):
            y, mo = int(parts[0]), int(parts[1])
            if not 1 <= mo <= 12:
                raise ValueError
            return y, mo
    except ValueError:
        pass
    raise ValueError(f"{where}: cannot parse date {text!r}")


def _ym_index(ym: tuple[int, int], anchor: tuple[int, int], unit: str) -> int:
    if unit == "month":
        return (ym[0] - anchor[0]) * 12 + (ym[1] - anchor[1])
    return ym[0] - anchor[0]


def _bin_label(anchor: tuple[int, int], idx: int, unit: str) -> str:
    if unit == "year":
        return str(anchor[0] + idx)
    y, mo = anchor
    mo += idx
    y, mo = y + (mo - 1) // 12, (mo - 1) % 12 + 1
    return f"{y:04d}-{mo:02d}"


def load_events(path, schema: EventSchema,
                time_binning: TimeBinning | None = None
                ) -> tuple[SparseCountTensor, list[list[str]]]:
    """Aggregate an event log into a count tensor.

    Returns the tensor and one vocabulary (coordinate -> label) per mode;
    for a binned time mode the vocabulary lists the bin labels.
    """
    M = len(schema.mode_columns)
    if time_binning is not None and schema.time_mode is None:
        raise ValueError("time_binning given but schema.time_mode is unset")
    time_mode = schema.time_mode if time_binning is not None else None

    # One label table per mode, a fixed vocabulary's pre-filled. A binned
    # time mode collects its dates as labels and maps them to bins below.
    fixed = {m for m in (schema.vocabularies or {}) if m != time_mode}
    vocabs = [list(schema.vocabularies[m]) if m in fixed else [] for m in range(M)]
    tables = [{lab: i for i, lab in enumerate(v)} for v in vocabs]

    lines, coords, counts = [], [], []
    with open(path) as f:
        header = f.readline()
        if not header:
            raise ValueError(f"{path}: empty file, expected a header row")
        names = [c.strip() for c in header.rstrip("\n").split(schema.delimiter)]
        # the mode columns' indices, then the count column's if there is one
        cols = list(schema.mode_columns)
        if schema.count_column is not None:
            cols.append(schema.count_column)
        for col in cols:
            if col not in names:
                raise ValueError(f"{path}: schema column {col!r} not in header")
        cols = [names.index(col) for col in cols]

        for ln, raw in enumerate(f, 2):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            tok = line.split(schema.delimiter)
            if len(tok) < len(names):
                raise ValueError(
                    f"{path}:{ln}: expected {len(names)} fields, got {len(tok)}")
            key = []
            for m, col in enumerate(cols[:M]):
                val = tok[col].strip()
                i = tables[m].get(val)
                if i is None:
                    if not val:
                        raise ValueError(f"{path}:{ln}: empty mode-{m + 1} field")
                    if m in fixed:
                        raise ValueError(
                            f"{path}:{ln}: label {val!r} not in mode-{m + 1} vocabulary")
                    if m == time_mode:
                        _parse_ym(val, f"{path}:{ln}")  # a bad date names its line
                    i = tables[m][val] = len(vocabs[m])
                    vocabs[m].append(val)
                key.append(i)
            count = 1
            if len(cols) > M:
                try:
                    count = int(tok[cols[M]].strip())
                except ValueError:
                    raise ValueError(f"{path}:{ln}: non-integer count") from None
                if count < 0:
                    raise ValueError(f"{path}:{ln}: negative count")
            lines.append(ln)
            coords.append(key)
            counts.append(count)
    coords = np.array(coords, dtype=np.int64).reshape(len(lines), M)

    if time_mode is not None:
        tb = time_binning
        dates = [_parse_ym(val, path) for val in vocabs[time_mode]]
        anchor = _parse_ym(tb.start, path) if tb.start else min(dates, default=(1970, 1))
        bins = np.array([_ym_index(ym, anchor, tb.unit) for ym in dates], dtype=np.int64)
        if tb.end:
            last = _ym_index(_parse_ym(tb.end, path), anchor, tb.unit)
        else:
            last = int(bins.max()) if bins.size else 0
        coords[:, time_mode] = bins[coords[:, time_mode]]
        outside = (coords[:, time_mode] < 0) | (coords[:, time_mode] > last)
        if outside.any():
            raise ValueError(f"{path}:{lines[int(np.argmax(outside))]}: "
                             "date outside the declared time range")
        vocabs[time_mode] = [_bin_label(anchor, i, tb.unit) for i in range(last + 1)]

    shape = tuple(len(v) for v in vocabs)
    if any(d == 0 for d in shape):
        # No rows touched some mode and no vocabulary was declared for it.
        shape = tuple(max(d, 1) for d in shape)
        for m, v in enumerate(vocabs):
            if not v:
                vocabs[m] = ["(none)"]
    tensor = sum_entries(shape, coords, np.array(counts, dtype=object), path, lines)
    return tensor, vocabs
