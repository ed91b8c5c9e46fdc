import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocore.tensors import (
    EventSchema,
    FiberMask,
    HeldoutSet,
    SparseCountTensor,
    TimeBinning,
    load_coo,
    load_events,
    load_mask,
    load_vocab,
    make_fiber_mask,
    split,
    write_coo,
    write_mask,
    write_vocab,
)

INT64_MAX = np.iinfo(np.int64).max


def cell_counts(tensor):
    """{cell: count} over the stored non-zeros."""
    return {tuple(map(int, c)): int(y) for c, y in zip(tensor.coords, tensor.counts)}


@st.composite
def small_tensors(draw):
    M = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(M))
    n_cells = math.prod(shape)
    n = draw(st.integers(0, min(n_cells, 12)))
    keys = draw(st.lists(st.integers(0, n_cells - 1), min_size=n, max_size=n,
                         unique=True))
    counts = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    coords = np.stack(np.unravel_index(np.array(keys, dtype=np.int64), shape),
                      axis=1) if n else np.zeros((0, M), dtype=np.int64)
    return SparseCountTensor(shape, coords, np.array(counts, dtype=np.int64))


class TestSparseCountTensor:
    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            SparseCountTensor((2, 2), [[0, 0]], [0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseCountTensor((2, 2), [[0, 2]], [1])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SparseCountTensor((2, 2), [[0, 0], [0, 0]], [1, 1])

    def test_rejects_coordinates_of_another_width(self):
        # the twelve indices would read as four 3-mode cells never given
        with pytest.raises(ValueError, match="3 indices per cell"):
            SparseCountTensor((4, 4, 4), np.zeros((6, 2), dtype=np.int64),
                              [1, 1, 1, 1])
        empty = SparseCountTensor((4, 4, 4), [], [])
        assert empty.nnz == 0 and empty.coords.shape == (0, 3)

    def test_from_entries_aggregates(self):
        t = SparseCountTensor.from_entries((3, 3), [((0, 0), 1), ((0, 0), 2)])
        assert t.nnz == 1 and cell_counts(t) == {(0, 0): 3}

    def test_entry_lookup(self):
        t = SparseCountTensor.from_entries((2, 2), {(0, 1): 4})
        assert cell_counts(t) == {(0, 1): 4}

    def test_immutable(self):
        t = SparseCountTensor.from_entries((2, 2), {(0, 1): 4})
        with pytest.raises(ValueError):
            t.counts[0] = 9


class TestCooFormat:
    @settings(max_examples=40, deadline=None)
    @given(small_tensors())
    def test_round_trip(self, tmp_path_factory, tensor):
        path = tmp_path_factory.mktemp("coo") / "t.coo"
        write_coo(tensor, path)
        back = load_coo(path)
        assert back.shape == tensor.shape
        assert back.nnz == tensor.nnz
        assert np.array_equal(back.coords, tensor.coords)
        assert np.array_equal(back.counts, tensor.counts)

    def test_comments_and_errors(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("# comment\n2 3 3\n1 1 2\n")
        t = load_coo(path)
        assert t.shape == (3, 3) and cell_counts(t) == {(0, 0): 2}

        path.write_text("2 3 3\n1 1\n")
        with pytest.raises(ValueError, match=":2"):
            load_coo(path)
        path.write_text("2 3 3\n4 1 2\n")
        with pytest.raises(ValueError, match="out of range"):
            load_coo(path)
        path.write_text("1 1 1\n")
        with pytest.raises(ValueError, match="header"):
            load_coo(path)

    # A body that parses as a whole (good lines first, or every line with
    # the same wrong field count) fails only its bulk checks, and the
    # message must still name the bad line.
    @pytest.mark.parametrize("text, line, message", [
        ("# c\n\n2 3 x\n1 1 2\n", 3, "malformed header"),
        ("2 3\n1 1 2\n", 1, "malformed header"),
        ("0\n", 1, "malformed header"),
        ("2 3 -3\n", 1, "malformed header"),
        ("2 3 3\n1 1 2\n2 2 1\n1 1\n", 4, "expected 3 fields, got 2"),
        ("2 3 3\n1 1\n2 2\n", 2, "expected 3 fields, got 2"),
        ("2 3 3\n1 1 2 1\n2 2 1 1\n", 2, "expected 3 fields, got 4"),
        ("2 3 3\n1 1 2\n2 2 1\n1 1 2 1\n", 4, "expected 3 fields, got 4"),
        ("2 3 3\n1 1 2\n2 2 1\n1 1 2 # note\n", 4, "expected 3 fields, got 5"),
        ("2 3 3\n1 1 2\n2 2 1\n1 x 2\n", 4, "non-integer field"),
        ("2 3 3\n1 1 2\n2 2 1\n1 1 1.5\n", 4, "non-integer field"),
        ("2 3 3\n1 1 2\n2 2 1\n1 1 3.0\n", 4, "non-integer field"),
        ("2 3 4\n1 1 2\n2 2 1\n0 1 2\n", 4, "coordinate out of range"),
        ("2 3 4\n1 1 2\n2 2 1\n1 5 2\n", 4, "coordinate out of range"),
        ("2 3 4\n1 1 2\n2 2 1\n4 1 2\n", 4, "coordinate out of range"),
        ("2 3 4\n1 1 2\n2 2 1\n1 2 0\n", 4, "count must be positive"),
        ("2 3 4\n1 1 2\n2 2 1\n1 2 -4\n", 4, "count must be positive"),
        ("2 3 4\n1 1 2\n# c\n\n1 2 -4\n", 5, "count must be positive"),
    ])
    def test_errors_name_their_line(self, tmp_path, text, line, message):
        path = tmp_path / "t.coo"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_coo(path)
        assert str(info.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_missing_header(self, tmp_path, text):
        path = tmp_path / "t.coo"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_coo(path)
        assert str(info.value) == f"{path}: missing header line"

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("# a\n\n   \n2 3 4\n# b\n1 1 2\n\n\t\n  # c\n3 4 1\n")
        t = load_coo(path)
        assert t.shape == (3, 4)
        assert cell_counts(t) == {(0, 0): 2, (2, 3): 1}
        path.write_text("2 3 4\n1 1 2\n\n \t\n3 4 1\n\n")
        assert cell_counts(load_coo(path)) == {(0, 0): 2, (2, 3): 1}
        path.write_text("2 3 4\n")
        assert load_coo(path).nnz == 0

    def test_duplicates_summed(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("2 3 4\n1 1 2\n3 4 1\n1 1 5\n2 2 1\n3 4 1\n")
        t = load_coo(path)
        assert cell_counts(t) == {(0, 0): 7, (1, 1): 1, (2, 3): 2}

    # counts are int64: a count or a cell's total past its maximum is
    # refused, naming the line at which the total passes it
    @pytest.mark.parametrize("text, line", [
        # parses in bulk; the bulk sum refuses it, the line path names it
        (f"2 3 3\n1 1 {INT64_MAX}\n1 1 1\n", 3),
        (f"2 3 3\n1 1 {INT64_MAX // 2 + 1}\n2 2 5\n1 1 {INT64_MAX // 2 + 1}\n", 4),
        # read line by line from the start
        ("2 3 3\n1 1 99999999999999999999\n", 2),
        (f"2 3 3\n# c\n2 2 1\n1 1 {INT64_MAX}\n1 1 1\n", 5),
    ])
    def test_count_total_past_int64_refused(self, tmp_path, text, line):
        path = tmp_path / "t.coo"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_coo(path)
        assert str(info.value) == (f"{path}:{line}: count total of the cell "
                                   f"exceeds {INT64_MAX}")

    def test_count_total_at_int64_max_kept(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text(f"2 3 3\n1 1 {INT64_MAX - 1}\n2 2 4\n1 1 1\n")
        assert cell_counts(load_coo(path)) == {(0, 0): INT64_MAX, (1, 1): 4}
        t = SparseCountTensor.from_entries((2, 2), [((0, 0), INT64_MAX), ((0, 0), 0)])
        assert cell_counts(t) == {(0, 0): INT64_MAX}

    def test_from_entries_refuses_totals_past_int64(self):
        with pytest.raises(ValueError, match=r"cell \(1, 0\): count total"):
            SparseCountTensor.from_entries((2, 2), {(1, 0): 2 ** 64})
        with pytest.raises(ValueError, match=r"cell \(0, 1\): count total"):
            SparseCountTensor.from_entries((2, 2), [((0, 1), INT64_MAX), ((0, 1), 1)])
        with pytest.raises(ValueError, match=r"cell \(0, 1\): negative count -1"):
            SparseCountTensor.from_entries((2, 2), [((0, 1), 3), ((0, 1), -1)])

    @pytest.mark.parametrize("M", [2, 3, 4])
    def test_round_trip_many_entries(self, tmp_path, M):
        rng = np.random.default_rng(M)
        shape = tuple(int(d) for d in rng.integers(2, 12, size=M))
        keys = rng.choice(math.prod(shape), size=min(300, math.prod(shape) // 2),
                          replace=False)
        coords = np.stack(np.unravel_index(keys, shape), axis=1)
        tensor = SparseCountTensor(shape, coords, rng.integers(1, 500, len(keys)))
        path = tmp_path / "t.coo"
        write_coo(tensor, path)
        back = load_coo(path)
        assert back.shape == tensor.shape
        assert np.array_equal(back.coords, tensor.coords)
        assert np.array_equal(back.counts, tensor.counts)


@st.composite
def row_tables(draw):
    """A table of 0, 1 or 2-24 rows of 1-4 columns, repeats likely, with the shape
    that holds it and one count per row."""
    width = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(width))
    n = draw(st.sampled_from([0, 1, draw(st.integers(2, 24))]))
    rows = np.array([[draw(st.integers(0, d - 1)) for d in shape] for _ in range(n)],
                    dtype=np.int64).reshape(n, width)
    counts = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)),
                      dtype=np.int64)
    return shape, rows, counts


def lexsorted_cells(rows, counts):
    """The distinct rows in np.lexsort order and each one's summed count,
    one row at a time."""
    order = np.lexsort(rows.T[::-1])
    cells, totals = [], []
    for row, count in zip(rows[order].tolist(), counts[order].tolist()):
        if cells and cells[-1] == row:
            totals[-1] += count
        else:
            cells.append(row)
            totals.append(count)
    return (np.array(cells, dtype=np.int64).reshape(-1, rows.shape[1]),
            np.array(totals, dtype=np.int64))


class TestRowOrder:
    """Every table of rows the module sorts comes out in np.lexsort order,
    repeated rows summed or refused."""

    @settings(max_examples=80, deadline=None)
    @given(row_tables())
    def test_constructors_and_readers_give_lexsort_order(self, tmp_path_factory, table):
        shape, rows, counts = table
        order = np.lexsort(rows.T[::-1])
        cells, totals = lexsorted_cells(rows, counts)
        repeated = len(cells) < len(rows)

        if repeated:
            with pytest.raises(ValueError, match="duplicate coordinates"):
                SparseCountTensor(shape, rows, counts)
            with pytest.raises(ValueError, match="stems must be unique"):
                FiberMask(0, rows)
        else:
            t = SparseCountTensor(shape, rows, counts)
            assert np.array_equal(t.coords, rows[order])
            assert np.array_equal(t.counts, counts[order])
            mask = FiberMask(0, rows)
            assert mask.stems.dtype == np.int64
            assert np.array_equal(mask.stems, rows[order])

        t = SparseCountTensor.from_entries(
            shape, [(tuple(r), int(c)) for r, c in zip(rows, counts)])
        assert np.array_equal(t.coords, cells) and np.array_equal(t.counts, totals)

        path = tmp_path_factory.mktemp("coo") / "t.coo"
        body = "".join(" ".join(map(str, r + 1)) + f" {c}\n" for r, c in zip(rows, counts))
        path.write_text(f"{len(shape)} {' '.join(map(str, shape))}\n{body}")
        t = load_coo(path)
        assert t.coords.dtype == np.int64 and t.counts.dtype == np.int64
        assert np.array_equal(t.coords, cells) and np.array_equal(t.counts, totals)

    def test_shape_of_more_cells_than_int64_indexes(self):
        # 2**62 * 2**62 * 3 cells have no int64 row-major index
        shape = (2 ** 62, 2 ** 62, 3)
        big = 2 ** 62 - 1
        rows = np.array([[big, 0, 2], [0, big, 1], [big, 0, 0], [0, 0, 2], [0, big, 0]])
        t = SparseCountTensor(shape, rows, [1, 2, 3, 4, 5])
        order = np.lexsort(rows.T[::-1])
        assert np.array_equal(t.coords, rows[order])
        assert t.counts.tolist() == [4, 5, 2, 3, 1]
        with pytest.raises(ValueError, match="duplicate coordinates"):
            SparseCountTensor(shape, np.concatenate([rows, rows[1:2]]), [1] * 6)

        t = SparseCountTensor.from_entries(
            shape, [((big, 0, 2), 1), ((0, big, 1), 2), ((big, 0, 2), 3)])
        assert cell_counts(t) == {(0, big, 1): 2, (big, 0, 2): 4}
        assert t.coords.tolist() == [[0, big, 1], [big, 0, 2]]

        stems = rows[:, :2]  # stems whose own extent passes 2**63 - 1 cells
        with pytest.raises(ValueError, match="stems must be unique"):
            FiberMask(2, stems)
        mask = FiberMask(2, stems[[0, 1, 3]])
        assert mask.stems.tolist() == [[0, 0], [0, big], [big, 0]]


def reference_coo_text(tensor):
    """The COO file of ``tensor``, written one row at a time."""
    lines = [f"{tensor.ndim} " + " ".join(str(d) for d in tensor.shape)]
    lines += [" ".join(str(int(v) + 1) for v in row) + f" {int(c)}"
              for row, c in zip(tensor.coords, tensor.counts)]
    return "".join(line + "\n" for line in lines)


def reference_mask_text(mask):
    """The mask file of ``mask``, written one stem at a time."""
    lines = [f"free_mode={mask.free_mode + 1}"]
    lines += [" ".join(str(int(v) + 1) for v in row) for row in mask.stems]
    return "".join(line + "\n" for line in lines)


class TestWriters:
    @pytest.mark.parametrize("tensor", [
        SparseCountTensor((4, 4, 4), [], []),
        SparseCountTensor((7,), [[6], [0]], [3, 1]),
        SparseCountTensor((3, 2), [[2, 1], [0, 0]], [INT64_MAX, 5]),
        SparseCountTensor((2 ** 62, 10), [[2 ** 62 - 1, 9], [0, 0]], [1, 2]),
        SparseCountTensor.from_entries((6, 5, 4, 3), {(5, 4, 3, 2): 9, (0, 1, 0, 1): 2,
                                                      (3, 0, 2, 0): 1}),
    ], ids=["empty", "one-mode", "int64-max", "wide-shape", "four-modes"])
    def test_coo_bytes_match_a_row_by_row_writer(self, tmp_path, tensor):
        path = tmp_path / "t.coo"
        write_coo(tensor, path)
        assert path.read_bytes() == reference_coo_text(tensor).encode()
        back = load_coo(path)
        assert np.array_equal(back.coords, tensor.coords)
        assert np.array_equal(back.counts, tensor.counts)

    @pytest.mark.parametrize("mask", [
        FiberMask(1, np.array([[4, 0]])),
        FiberMask(0, np.array([[3], [0], [11]])),
        FiberMask(2, np.array([[2 ** 62, 1], [5, 7], [0, 2 ** 62]])),
    ], ids=["one-stem", "one-column", "wide-stems"])
    def test_mask_bytes_match_a_row_by_row_writer(self, tmp_path, mask):
        path = tmp_path / "mask.txt"
        write_mask(mask, path)
        assert path.read_bytes() == reference_mask_text(mask).encode()
        back = load_mask(path)
        assert back.free_mode == mask.free_mode
        assert np.array_equal(back.stems, mask.stems)


class TestEvents:
    def _write(self, tmp_path, rows, header="i\tj\tt"):
        path = tmp_path / "events.tsv"
        path.write_text("\n".join([header] + rows) + ("\n" if rows else "\n"))
        return path

    def test_rows_aggregate_to_one_cell(self, tmp_path):
        path = self._write(tmp_path, ["a\tb\tx", "a\tb\tx", "a\tb\tx"])
        tensor, vocabs = load_events(path, EventSchema(("i", "j", "t")))
        assert tensor.nnz == 1
        assert tensor.counts[0] == 3
        assert vocabs[0] == ["a"]

    def test_empty_input(self, tmp_path):
        path = self._write(tmp_path, [])
        tensor, _ = load_events(path, EventSchema(("i", "j", "t")))
        assert tensor.nnz == 0

    def test_event_dataset_shape(self, tmp_path):
        # Vocabularies pin the actor/action dimensions; monthly bins over a
        # seven-year window give 84 time steps.
        actors = [f"ac{i:03d}" for i in range(206)]
        actions = [f"verb{i:02d}" for i in range(20)]
        rows = [
            "ac000\tac001\tverb00\t2000-01-15",
            "ac000\tac001\tverb00\t2000-01-20",
            "ac205\tac100\tverb19\t2006-12-31",
        ]
        path = self._write(tmp_path, rows, header="src\tdst\taction\tdate")
        schema = EventSchema(
            ("src", "dst", "action", "date"),
            vocabularies={0: tuple(actors), 1: tuple(actors), 2: tuple(actions)},
            time_mode=3,
        )
        binning = TimeBinning(unit="month", start="2000-01", end="2006-12")
        tensor, vocabs = load_events(path, schema, binning)
        assert tensor.shape == (206, 206, 20, 84)
        assert tensor.nnz == 2
        assert cell_counts(tensor)[(0, 1, 0, 0)] == 2
        assert vocabs[3][0] == "2000-01" and vocabs[3][-1] == "2006-12"

    def test_count_column(self, tmp_path):
        path = self._write(tmp_path, ["a\tb\tx\t5"], header="i\tj\tt\tn")
        tensor, _ = load_events(path, EventSchema(("i", "j", "t"), count_column="n"))
        assert tensor.total() == 5

    @pytest.mark.parametrize("rows, line", [
        ([f"a\tb\tx\t{INT64_MAX}", "c\tb\tx\t5", "a\tb\tx\t1"], 4),
        (["a\tb\tx\t1", "a\tb\tx\t99999999999999999999"], 3),
    ])
    def test_count_total_past_int64_refused(self, tmp_path, rows, line):
        path = self._write(tmp_path, rows, header="i\tj\tt\tn")
        with pytest.raises(ValueError) as info:
            load_events(path, EventSchema(("i", "j", "t"), count_column="n"))
        assert str(info.value) == (f"{path}:{line}: count total of the cell "
                                   f"exceeds {INT64_MAX}")

    def test_dates_of_one_bin_aggregate_and_zero_counts_drop(self, tmp_path):
        path = self._write(tmp_path, ["a\t2001-03-02\t2", "b\t2001-01\t0",
                                      "a\t2001-03-30\t1", "a\t2001\t4"],
                           header="i\td\tn")
        schema = EventSchema(("i", "d"), count_column="n", time_mode=1)
        tensor, vocabs = load_events(path, schema, TimeBinning(unit="month"))
        assert vocabs == [["a", "b"], ["2001-01", "2001-02", "2001-03"]]
        assert cell_counts(tensor) == {(0, 2): 3, (0, 0): 4}

    def test_malformed_row_reports_line(self, tmp_path):
        path = self._write(tmp_path, ["a\tb\tx", "only-one-field"])
        with pytest.raises(ValueError, match=":3"):
            load_events(path, EventSchema(("i", "j", "t")))

    def test_unknown_label_with_fixed_vocab(self, tmp_path):
        path = self._write(tmp_path, ["zzz\tb\tx"])
        schema = EventSchema(("i", "j", "t"), vocabularies={0: ("a",)})
        with pytest.raises(ValueError, match="zzz"):
            load_events(path, schema)

    def test_missing_column_named(self, tmp_path):
        path = self._write(tmp_path, ["a\tb\tx"])
        with pytest.raises(ValueError, match="nope"):
            load_events(path, EventSchema(("i", "nope", "t")))

    def test_date_outside_range(self, tmp_path):
        path = self._write(tmp_path, ["a\tb\t2010-05"], header="i\tj\td")
        schema = EventSchema(("i", "j", "d"), time_mode=2)
        binning = TimeBinning(unit="month", start="2000-01", end="2006-12")
        with pytest.raises(ValueError, match="time range"):
            load_events(path, schema, binning)

    @pytest.mark.parametrize("bounds, message", [
        ({"start": "2001-13"}, "time binning start: cannot parse date '2001-13'"),
        ({"end": "2001-00"}, "time binning end: cannot parse date '2001-00'"),
        ({"start": "2002-01", "end": "2001-12"}, "time binning end precedes start"),
    ])
    def test_bad_bounds_named_as_fields(self, tmp_path, bounds, message):
        with pytest.raises(ValueError) as info:
            TimeBinning(unit="month", **bounds)
        assert str(info.value) == message

    def test_dates_before_a_given_start_name_their_line(self, tmp_path):
        # every row is dated before the start and no end is given: the first
        # row is named, not an end that was never declared
        path = self._write(tmp_path, ["a\t2001-03", "b\t2001-05"],
                           header="i\td")
        schema = EventSchema(("i", "d"), time_mode=1)
        with pytest.raises(ValueError) as info:
            load_events(path, schema, TimeBinning(unit="month", start="2002-01"))
        assert str(info.value) == f"{path}:2: date outside the declared time range"

    def test_yearly_binning_inferred_range(self, tmp_path):
        path = self._write(tmp_path, ["a\tb\t1995-03", "a\tb\t2013-11"],
                           header="i\tj\td")
        schema = EventSchema(("i", "j", "d"), time_mode=2)
        tensor, vocabs = load_events(path, schema, TimeBinning(unit="year"))
        assert tensor.shape[2] == 19
        assert vocabs[2][0] == "1995"


class TestFiberMask:
    def test_event_scale_stem_count(self):
        # floor of the fraction times the candidate-stem count
        shape = (206, 206, 20, 84)
        tensor = SparseCountTensor(shape, np.zeros((0, 4), dtype=np.int64),
                                   np.zeros(0, dtype=np.int64))
        mask = make_fiber_mask(tensor, free_mode=3, fraction=0.01, seed=0)
        expected = math.floor(0.01 * 206 * 206 * 20)
        assert expected == 8487
        assert mask.n_stems == expected

    def test_tiny_floor(self):
        tensor = SparseCountTensor.from_entries((2, 2), {(0, 0): 1})
        mask = make_fiber_mask(tensor, free_mode=1, fraction=0.5, seed=123)
        assert mask.n_stems == 1

    def test_deterministic(self):
        tensor = SparseCountTensor.from_entries((6, 7, 8), {(0, 0, 0): 1})
        a = make_fiber_mask(tensor, 2, 0.3, seed=9)
        b = make_fiber_mask(tensor, 2, 0.3, seed=9)
        assert np.array_equal(a.stems, b.stems)
        c = make_fiber_mask(tensor, 2, 0.3, seed=10)
        assert not np.array_equal(a.stems, c.stems)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_bounds(self, fraction):
        tensor = SparseCountTensor.from_entries((4, 4), {(0, 0): 1})
        with pytest.raises(ValueError):
            make_fiber_mask(tensor, 0, fraction, seed=0)

    def test_fraction_selecting_nothing(self):
        tensor = SparseCountTensor.from_entries((2, 2), {(0, 0): 1})
        with pytest.raises(ValueError, match="selects none"):
            make_fiber_mask(tensor, 0, 0.4, seed=0)

    def test_candidate_stems_past_int64_refused(self):
        tensor = SparseCountTensor.from_entries((2 ** 40, 2 ** 40, 2), {(0, 0, 0): 1})
        with pytest.raises(ValueError) as info:
            make_fiber_mask(tensor, 2, 0.5, seed=0)
        assert str(info.value) == f"{2 ** 80} candidate stems: more than int64 can index"

    def test_mask_file_round_trip(self, tmp_path):
        tensor = SparseCountTensor.from_entries((5, 4, 3), {(0, 0, 0): 1})
        mask = make_fiber_mask(tensor, 1, 0.4, seed=2)
        path = tmp_path / "mask.txt"
        write_mask(mask, path)
        back = load_mask(path)
        assert back.free_mode == mask.free_mode
        assert np.array_equal(back.stems, mask.stems)

    @pytest.mark.parametrize("value", ["two", "2.0", "0", "-1"])
    def test_bad_free_mode_names_the_line(self, tmp_path, value):
        path = tmp_path / "mask.txt"
        path.write_text(f"# held-out fibers\nfree_mode={value}\n1 1\n")
        with pytest.raises(ValueError, match=r"mask\.txt:2: .*free_mode"):
            load_mask(path)

    @pytest.mark.parametrize("text", ["free_mode=1\n", "# none\nfree_mode=2\n\n# c\n"])
    def test_mask_file_without_stems_refused(self, tmp_path, text):
        path = tmp_path / "mask.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_mask(path)
        assert str(info.value) == f"{path}: no stems after the 'free_mode=' header"

    @pytest.mark.parametrize("value", ["99999999999999999999", "-99999999999999999999"])
    def test_stem_past_int64_names_the_line(self, tmp_path, value):
        path = tmp_path / "mask.txt"
        path.write_text(f"free_mode=1\n1 1\n{value} 1\n")
        with pytest.raises(ValueError) as info:
            load_mask(path)
        assert str(info.value) == f"{path}:3: stem coordinate past int64"

    def test_unique_stems_required(self):
        with pytest.raises(ValueError, match="unique"):
            FiberMask(0, np.array([[1, 2], [1, 2]]))


class TestSplit:
    def test_single_nonzero_in_masked_fiber(self):
        tensor = SparseCountTensor.from_entries((3, 3), {(1, 2): 7})
        mask = FiberMask(free_mode=1, stems=np.array([[1]]))
        train, heldout = split(tensor, mask)
        assert train.nnz == 0
        assert heldout.n_cells == 3
        assert heldout.total() == 7

    def test_empty_mask_is_identity(self):
        tensor = SparseCountTensor.from_entries((3, 3), {(1, 2): 7})
        mask = FiberMask(free_mode=0, stems=np.zeros((0, 1), dtype=np.int64))
        train, heldout = split(tensor, mask)
        assert cell_counts(train) == cell_counts(tensor)
        assert heldout.n_cells == 0
        assert heldout.layout is mask

    def test_worked_two_by_two(self):
        # mask the first fiber along mode 2: heldout lists both of its cells
        tensor = SparseCountTensor.from_entries((2, 2), {(0, 0): 3, (1, 1): 5})
        mask = FiberMask(free_mode=1, stems=np.array([[0]]))
        train, heldout = split(tensor, mask)
        assert cell_counts(train) == {(1, 1): 5}
        cells = {tuple(c): int(v) for c, v in zip(heldout.coords, heldout.counts)}
        assert cells == {(0, 0): 3, (0, 1): 0}

    def test_heldout_covers_whole_fibers(self):
        tensor = SparseCountTensor.from_entries((4, 3, 2), {(0, 0, 0): 1})
        mask = make_fiber_mask(tensor, 0, 0.4, seed=5)
        _, heldout = split(tensor, mask)
        assert heldout.n_cells == mask.n_stems * 4

    def test_shape_mismatch_rejected(self):
        tensor = SparseCountTensor.from_entries((2, 2), {(0, 0): 1})
        with pytest.raises(ValueError):
            split(tensor, FiberMask(free_mode=0, stems=np.array([[5]])))
        with pytest.raises(ValueError):
            split(tensor, FiberMask(free_mode=0, stems=np.array([[0, 0]])))

    @settings(max_examples=40, deadline=None)
    @given(small_tensors(), st.integers(0, 3), st.randoms())
    def test_partition_properties(self, tensor, free_mode, rnd):
        if tensor.ndim < 2:
            return
        free_mode = free_mode % tensor.ndim
        candidates = math.prod(d for m, d in enumerate(tensor.shape)
                               if m != free_mode)
        if candidates < 2:
            return
        n = rnd.randint(1, candidates - 1)
        mask = make_fiber_mask(tensor, free_mode, (n + 0.5) / candidates,
                               seed=rnd.randint(0, 10 ** 6))
        assert mask.n_stems == n
        train, heldout = split(tensor, mask)
        # count conservation across the partition
        assert train.total() + heldout.total() == tensor.total()
        # every positive heldout cell was in the tensor; train+positives = nnz
        assert train.nnz + heldout.positive().n_cells == tensor.nnz
        # train support and heldout cells are disjoint
        train_cells = set(map(tuple, train.coords))
        held_cells = set(map(tuple, heldout.coords))
        assert not train_cells & held_cells
        assert heldout.n_cells == mask.n_stems * tensor.shape[free_mode]


class TestHeldoutLayout:
    def _split(self):
        tensor = SparseCountTensor.from_entries(
            (4, 3, 2), {(0, 0, 0): 1, (3, 2, 1): 4, (1, 1, 1): 2})
        mask = FiberMask(free_mode=1, stems=np.array([[0, 0], [3, 1]]))
        return split(tensor, mask)[1], mask

    def test_split_carries_its_mask(self):
        heldout, mask = self._split()
        assert heldout.layout is mask
        # stem-major: fiber (0, :, 0) then fiber (3, :, 1)
        assert heldout.coords.tolist() == [[0, 0, 0], [0, 1, 0], [0, 2, 0],
                                           [3, 0, 1], [3, 1, 1], [3, 2, 1]]
        assert HeldoutSet(None, heldout.counts, layout=mask).n_cells == 6

    def test_coords_with_a_layout_rejected(self):
        # a fiber set's coordinates follow from its layout; a set takes one
        heldout, mask = self._split()
        with pytest.raises(ValueError, match="either coords or a layout"):
            HeldoutSet(heldout.coords, heldout.counts, layout=mask)
        with pytest.raises(ValueError, match="either coords or a layout"):
            HeldoutSet(None, heldout.counts)

    def test_layout_that_does_not_tile_rejected(self):
        heldout, mask = self._split()
        with pytest.raises(ValueError, match="tile"):
            HeldoutSet(None, heldout.counts[:-1], layout=mask)
        empty = FiberMask(free_mode=1, stems=np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="tile"):
            HeldoutSet(None, heldout.counts, layout=empty)

    def test_positive_subset_has_no_layout(self):
        heldout, _ = self._split()
        pos = heldout.positive()
        assert pos.layout is None
        assert pos.counts.tolist() == [1, 4]
        assert pos.coords.tolist() == [[0, 0, 0], [3, 2, 1]]

    @staticmethod
    def stored_table(mask, shape):
        """The (n_cells, M) stem-major table that split used to store."""
        d_free = shape[mask.free_mode]
        table = np.empty((mask.n_stems * d_free, len(shape)), dtype=np.int64)
        for j, m in enumerate(mask.stem_modes):
            table[:, m] = np.repeat(mask.stems[:, j], d_free)
        table[:, mask.free_mode] = np.tile(np.arange(d_free), mask.n_stems)
        return table

    @pytest.mark.parametrize("shape, free_mode", [
        ((6, 5, 4), 0), ((6, 5, 4), 2), ((4, 3, 5, 3), 1), ((7, 1), 1),
        ((5, 2), 0),
    ])
    def test_built_coords_equal_the_stored_table(self, shape, free_mode):
        rng = np.random.default_rng(len(shape) + free_mode)
        dense = rng.poisson(0.8, size=shape)
        tensor = SparseCountTensor(shape, np.argwhere(dense), dense[dense > 0])
        candidates = math.prod(shape) // shape[free_mode]
        mask = make_fiber_mask(tensor, free_mode, 0.6, seed=2)
        assert 0 < mask.n_stems < candidates
        _, heldout = split(tensor, mask)
        table = self.stored_table(mask, shape)
        assert heldout.coords.dtype == np.int64
        assert np.array_equal(heldout.coords, table)
        # each held-out count is the tensor's count at its cell
        assert np.array_equal(heldout.counts, dense[tuple(table.T)])
        keep = heldout.counts > 0
        pos = heldout.positive()
        assert np.array_equal(pos.coords, table[keep])
        assert np.array_equal(pos.counts, heldout.counts[keep])

    def test_split_peak_is_below_two_cell_arrays(self, wide_mask, traced_peak):
        # the counts are the one cell-length array; the coordinate table
        # alone would be three
        tensor, mask = wide_mask
        n_cells = mask.n_stems * tensor.shape[mask.free_mode]
        assert n_cells >= 50_000
        assert traced_peak(split, tensor, mask) < 2 * 8 * n_cells


def test_vocab_round_trip(tmp_path):
    labels = ["alpha", "beta gamma", "delta"]
    path = tmp_path / "vocab.txt"
    write_vocab(labels, path)
    assert load_vocab(path) == labels


def test_heldout_positive_subset():
    held = HeldoutSet(np.array([[0, 0], [0, 1], [1, 0]]), np.array([0, 2, 0]))
    pos = held.positive()
    assert pos.n_cells == 1 and pos.counts[0] == 2
