import numpy as np

from allocore import SparseCountTensor, gibbs, init_canonical
from allocore.state import substream
from spans import SpanRecorder, instrument, live_draws, span_stats, FIT_TARGETS


def _brute_live(per_cell: np.ndarray) -> int:
    """Replay thin_counts' loop: draw q is live when the remainder is > 0."""
    live = 0
    for row in per_cell:
        remaining = int(row.sum())
        for q in range(per_cell.shape[1] - 1):
            if remaining > 0:
                live += 1
            remaining -= int(row[q])
    return live


def test_live_draws_matches_brute_force_on_thinned_tensor():
    rng = np.random.default_rng(3)
    shape = (6, 5, 4)
    coords = np.array(np.unravel_index(
        rng.choice(np.prod(shape), size=40, replace=False), shape)).T
    counts = rng.choice([1, 1, 1, 2, 3, 40], size=40)
    train = SparseCountTensor(shape, coords, counts)
    state = init_canonical(shape, 7, seed=5)
    per_cell = gibbs.thin_counts(state, train, substream(5, 1, 1)).per_cell
    assert live_draws(per_cell) == _brute_live(per_cell)
    assert 0 < live_draws(per_cell) < train.nnz * (state.Q - 1)


def test_live_draws_edge_rows():
    per_cell = np.array([[0, 0, 0, 5],
                         [3, 0, 0, 0],
                         [0, 0, 0, 0],
                         [1, 0, 2, 0]])
    assert live_draws(per_cell) == _brute_live(per_cell) == 3 + 1 + 0 + 3
    assert live_draws(np.ones((4, 1), dtype=np.int64)) == 0


def test_self_time_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
        ["a", 20.0, 21.0, -1],
    ]
    stats = span_stats(spans)
    assert stats["a"] == {"calls": 2, "total": 11.0, "self": 10.0 - 3.0 - 4.0 + 1.0}
    assert stats["b"] == {"calls": 1, "total": 3.0, "self": 2.0}
    assert stats["c"] == {"calls": 1, "total": 1.0, "self": 1.0}
    assert stats["d"] == {"calls": 1, "total": 4.0, "self": 4.0}


def test_recorder_links_children_to_the_open_span():
    rec = SpanRecorder()
    outer = rec.begin("outer")
    inner = rec.begin("inner")
    rec.end(inner)
    rec.end(outer)
    top = rec.begin("next")
    rec.end(top)
    assert [(s[0], s[3]) for s in rec.spans] == [("outer", -1), ("inner", 0), ("next", -1)]
    stats = span_stats(rec.spans)
    total = stats["outer"]["total"]
    assert abs(stats["outer"]["self"] + stats["inner"]["total"] - total) < 1e-12


def test_instrument_wraps_shared_function_once_and_restores():
    import allocore.state as state_mod

    original = gibbs.cell_rates
    rec = SpanRecorder()
    undo = instrument(rec, FIT_TARGETS)
    try:
        assert gibbs.cell_rates is state_mod.cell_rates is not original
        st = init_canonical((3, 3, 2), 2, seed=1)
        state_mod.reconstruct_cells(st, np.array([[0, 0, 0], [1, 2, 1]]))
    finally:
        undo()
    assert gibbs.cell_rates is original and state_mod.cell_rates is original
    assert [s[0] for s in rec.spans] == ["state.cell_rates"]
    assert rec.counts["state.cell_rates.cells"] == 2
