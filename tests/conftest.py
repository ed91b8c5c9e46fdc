import threading
import tracemalloc

import numpy as np
import pytest

from allocore.tensors import SparseCountTensor, make_fiber_mask


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a non-daemon thread running which was not
    running when it started: such a thread outlives the call that made it
    and keeps the interpreter from exiting."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and t.is_alive() and not t.daemon]
    if left:
        pytest.fail(f"threads left running: {left}")


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)``: peak bytes allocated during ``fn(*args)``.
    NumPy reports its buffers to tracemalloc, so this counts allocations,
    not resident memory, and repeats exactly."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture
def wide_mask():
    """A 3-mode tensor of 3,000 non-zeros and a mask of 1,000 fibers along
    mode 2, 60,000 held-out cells: a table of cell length dwarfs the
    non-zeros' arrays."""
    rng = np.random.default_rng(0)
    shape = (100, 100, 60)
    keys = np.sort(rng.choice(np.prod(shape), size=3000, replace=False))
    cells = np.stack(np.unravel_index(keys, shape), axis=1)
    tensor = SparseCountTensor(shape, cells, rng.integers(1, 9, len(cells)))
    return tensor, make_fiber_mask(tensor, 2, 0.1, seed=1)
