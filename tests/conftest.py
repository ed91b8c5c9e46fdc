import threading

import pytest


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
