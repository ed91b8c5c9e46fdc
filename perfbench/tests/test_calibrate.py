import pytest

from calibrate import REFERENCE_S, reference_task, scaled, time_reference


def test_scaled_is_wall_time_at_the_reference_speed():
    assert scaled(0.5, REFERENCE_S, REFERENCE_S) == pytest.approx(0.5)
    # A host running the reference task at half speed doubled the set-up's
    # wall time too; scaling takes that back out.
    assert scaled(1.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.5)
    assert scaled(1.0, REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(0.5)


def test_reference_task_is_fixed_work():
    coords, counts = reference_task()
    assert coords.shape == (20000, 3)
    assert len({tuple(c) for c in coords.tolist()}) == 20000
    assert counts.min() >= 1
    assert time_reference() > 0
