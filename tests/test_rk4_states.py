"""RK4 writes its states into one preallocated array."""

import tracemalloc

import numpy as np

from holomult.calculus import RealVectorField
from holomult.numcheck import integrate
from holomult.poly import RPoly


def rotation():
    x, y = RPoly.var(2, 1), RPoly.var(2, 2)
    return RealVectorField(2, [-y, x])


def test_peak_memory_stays_near_the_states():
    field = rotation()
    integrate(field, [1.0, 0.0], t_end=0.1, step=0.01)  # warm the evaluator's imports
    tracemalloc.start()
    try:
        traj = integrate(field, [1.0, 0.0], t_end=3.0, step=0.001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (3001, 2)
    assert peak < 4 * traj.states.nbytes


def test_times_are_step_multiples():
    traj = integrate(rotation(), [1.0, 0.0], t_end=1.0, step=0.1)
    assert traj.times.tolist() == [k * 0.1 for k in range(11)]
    assert not traj.truncated


def test_blow_up_keeps_the_filled_prefix():
    x = RPoly.var(1, 1)
    traj = integrate(RealVectorField(1, [x * x]), [1.0], t_end=5.0, step=0.01)
    assert traj.truncated
    assert len(traj.times) == len(traj.states) < 501
    assert traj.times.tolist() == [k * 0.01 for k in range(len(traj.times))]
    assert np.all(np.isfinite(traj.states))
    assert traj.states[0, 0] == 1.0
