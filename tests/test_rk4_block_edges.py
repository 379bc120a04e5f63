"""RK4's finiteness check at the edges of its blocks.

`numcheck.integrate` checks the rows it wrote once per block of
`numcheck._BLOCK` steps and once more at the last step, and on a failure ends
the trajectory before the first row that is not finite.  Each case below puts
that row at a chosen step, around the block edges, and compares the whole
run with the reference loop of `test_rk4_buffers_differential`, which checks
every step, byte for byte.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

from holomult.calculus import RealVectorField
from holomult.numcheck import _BLOCK
from holomult.poly import RPoly
from test_rk4_buffers_differential import ref_evaluator, same_run

BIG = 10**306  # a constant slope: each unit step adds about 1e306


def unchecked_rows(field, x0, nsteps, step):
    """The reference RK4 states with no finiteness check, past any blow-up."""
    rhs = ref_evaluator(field.components)
    states = [np.asarray(x0, dtype=float)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(nsteps):
            state = states[-1]
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * step * k1)
            k3 = rhs(state + 0.5 * step * k2)
            k4 = rhs(state + step * k3)
            states.append(state + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(states)


def first_bad_row(rows):
    finite = np.isfinite(rows).all(axis=1)
    return int(finite.argmin()) if not finite.all() else None


def overflow_at(bad, nsteps, n=1):
    """A constant field on R^n whose first coordinate leaves the floats at step `bad`."""
    field = RealVectorField(n, [RPoly.const(n, BIG)] + [RPoly.zero(n)] * (n - 1))
    x0 = [sys.float_info.max - (bad - 0.5) * BIG] + [0.5] * (n - 1)
    assert first_bad_row(unchecked_rows(field, x0, nsteps, 1.0)) == bad
    return field, x0


def test_the_block_is_32_steps():
    assert _BLOCK == 32


@pytest.mark.parametrize("bad", [1, 31, 32, 33, 64])
def test_first_bad_row_around_the_block_edges(bad):
    field, x0 = overflow_at(bad, 100)
    traj = same_run(field, x0, 100.0, 1.0)
    assert traj.truncated
    assert len(traj.times) == bad


@pytest.mark.parametrize("nsteps", [1, 31, 32, 33, 50, 64, 65])
def test_first_bad_row_at_the_last_step(nsteps):
    field, x0 = overflow_at(nsteps, nsteps)
    traj = same_run(field, x0, float(nsteps), 1.0)
    assert traj.truncated
    assert len(traj.times) == nsteps


@pytest.mark.parametrize("nsteps", [0, 32, 33])
def test_finite_runs_of_block_lengths(nsteps):
    x, y = RPoly.var(2, 1), RPoly.var(2, 2)
    field = RealVectorField(2, [-y + x * y, x - RPoly.const(2, Fraction(1, 3)) * y * y])
    traj = same_run(field, [0.5, -0.25], nsteps * 0.01 + 0.001, 0.01)
    assert not traj.truncated
    assert len(traj.times) == nsteps + 1


@pytest.mark.parametrize("bad", [2, 33, 40])
def test_one_coordinate_overflowing_alone(bad):
    field, x0 = overflow_at(bad, 64, n=3)
    rows = unchecked_rows(field, x0, bad, 1.0)
    assert np.isinf(rows[bad, 0]) and np.isfinite(rows[bad, 1:]).all()
    traj = same_run(field, x0, 64.0, 1.0)
    assert len(traj.times) == bad


@pytest.mark.parametrize("bad", [3, 32, 35])
def test_nan_from_inf_minus_inf(bad):
    # x and y climb together, so x^2 and y^2 overflow in the same stage and
    # the third slope is inf - inf (the zero coefficients of x^2 and y^2 in
    # the other slopes make those nan too: inf * 0)
    x, y = RPoly.var(3, 1), RPoly.var(3, 2)
    field = RealVectorField(3, [RPoly.const(3, 10**152)] * 2 + [x * x - y * y])
    start = 1.3407807929942596e154 - (bad - 0.75) * 1e152  # x^2 overflows past 2^512
    x0 = [start, start, 0.0]
    rows = unchecked_rows(field, x0, bad, 1.0)
    assert first_bad_row(rows) == bad
    assert np.isnan(rows[bad]).all()
    traj = same_run(field, x0, 64.0, 1.0)
    assert traj.truncated
    assert len(traj.times) == bad
