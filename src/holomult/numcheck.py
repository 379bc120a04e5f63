"""Floating-point cross-validation: trajectory integration and residual sampling.

Everything here is deterministic.  The PRNG is splitmix64 with the usual
constants (increment 0x9E3779B97F4A7C15, mix multipliers 0xBF58476D1CE4E5B9
and 0x94D049BB133111EB, shifts 30/27/31); uniform doubles come from the top
53 bits, so any implementation of the same generator samples identical
points.  `sample_points` takes all of its draws in one uint64 array pass,
which gives the scalar generator's draws exactly.  Float evaluation goes
through `poly.float_evaluator`.

RK4 reads the evaluator's compiled (exponent, coefficient) matrices and does
all of its set-up once per run: each call owns its buffers (the slopes, a
stage point, the slope sum, the right-hand side's powers and monomials), so
the evaluator keeps none and stays safe to share.  Each right-hand side is
the evaluator's three numpy operations (power, product reduction, matmul)
with positional `out`, and the stage constants step/2, step, step/6 and 2.0
are length-n arrays, since a Python float operand costs each ufunc a
conversion.  Every stage keeps the operations, in their order, of the plain
stage expressions, so each state is the same float.  The rows are checked
for finiteness once per block of `_BLOCK` steps and at the last step, and
the run ends before the first row that is not finite.  That is the row where
a check at every step would have stopped: a coordinate that is inf or nan
stays so under state + (step/6)*total, so the rows after it are not finite
either.

numpy is loaded on first use: each function that needs it imports it
locally, so importing this module (and `holomult`) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .poly import CPoly, RPoly, float_evaluator
from .realify import RealVectorField

_MASK = (1 << 64) - 1
# splitmix64: the state's increment, then the two mix multipliers
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

MAX_STEPS = 10**6  # RK4 keeps every state, so t_end / step is bounded
_BLOCK = 32  # RK4 checks its rows for finiteness once per this many steps


class SplitMix64:
    """Deterministic 64-bit PRNG used for all sampling."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_symmetric(self, box: float) -> float:
        return box * (2.0 * self.next_unit() - 1.0)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)
    truncated: bool = False

    def __post_init__(self):
        import numpy as np

        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)


def integrate(field: RealVectorField, x0: Sequence[float], t_end: float, step: float) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta.

    Stops early (flagging the trajectory truncated) if the state leaves the
    finite floats.
    """
    import numpy as np

    if field.ring is not RPoly:
        raise ValueError("integrate needs a real field: every component must be an RPoly")
    for name, value in (("step", step), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if step <= 0 or t_end <= 0:
        raise ValueError("step and t_end must be positive")
    ratio = t_end / step
    if ratio > MAX_STEPS:
        raise ValueError(f"t_end / step = {ratio:g} exceeds the step budget of {MAX_STEPS}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.n,):
        raise ValueError(f"initial state must have {field.n} coordinates")
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite")
    exps, coeffs = float_evaluator(field.components).matrices
    nsteps = int(round(ratio))
    n = field.n
    states = np.empty((nsteps + 1, n))
    states[0] = state = x0
    # each stage is the expression state + (0.5*step)*k1 etc. operation for
    # operation, so the states are the floats the plain expressions give
    k1, k2, k3, k4, stage, total, half, full, sixth, two = np.empty((10, n))
    half[:], full[:], sixth[:], two[:] = 0.5 * step, step, step / 6.0, 2.0
    powers, monomials = np.empty(exps.shape), np.empty(len(exps))
    add, mul, power, reduce, matmul = np.add, np.multiply, np.power, np.multiply.reduce, np.matmul

    def rhs(point, out):  # the evaluator's three operations, into the run's buffers
        power(point, exps, powers)
        reduce(powers, -1, None, monomials)
        matmul(monomials, coeffs, out)

    k = checked = 0  # rows 1..checked are known finite
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected, not raised
        for k, row in enumerate(states[1:], 1):
            rhs(state, k1)
            rhs(add(state, mul(half, k1, stage), stage), k2)
            rhs(add(state, mul(half, k2, stage), stage), k3)
            rhs(add(state, mul(full, k3, stage), stage), k4)
            # state + (step/6) * (((k1 + 2*k2) + 2*k3) + k4), written into the next row
            add(k1, mul(two, k2, total), total)
            add(total, mul(two, k3, stage), total)
            add(total, k4, total)
            add(state, mul(sixth, total, total), row)
            state = row
            if k % _BLOCK == 0 or k == nsteps:
                finite = np.isfinite(states[checked + 1 : k + 1]).all(axis=1)
                if not finite.all():  # end the run before the first row that is not finite
                    k = checked + int(finite.argmin())
                    break
                checked = k
    return Trajectory(np.arange(k + 1) * step, states[: k + 1], k < nsteps)


def first_integral_drift(f: RPoly, traj: Trajectory) -> float:
    """Largest deviation of f along the trajectory from its initial value."""
    import numpy as np

    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    values = float_evaluator([f])(traj.states)[:, 0]
    return float(np.max(np.abs(values - values[0])))


def residual_sample(p, count: int, seed: int, box: float = 1.0) -> float:
    """Max |p| over `count` seeded points uniform in [-box, box] per coordinate.

    CPoly inputs draw two uniforms per variable (real then imaginary part,
    variable-major); RPoly inputs draw one per variable.
    """
    import numpy as np

    if count < 1:
        raise ValueError("count must be at least 1")
    if isinstance(p, CPoly):
        points = sample_points(2 * p.nvars, count, seed, box).view(complex)
    elif isinstance(p, RPoly):
        points = sample_points(p.nvars, count, seed, box)
    else:
        raise TypeError("residual_sample expects a CPoly or RPoly")
    return float(np.max(np.abs(float_evaluator([p])(points))))


def sample_points(nvars: int, count: int, seed: int, box: float = 1.0) -> np.ndarray:
    """The (count, nvars) real sample grid used by residual_sample, point-major.

    Draw k (from 1) of `SplitMix64(seed)` mixes the state seed + k * gamma
    mod 2^64, so every draw is taken in one uint64 array pass: the same
    integers, the same top-53-bit doubles and the same box scaling as
    `next_symmetric`, draw by draw.
    """
    import numpy as np

    u64 = np.uint64
    z = np.arange(1, count * nvars + 1, dtype=u64) * u64(_GAMMA) + u64(seed & _MASK)
    z = (z ^ (z >> u64(30))) * u64(_MIX1)
    z = (z ^ (z >> u64(27))) * u64(_MIX2)
    units = ((z ^ (z >> u64(31))) >> u64(11)).astype(float) * (2.0 ** -53)
    return (box * (2.0 * units - 1.0)).reshape(count, nvars)
