"""Floating-point cross-validation: trajectory integration and residual sampling.

Everything here is deterministic.  The PRNG is splitmix64 with the usual
constants (increment 0x9E3779B97F4A7C15, mix multipliers 0xBF58476D1CE4E5B9
and 0x94D049BB133111EB, shifts 30/27/31); uniform doubles come from the top
53 bits, so any implementation of the same generator samples identical
points.  `sample_points` takes all of its draws in one uint64 array pass,
which gives the scalar generator's draws exactly.  Float evaluation goes
through `poly.float_evaluator`; RK4 runs its stages in arrays allocated once
per call, through the evaluator's `out=` form, with the same numpy
operations in the same order as the plain stage expressions, so each state
is the same float.

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
    rhs = float_evaluator(field.components)
    nsteps = int(round(ratio))
    n = field.n
    states = np.empty((nsteps + 1, n))
    states[0] = state = x0
    # the four slopes, a stage point and the slope sum, reused by every step;
    # each stage is the expression state + (0.5*step)*k1 etc. operation for
    # operation, so the states are the floats the plain expressions give
    k1, k2, k3, k4, stage, total = np.empty((6, n))
    finite = np.empty(n, dtype=bool)
    half, sixth = 0.5 * step, step / 6.0
    add, mul = np.add, np.multiply
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected, not raised
        while k < nsteps:
            rhs(state, out=k1)
            rhs(add(state, mul(half, k1, out=stage), out=stage), out=k2)
            rhs(add(state, mul(half, k2, out=stage), out=stage), out=k3)
            rhs(add(state, mul(step, k3, out=stage), out=stage), out=k4)
            # state + (step/6) * (((k1 + 2*k2) + 2*k3) + k4), written into the next row
            add(k1, mul(2.0, k2, out=total), out=total)
            add(total, mul(2.0, k3, out=stage), out=total)
            add(total, k4, out=total)
            row = states[k + 1]
            add(state, mul(sixth, total, out=total), out=row)
            if not np.isfinite(row, out=finite).all():
                break  # the row is left out of the trajectory below
            k += 1
            state = row
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
