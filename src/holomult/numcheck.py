"""Floating-point cross-validation: trajectory integration and residual sampling.

Everything here is deterministic.  The PRNG is splitmix64 with the usual
constants (increment 0x9E3779B97F4A7C15, mix multipliers 0xBF58476D1CE4E5B9
and 0x94D049BB133111EB, shifts 30/27/31); uniform doubles come from the top
53 bits, so any implementation of the same generator samples identical
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .poly import CPoly, RPoly
from .realify import RealVectorField

_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit PRNG used for all sampling."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
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
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)


def _compile_rpoly(p: RPoly):
    if not p.terms:
        coeffs = np.zeros(1)
        exps = np.zeros((1, p.nvars), dtype=np.int64)
    else:
        items = p.sorted_terms()
        coeffs = np.array([float(c) for _, c in items])
        exps = np.array([m for m, _ in items], dtype=np.int64)

    def evaluate(state: np.ndarray) -> float:
        return float(coeffs @ np.prod(state ** exps, axis=1))

    return evaluate


def compile_field(field: RealVectorField):
    """Turn exact components into a fast float right-hand side."""
    comps = [_compile_rpoly(c) for c in field.components]

    def rhs(state: np.ndarray) -> np.ndarray:
        return np.array([f(state) for f in comps])

    return rhs


def integrate(field: RealVectorField, x0: Sequence[float], t_end: float, step: float) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta.

    Stops early (flagging the trajectory truncated) if the state leaves the
    finite floats.
    """
    for name, value in (("step", step), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if step <= 0 or t_end <= 0:
        raise ValueError("step and t_end must be positive")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.n,):
        raise ValueError(f"initial state must have {field.n} coordinates")
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite")
    rhs = compile_field(field)
    nsteps = int(round(t_end / step))
    times = [0.0]
    states = [x0]
    state = x0
    truncated = False
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected, not raised
        for k in range(1, nsteps + 1):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * step * k1)
            k3 = rhs(state + 0.5 * step * k2)
            k4 = rhs(state + step * k3)
            state = state + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(state)):
                truncated = True
                break
            times.append(k * step)
            states.append(state)
    return Trajectory(np.array(times), np.vstack(states), truncated)


def first_integral_drift(f: RPoly, traj: Trajectory) -> float:
    """Largest deviation of f along the trajectory from its initial value."""
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    fn = _compile_rpoly(f)
    f0 = fn(traj.states[0])
    return max(abs(fn(s) - f0) for s in traj.states)


def residual_sample(p, count: int, seed: int, box: float = 1.0) -> float:
    """Max |p| over `count` seeded points uniform in [-box, box] per coordinate.

    CPoly inputs draw two uniforms per variable (real then imaginary part,
    variable-major); RPoly inputs draw one per variable.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    worst = 0.0
    if isinstance(p, CPoly):
        rng = SplitMix64(seed)
        for _ in range(count):
            point = [
                complex(rng.next_symmetric(box), rng.next_symmetric(box))
                for _ in range(p.nvars)
            ]
            worst = max(worst, abs(p.evaluate(point)))
        return worst
    if isinstance(p, RPoly):
        fn = _compile_rpoly(p)
        for point in sample_points(p.nvars, count, seed, box):
            worst = max(worst, abs(fn(point)))
        return worst
    raise TypeError("residual_sample expects a CPoly or RPoly")


def sample_points(nvars: int, count: int, seed: int, box: float = 1.0) -> List[np.ndarray]:
    """The real sample grid used by residual_sample for RPoly inputs."""
    rng = SplitMix64(seed)
    return [
        np.array([rng.next_symmetric(box) for _ in range(nvars)]) for _ in range(count)
    ]
