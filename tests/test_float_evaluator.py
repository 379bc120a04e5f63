"""Differential tests of the compiled float evaluator, and the float layer's input checks.

`poly.float_evaluator` compiles polynomials to one exponent matrix and one
coefficient matrix; `evaluate`, RK4, drift and residual sampling all run
through it.  Its values are compared with the exact evaluator and with the
naive per-term float loop below, which is the evaluator it replaced.  The
compiled kernel sums in another order, so float comparisons use a relative
tolerance of 1e-12 of the sum of the terms' absolute values.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holomult.numcheck
from holomult.calculus import VectorField
from holomult.cli import main
from holomult.numcheck import (
    MAX_STEPS,
    SplitMix64,
    Trajectory,
    first_integral_drift,
    integrate,
    residual_sample,
)
from holomult.poly import CPoly, RPoly, float_evaluator
from holomult.realify import RealVectorField
from holomult.scalars import GaussianRational

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
TOL = 1e-12

small = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


@st.composite
def systems(draw, max_polys=3, max_terms=5):
    """A ring, a variable count and 1..max_polys polynomials of that ring."""
    ring = draw(st.sampled_from([CPoly, RPoly]))
    nvars = draw(st.integers(1, 4))
    monos = st.tuples(*[st.integers(0, 3)] * nvars)
    coeff = st.builds(GaussianRational, small, small) if ring is CPoly else small
    polys = [ring(nvars, draw(st.dictionaries(monos, coeff, max_size=max_terms)))
             for _ in range(draw(st.integers(1, max_polys)))]
    return ring, nvars, polys


def exact_points(ring, nvars, count):
    re = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4]))
    im = re if ring is CPoly else st.just(Fraction(0))
    point = st.lists(st.builds(GaussianRational, re, im), min_size=nvars, max_size=nvars)
    return st.lists(point, min_size=1, max_size=count)


# -- the naive reference -------------------------------------------------------


def naive_eval(p, point, size=False):
    """The old per-term loop; with size=True, the sum of the terms' absolute values."""
    kind = complex if isinstance(p, CPoly) else float
    point = [kind(v) for v in point]
    total = 0.0 if size else kind(0)
    for mono, coeff in p.sorted_terms():
        term = kind(coeff)
        for value, e in zip(point, mono):
            if e:
                term *= value ** e
        total += abs(term) if size else term
    return total


def close(fast, slow, scale):
    return abs(fast - slow) <= TOL * (1.0 + scale)


def naive_draws(ring, nvars, count, seed, box):
    rng = SplitMix64(seed)
    if ring is CPoly:
        return [[complex(rng.next_symmetric(box), rng.next_symmetric(box)) for _ in range(nvars)]
                for _ in range(count)]
    return [[rng.next_symmetric(box) for _ in range(nvars)] for _ in range(count)]


# -- the compiled values ---------------------------------------------------------


@SETTINGS
@given(st.data())
def test_compiled_values_match_exact_and_naive(data):
    ring, nvars, polys = data.draw(systems())
    points = data.draw(exact_points(ring, nvars, 4))
    kind = complex if ring is CPoly else float
    floats = [[complex(v) if ring is CPoly else float(v.re) for v in pt] for pt in points]
    values = float_evaluator(polys)(floats)
    assert values.shape == (len(points), len(polys))
    assert values.dtype == (np.complex128 if ring is CPoly else np.float64)
    for k, (pt, fpt) in enumerate(zip(points, floats)):
        for j, p in enumerate(polys):
            exact = complex(CPoly(nvars, p.terms).evaluate_exact(pt))
            scale = naive_eval(p, fpt, size=True)
            assert close(values[k, j], exact, scale)
            assert close(values[k, j], naive_eval(p, fpt), scale)
            one = p.evaluate(fpt)
            assert type(one) is kind
            assert close(one, exact, scale)


@SETTINGS
@given(systems(max_polys=1), st.integers(1, 30), st.integers(0, 2**64 - 1),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_residual_sample_matches_a_naive_loop(system, count, seed, box):
    ring, nvars, (p,) = system
    slow = max(abs(naive_eval(p, pt)) for pt in naive_draws(ring, nvars, count, seed, box))
    assert math.isclose(residual_sample(p, count, seed, box), slow, rel_tol=TOL)


@SETTINGS
@given(systems(max_polys=1), st.integers(1, 30), st.integers(0, 2**64 - 1))
def test_first_integral_drift_matches_a_naive_loop(system, length, seed):
    _, nvars, (p,) = system
    f = RPoly(nvars, {m: c.re if isinstance(c, GaussianRational) else c for m, c in p.terms.items()})
    states = naive_draws(RPoly, nvars, length, seed, 1.5)
    traj = Trajectory(np.arange(length, dtype=float), states)
    f0 = naive_eval(f, states[0])
    slow = max(abs(naive_eval(f, s) - f0) for s in states)
    scale = max(naive_eval(f, s, size=True) for s in states)
    assert close(first_integral_drift(f, traj), slow, scale)


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_sample_points_are_direct_splitmix64_draws(ring, monkeypatch):
    seen = []
    compiled = holomult.numcheck.float_evaluator

    def spy(polys):
        run = compiled(polys)
        return lambda points: seen.append(points) or run(points)

    monkeypatch.setattr(holomult.numcheck, "float_evaluator", spy)
    p = ring.var(3, 2)
    residual_sample(p, 25, seed=401, box=2.0)
    (points,) = seen
    assert points.tolist() == naive_draws(ring, 3, 25, 401, 2.0)


def test_integrate_matches_a_naive_rk4():
    n = 4
    x1, x2, y1, y2 = (RPoly.var(n, k) for k in range(1, n + 1))
    field = RealVectorField(n, [x2 * y1 - 1, x1 * x1 - y2, Fraction(1, 3) * y1 * y2, -x1 + x2 * x2 * y1])
    state = np.array([0.3, -0.2, 0.1, 0.4])
    traj = integrate(field, state, t_end=0.5, step=0.01)

    def rhs(s):
        return np.array([naive_eval(c, s) for c in field.components])

    for expected in traj.states[1:]:
        k1 = rhs(state)
        k2 = rhs(state + 0.005 * k1)
        k3 = rhs(state + 0.005 * k2)
        k4 = rhs(state + 0.01 * k3)
        state = state + (0.01 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.allclose(expected, state, rtol=TOL, atol=TOL)


# -- dimensions and rings --------------------------------------------------------


@pytest.mark.parametrize("nvars", [1, 3])
def test_drift_rejects_a_trajectory_of_another_dimension(nvars):
    field = RealVectorField(2, [RPoly.const(2, 1), RPoly.zero(2)])
    traj = integrate(field, [0.0, 0.0], t_end=1.0, step=0.1)
    with pytest.raises(ValueError, match=f"point length 2 != nvars {nvars}"):
        first_integral_drift(RPoly.var(nvars, 1), traj)


def test_evaluator_rejects_points_of_another_length():
    run = float_evaluator([CPoly.var(2, 1), CPoly.var(2, 2)])
    with pytest.raises(ValueError, match="point length 3 != nvars 2"):
        run(np.zeros((5, 3)))
    with pytest.raises(ValueError, match="point length 1 != nvars 2"):
        CPoly.var(2, 1).evaluate([1.0])


def test_evaluator_needs_one_ring_and_size():
    with pytest.raises(TypeError):
        float_evaluator([CPoly.var(2, 1), RPoly.var(2, 1)])
    with pytest.raises(ValueError):
        float_evaluator([CPoly.var(2, 1), CPoly.var(3, 1)])
    with pytest.raises(ValueError):
        float_evaluator([])


def test_integrate_rejects_a_complex_field():
    z1, z2 = CPoly.var(2, 1), CPoly.var(2, 2)
    with pytest.raises(ValueError, match="RPoly"):
        integrate(VectorField(2, [z2, -z1]), [1.0, 0.0], t_end=1.0, step=0.1)


# -- the RK4 step budget ----------------------------------------------------------


class RunStarted(Exception):
    pass


@pytest.fixture
def no_run(monkeypatch):
    """Make any RK4 run fail at once, so no test can start an oversized one."""

    def refuse(polys):
        raise RunStarted

    monkeypatch.setattr(holomult.numcheck, "float_evaluator", refuse)


@pytest.mark.parametrize("t_end, step", [("1e300", "1e-300"), ("1e12", "1e-6")])
def test_oversized_step_count_exits_two(t_end, step, no_run, capsys):
    code = main(["integrate", "--dim", "1", "--field", "z1", "--t-end", t_end, "--step", step])
    err = capsys.readouterr().err
    assert code == 2
    assert f"exceeds the step budget of {MAX_STEPS}" in err
    assert "Traceback" not in err


def test_step_budget_boundary(no_run):
    field = RealVectorField(1, [RPoly.var(1, 1)])
    with pytest.raises(ValueError, match="step budget"):
        integrate(field, [1.0], t_end=MAX_STEPS + 1.0, step=1.0)
    with pytest.raises(RunStarted):  # exactly MAX_STEPS steps are allowed
        integrate(field, [1.0], t_end=float(MAX_STEPS), step=1.0)
