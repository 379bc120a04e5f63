"""Byte-level differential tests of the buffered float layer.

`numcheck.integrate` runs its RK4 stages in arrays allocated once per call,
through the `out=` form of `poly.float_evaluator`, and `numcheck.sample_points`
takes all of its SplitMix64 draws in one uint64 array pass.  Both must give
exactly the floats of the code they replaced, which is kept below as the
reference: the allocating evaluator (`np.prod` of `**` then `@`), the
expression-per-stage RK4 loop and the scalar generator, one call per draw.
Every comparison is of bytes, not of values within a tolerance.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from holomult.calculus import RealVectorField
from holomult.manifest import parse_field
from holomult.numcheck import SplitMix64, integrate, sample_points
from holomult.poly import CPoly, RPoly, _pack, _unpack, float_evaluator
from holomult.realify import realify_field
from holomult.scalars import GaussianRational

# -- the references ----------------------------------------------------------------


def ref_evaluator(polys):
    """The allocating evaluator: one new array per numpy call.

    It orders exponent tuples by their graded-lex key and reads each
    numerator at the tuple's packed key through the kernel's `_pack`.
    """
    first = polys[0]
    nvars, kind = first.nvars, first._float
    monos = sorted({_unpack(m, nvars) for p in polys for m in p._keys()},
                   key=lambda mono: (sum(mono), mono), reverse=True)
    exps = np.array(monos, dtype=np.int64).reshape(len(monos), nvars)
    keys = [_pack(m) for m in monos]
    if kind is complex:
        rows = [[complex(p._re.get(m, 0) / p._den, p._im.get(m, 0) / p._den) for p in polys]
                for m in keys]
    else:
        rows = [[p._re.get(m, 0) / p._den for p in polys] for m in keys]
    coeffs = np.array(rows, dtype=kind).reshape(len(monos), len(polys))

    def evaluate(points):
        points = np.asarray(points, dtype=kind)
        return np.prod(points[..., None, :] ** exps, axis=-1) @ coeffs

    return evaluate


def ref_integrate(field, x0, t_end, step):
    """The RK4 loop with one expression per stage; returns (times, states, truncated)."""
    rhs = ref_evaluator(field.components)
    nsteps = int(round(t_end / step))
    states = np.empty((nsteps + 1, field.n))
    states[0] = state = np.asarray(x0, dtype=float)
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while k < nsteps:
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * step * k1)
            k3 = rhs(state + 0.5 * step * k2)
            k4 = rhs(state + step * k3)
            state = state + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(state)):
                break
            k += 1
            states[k] = state
    return np.arange(k + 1) * step, states[: k + 1], k < nsteps


def ref_draws(nvars, count, seed, box):
    rng = SplitMix64(seed)
    return np.array([rng.next_symmetric(box) for _ in range(count * nvars)],
                    dtype=float).reshape(count, nvars)


# -- random inputs ------------------------------------------------------------------


def random_rpoly(rng, nvars, max_degree, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 7]))
    return RPoly(nvars, terms)


def random_field(rng, n, max_degree):
    return RealVectorField(n, [random_rpoly(rng, n, max_degree) for _ in range(n)])


def same_run(field, x0, t_end, step):
    traj = integrate(field, x0, t_end, step)
    times, states, truncated = ref_integrate(field, x0, t_end, step)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.times.tobytes() == times.tobytes()
    assert traj.truncated is truncated
    return traj


# -- integrate -----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integrate_matches_the_reference_loop_on_random_fields(n):
    rng = random.Random(2200 + n)
    truncated = 0
    for degree in range(5):
        for _ in range(6):
            field = random_field(rng, n, degree)
            x0 = [rng.uniform(-1.5, 1.5) for _ in range(n)]
            truncated += same_run(field, x0, t_end=0.6, step=0.02).truncated
    assert truncated < 30  # most runs stay finite, so the states are compared


@pytest.mark.parametrize("start", [1.0, 4.0, 50.0])
def test_blow_up_runs_match_the_reference_loop(start):
    x, y = RPoly.var(2, 1), RPoly.var(2, 2)
    for field in (RealVectorField(2, [x * x * x, y]), RealVectorField(2, [x * y * y, x ** 4 - y])):
        traj = same_run(field, [start, 0.5], t_end=5.0, step=0.05)
        assert traj.truncated


def test_blow_up_to_nan_matches_the_reference_loop():
    # inf - inf in the slope sum turns the state into nan, not inf
    x, y = RPoly.var(2, 1), RPoly.var(2, 2)
    traj = same_run(RealVectorField(2, [x ** 3 - y ** 3, y ** 3 - x ** 3]), [3.0, -3.0], 4.0, 0.1)
    assert traj.truncated


def test_one_coordinate_leaving_the_finite_floats_ends_the_run():
    # x grows by 1e307 per step and overflows alone; y stays finite
    y = RPoly.var(2, 2)
    traj = same_run(RealVectorField(2, [RPoly.const(2, 10**307), y]), [0.0, 0.5], 40.0, 1.0)
    assert traj.truncated
    assert len(traj.times) < 41


@pytest.mark.parametrize("t_end, step, steps", [(0.004, 0.01, 0), (0.01, 0.01, 1), (0.012, 0.01, 1)])
def test_zero_and_one_step_match_the_reference_loop(t_end, step, steps):
    field = random_field(random.Random(7), 3, 2)
    traj = same_run(field, [0.25, -0.5, 0.75], t_end, step)
    assert len(traj.times) == steps + 1


def test_zero_field_and_constant_field_match_the_reference_loop():
    same_run(RealVectorField(3, [RPoly.zero(3)] * 3), [1.0, 2.0, 3.0], 0.3, 0.1)
    same_run(RealVectorField(2, [RPoly.const(2, Fraction(1, 3)), RPoly.zero(2)]), [0.0, 0.0], 0.3, 0.1)


@pytest.mark.parametrize("field_text, dim, x0, t_end, step", [
    ("i*z1; -z2 + (z1)^2", 2, [0.5, -0.25, 0.125, 1.0], 0.2, 0.01),
    ("z1*z2; -z2", 2, None, 0.1, 0.005),
])
def test_the_pinned_integrate_fields_match_the_reference_loop(field_text, dim, x0, t_end, step):
    field_re, _ = realify_field(parse_field(field_text, dim))
    if x0 is None:  # the CLI's seeded start
        rng = SplitMix64(7)
        x0 = [rng.next_symmetric(1.0) for _ in range(2 * dim)]
    same_run(field_re, x0, t_end, step)


def test_integrate_leaves_its_start_untouched():
    field = random_field(random.Random(3), 2, 2)
    x0 = np.array([0.5, -0.5])
    same_run(field, x0, 0.2, 0.01)
    assert x0.tolist() == [0.5, -0.5]


# -- the evaluator's out= form ------------------------------------------------------------


def random_poly(rng, ring, nvars, max_exp):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        re = Fraction(rng.randint(-9, 9), rng.choice([1, 3, 8]))
        terms[mono] = GaussianRational(re, rng.randint(-3, 3)) if ring is CPoly else re
    return ring(nvars, terms)


@pytest.mark.parametrize("ring", [RPoly, CPoly])
def test_out_form_gives_the_reference_bytes(ring):
    rng = random.Random(41 if ring is RPoly else 42)
    kind = ring._float
    for nvars in range(1, 9):
        for _ in range(8):
            polys = [random_poly(rng, ring, nvars, 7) for _ in range(rng.randint(1, nvars))]
            run, ref = float_evaluator(polys), ref_evaluator(polys)
            out = np.empty(len(polys), dtype=kind)
            for _ in range(20):
                point = np.array([rng.uniform(-1.6, 1.6) for _ in range(nvars)])
                if ring is CPoly:
                    point = point + 1j * np.array([rng.uniform(-1.6, 1.6) for _ in range(nvars)])
                expected = ref(point).tobytes()
                assert run(point, out=out) is out
                assert out.tobytes() == expected
                assert run(point).tobytes() == expected


def test_out_form_on_a_batch_and_on_zero_polynomials():
    rng = random.Random(5)
    polys = [random_poly(rng, RPoly, 3, 4) for _ in range(2)]
    points = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(7)])
    out = np.empty((7, 2))
    float_evaluator(polys)(points, out=out)
    assert out.tobytes() == ref_evaluator(polys)(points).tobytes()
    zero = np.full(2, np.nan)
    float_evaluator([RPoly.zero(3), RPoly.zero(3)])(points[0], out=zero)
    assert zero.tolist() == [0.0, 0.0]


# -- sample_points ------------------------------------------------------------------------


SEEDS = [0, 1, -5, 2**64 - 1, 12345678901234567890]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("box", [1.0, 2.5])
def test_sample_points_are_the_scalar_draws(seed, box):
    for nvars, count in [(1, 1), (3, 40), (6, 40), (8, 17)]:
        points = sample_points(nvars, count, seed, box)
        assert points.dtype == np.float64
        assert points.tobytes() == ref_draws(nvars, count, seed, box).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_points_without_variables(seed):
    points = sample_points(0, 5, seed)
    assert points.shape == (5, 0)
    assert points.dtype == np.float64
