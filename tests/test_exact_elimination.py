"""Differential tests of the shared Gauss-Jordan kernel and the wedge frame volume.

`solve_linear`, `invert_matrix`, `determinant` and the realified metric
inverses all run through one elimination routine in `linsolve`, and
`frame_volume` is the flat of a wedge of the frame.  Each is compared here
with an independent answer: sympy for determinants and inverses, and the
code they replaced -- the standalone `solve_linear` elimination loop and the
Laplace cofactor expansion of the frame determinant -- kept below as
references.
"""

from fractions import Fraction
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from holomult.calculus import RealVectorField, VectorField, VolumeForm
from holomult.linsolve import LinearSolution, determinant, invert_matrix, solve_linear
from holomult.metric import HoloMetric
from holomult.multipliers import frame_volume
from holomult.poly import CPoly, RPoly
from holomult.realify import RealMetric, realify_metric
from holomult.scalars import GaussianRational

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

small = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
# zero half the time, so rank-deficient systems and free columns are common
sparse = st.one_of(st.just(Fraction(0)), small)
gaussians = st.builds(GaussianRational, sparse, sparse)


# -- the references ------------------------------------------------------------


def reference_solve_linear(matrix, rhs) -> LinearSolution:
    """The standalone elimination loop `solve_linear` used before the shared kernel."""
    a = [[GaussianRational.coerce(x) for x in row] for row in matrix]
    b = [GaussianRational.coerce(x) for x in rhs]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    zero = GaussianRational(0)
    one = GaussianRational(1)
    pivot_cols: List[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for rr in range(r, nrows):
            if a[rr][c]:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        b[r], b[pivot_row] = b[pivot_row], b[r]
        inv = one / a[r][c]
        a[r] = [x * inv for x in a[r]]
        b[r] = b[r] * inv
        for rr in range(nrows):
            if rr != r and a[rr][c]:
                factor = a[rr][c]
                a[rr] = [x - factor * y for x, y in zip(a[rr], a[r])]
                b[rr] = b[rr] - factor * b[r]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    rank = len(pivot_cols)
    for rr in range(rank, nrows):
        if b[rr]:
            return LinearSolution(status="inconsistent", rank=rank)
    particular = [zero] * ncols
    for i, c in enumerate(pivot_cols):
        particular[c] = b[i]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    nullspace = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for i, c in enumerate(pivot_cols):
            vec[c] = -a[i][fc]
        nullspace.append(vec)
    status = "unique" if not free_cols else "family"
    return LinearSolution(status=status, particular=particular, nullspace=nullspace, rank=rank)


def laplace_determinant(rows):
    """Cofactor expansion along the first row, in the ring of the entries."""
    if len(rows) == 1:
        return rows[0][0]
    first = rows[0][0]
    out = type(first).zero(first.nvars)
    for j in range(len(rows)):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        cof = rows[0][j] * laplace_determinant(minor)
        out = out + cof if j % 2 == 0 else out - cof
    return out


def to_sympy(x: GaussianRational):
    return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
        x.im.numerator, x.im.denominator
    )


def sympy_matrix(rows):
    return sympy.Matrix([[to_sympy(x) for x in row] for row in rows])


def is_zero_sympy(expr) -> bool:
    return sympy.expand(expr) == 0


# -- strategies ----------------------------------------------------------------


@st.composite
def square_matrices(draw):
    """A square Q(i) matrix of size 1-5; about a third are forced singular."""
    n = draw(st.integers(1, 5))
    rows = [[draw(gaussians) for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 2)) == 0:
        # overwrite one row with a combination of the others (zero when n == 1)
        target = draw(st.integers(0, n - 1))
        combo = [GaussianRational(0)] * n
        for r in range(n):
            if r != target:
                c = draw(gaussians)
                combo = [x + c * y for x, y in zip(combo, rows[r])]
        rows[target] = combo
    return rows


@st.composite
def systems(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 5))
    matrix = [[draw(gaussians) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [draw(gaussians) for _ in range(nrows)]
    return matrix, rhs


@st.composite
def polys(draw, ring, nvars):
    monos = st.tuples(*[st.integers(0, 2)] * nvars)
    terms = draw(st.dictionaries(monos, small, max_size=3))
    if ring is CPoly:
        terms = {m: GaussianRational(c, draw(small)) for m, c in terms.items()}
    return ring(nvars, terms)


@st.composite
def frames(draw):
    ring = draw(st.sampled_from([CPoly, RPoly]))
    n = draw(st.integers(1, 4))
    field = VectorField if ring is CPoly else RealVectorField
    frame = [field(n, [draw(polys(ring, n)) for _ in range(n)]) for _ in range(n)]
    if ring is CPoly:
        weight = GaussianRational(draw(small.filter(bool)), draw(small))
    else:
        weight = GaussianRational(draw(small.filter(bool)))
    return frame, VolumeForm(n, weight)


# -- the kernel against sympy and the old loop ----------------------------------


@SETTINGS
@given(square_matrices())
def test_determinant_matches_sympy(rows):
    assert is_zero_sympy(to_sympy(determinant(rows)) - sympy_matrix(rows).det())


@SETTINGS
@given(square_matrices())
def test_invert_matrix_matches_sympy(rows):
    m = sympy_matrix(rows)
    if is_zero_sympy(m.det()):
        with pytest.raises(ValueError, match="singular"):
            invert_matrix(rows)
        return
    inv = invert_matrix(rows)
    expected = m.inv()
    n = len(rows)
    for i in range(n):
        for j in range(n):
            assert is_zero_sympy(to_sympy(inv[i][j]) - expected[i, j])


@SETTINGS
@given(systems())
def test_solve_linear_matches_the_old_loop(system):
    matrix, rhs = system
    got = solve_linear(matrix, rhs)
    want = reference_solve_linear(matrix, rhs)
    assert (got.status, got.rank) == (want.status, want.rank)
    assert got.particular == want.particular
    assert got.nullspace == want.nullspace


def test_forced_singular_determinants_are_zero():
    i = GaussianRational(0, 1)
    assert determinant([[0]]) == GaussianRational(0)
    assert determinant([[1, i, 2], [2, 2 * i, 4], [0, 1, 1]]) == GaussianRational(0)
    assert determinant([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == GaussianRational(1)
    assert determinant([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == GaussianRational(-1)


# -- frame volumes --------------------------------------------------------------


@SETTINGS
@given(frames())
def test_frame_volume_is_the_laplace_determinant(data):
    frame, omega = data
    expected = laplace_determinant([f.components for f in frame]).scale(omega.weight)
    got = frame_volume(frame, omega)
    assert type(got) is type(expected)
    assert got == expected


def test_frame_volume_rejects_a_short_frame():
    with pytest.raises(ValueError, match="frame size"):
        frame_volume([VectorField.coordinate(2, 1)], VolumeForm(2))


# -- realified metric inverses stay in Q ----------------------------------------


def assert_rational_inverse(m, minv):
    size = len(m)
    assert all(type(x) is Fraction for row in minv for x in row)
    for i in range(size):
        for j in range(size):
            entry = sum((m[i][k] * minv[k][j] for k in range(size)), Fraction(0))
            assert entry == (1 if i == j else 0)


@SETTINGS
@given(square_matrices())
def test_real_metric_inverses_are_rational(s):
    # g = S^T S is symmetric with the square determinant det(S)^2
    n = len(s)
    if not determinant(s):
        return
    g = [[sum((s[k][i] * s[k][j] for k in range(n)), GaussianRational(0)) for j in range(n)]
         for i in range(n)]
    real = realify_metric(HoloMetric(g))
    assert_rational_inverse(real.h, real.hinv)
    assert_rational_inverse(real.k, real.kinv)


def test_real_metric_from_integer_blocks():
    h = [[2, 0], [0, -2]]
    k = [[0, -2], [-2, 0]]
    real = RealMetric(1, h, k)
    assert_rational_inverse(h, real.hinv)
    assert_rational_inverse(k, real.kinv)
    assert real.hinv == [[Fraction(1, 2), 0], [0, Fraction(-1, 2)]]
