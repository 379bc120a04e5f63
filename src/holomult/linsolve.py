"""Exact linear algebra over the Gaussian rationals.

One Gauss-Jordan kernel, `_gauss_jordan`, is the only row reduction in the
package.  It works over any exact field given that field's unit, so the
realified metrics invert their `Fraction` blocks with it over Q as well.
`solve_linear` reduces [A | b], `invert_matrix` reduces [A | I], and
`determinant` reads the signed product of the pivots.  No pivoting
heuristics are needed for correctness, so pivots are chosen
deterministically: the first nonzero entry scanning down each column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .scalars import GaussianRational


@dataclass
class LinearSolution:
    """Outcome of solving A*m = b over Q(i).

    status is one of "unique", "family", "inconsistent".  For solvable
    systems, `particular` has the free variables set to zero (the minimal
    support representative) and `nullspace` is a basis for the homogeneous
    solutions, one vector per free column in column order.
    """

    status: str
    particular: Optional[List[GaussianRational]] = None
    nullspace: List[List[GaussianRational]] = field(default_factory=list)
    rank: int = 0

    @property
    def is_unique(self) -> bool:
        return self.status == "unique"

    @property
    def is_consistent(self) -> bool:
        return self.status != "inconsistent"


def _coerce_matrix(rows):
    return [[GaussianRational.coerce(x) for x in row] for row in rows]


def _gauss_jordan(rows, ncols: int, one):
    """Reduce `rows` in place to reduced row echelon form on their first `ncols` columns.

    Each pivot row is scaled so its pivot is `one`, and the pivot column is
    cleared above and below; entries past `ncols` (a right-hand side, an identity block) ride along.
    Returns the pivot columns and the product of the pivots, negated once per
    row swap: the determinant when the rows are square and every column has
    a pivot.
    """
    nrows = len(rows)
    pivot_cols: List[int] = []
    det = one
    for c in range(ncols):
        r = len(pivot_cols)
        if r == nrows:
            break
        pivot_row = next((rr for rr in range(r, nrows) if rows[rr][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            det = -det
        pivot = rows[r][c]
        det = det * pivot
        inv = one / pivot
        rows[r] = [x * inv for x in rows[r]]
        for rr in range(nrows):
            if rr != r and rows[rr][c]:
                factor = rows[rr][c]
                rows[rr] = [x - factor * y for x, y in zip(rows[rr], rows[r])]
        pivot_cols.append(c)
    return pivot_cols, det


def _square_size(a) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    return n


def solve_linear(matrix, rhs) -> LinearSolution:
    """Solve A*m = b exactly; report uniqueness, a parametrized family, or inconsistency."""
    a = _coerce_matrix(matrix)
    b = [GaussianRational.coerce(x) for x in rhs]
    nrows = len(a)
    if len(b) != nrows:
        raise ValueError(f"rhs length {len(b)} != row count {nrows}")
    ncols = len(a[0]) if nrows else 0
    for row, x in zip(a, b):
        if len(row) != ncols:
            raise ValueError("matrix rows have unequal lengths")
        row.append(x)

    zero = GaussianRational(0)
    one = GaussianRational(1)
    pivot_cols, _ = _gauss_jordan(a, ncols, one)

    rank = len(pivot_cols)
    if any(row[ncols] for row in a[rank:]):
        return LinearSolution(status="inconsistent", rank=rank)

    particular = [zero] * ncols
    for i, c in enumerate(pivot_cols):
        particular[c] = a[i][ncols]

    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    nullspace: List[List[GaussianRational]] = []
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for i, c in enumerate(pivot_cols):
            vec[c] = -a[i][fc]
        nullspace.append(vec)

    status = "unique" if not free_cols else "family"
    return LinearSolution(status=status, particular=particular, nullspace=nullspace, rank=rank)


def matrix_mult(a, b):
    a = _coerce_matrix(a)
    b = _coerce_matrix(b)
    zero = GaussianRational(0)
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _inverse(a, one):
    """Exact inverse of a square matrix over the field with unit `one`; raises if singular."""
    n = _square_size(a)
    zero = one - one
    aug = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    pivot_cols, _ = _gauss_jordan(aug, n, one)
    if len(pivot_cols) < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in aug]


def invert_matrix(matrix) -> List[List[GaussianRational]]:
    """Exact inverse of a square Gaussian-rational matrix; raises if singular."""
    return _inverse(_coerce_matrix(matrix), GaussianRational(1))


def determinant(matrix) -> GaussianRational:
    """Exact determinant: the signed pivot product of the shared elimination."""
    a = _coerce_matrix(matrix)
    n = _square_size(a)
    pivot_cols, det = _gauss_jordan(a, n, GaussianRational(1))
    return det if len(pivot_cols) == n else GaussianRational(0)
