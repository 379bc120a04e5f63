"""Small exact polynomial arithmetic over Q(i), independent of holomult.

The benchmark builds its inputs and their expected answers with this module
only, so a defect in holomult cannot leak into what the benchmark expects.
A polynomial is a dict {exponent tuple: (re, im)} with Fraction parts and no
zero coefficients.  Speed is irrelevant here: everything runs once per run,
before measurement starts.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def q(re, im=0):
    return (Fraction(re), Fraction(im))


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cdiv(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def nonzero(c):
    return c[0] != 0 or c[1] != 0


# -- polynomials ------------------------------------------------------------


def const(n, c):
    return {(0,) * n: c} if nonzero(c) else {}


def var(n, k, c=ONE):
    """c * z_k (k is 1-based)."""
    mono = [0] * n
    mono[k - 1] = 1
    return {tuple(mono): c}


def padd(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            acc = cadd(out.get(m, ZERO), c)
            if nonzero(acc):
                out[m] = acc
            else:
                out.pop(m, None)
    return out


def pscale(p, c):
    if not nonzero(c):
        return {}
    return {m: cmul(v, c) for m, v in p.items()}


def pmul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            acc = cadd(out.get(m, ZERO), cmul(c1, c2))
            if nonzero(acc):
                out[m] = acc
            else:
                out.pop(m, None)
    return out


def ppow(p, e, n):
    out = const(n, ONE)
    for _ in range(e):
        out = pmul(out, p)
    return out


def pdiff(p, k):
    """Partial derivative in z_k (1-based)."""
    out = {}
    for m, c in p.items():
        e = m[k - 1]
        if e:
            lowered = m[:k - 1] + (e - 1,) + m[k:]
            out[lowered] = cadd(out.get(lowered, ZERO), cmul(c, q(e)))
    return {m: c for m, c in out.items() if nonzero(c)}


def peval(p, point):
    """Exact value at a point of Gaussian-rational pairs."""
    total = ZERO
    for m, c in p.items():
        term = c
        for x, e in zip(point, m):
            for _ in range(e):
                term = cmul(term, x)
        total = cadd(total, term)
    return total


def linear_form(row):
    """sum_k row[k] * z_{k+1} for a row of Gaussian pairs."""
    n = len(row)
    return padd(*(var(n, k + 1, c) for k, c in enumerate(row) if nonzero(c)))


def realify(p):
    """(Re, Im) of p under z_k = x_k + i*y_k, as real dicts {mono: Fraction}
    over the 2n variables x1..xn, y1..yn."""
    n = len(next(iter(p))) if p else 0
    subs = []
    for k in range(1, n + 1):
        xk = [0] * (2 * n)
        xk[k - 1] = 1
        yk = [0] * (2 * n)
        yk[n + k - 1] = 1
        subs.append({tuple(xk): ONE, tuple(yk): q(0, 1)})
    total = {}
    for m, c in p.items():
        term = {(0,) * (2 * n): c}
        for k, e in enumerate(m):
            for _ in range(e):
                term = pmul(term, subs[k])
        total = padd(total, term)
    re = {m: c[0] for m, c in total.items() if c[0] != 0}
    im = {m: c[1] for m, c in total.items() if c[1] != 0}
    return re, im


def rmul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def radd(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c != 0}


def reval_float(p, point):
    total = 0.0
    for m, c in p.items():
        term = float(c)
        for x, e in zip(point, m):
            if e:
                term *= x ** e
        total += term
    return total


def ceval_float(p, point):
    total = 0j
    for m, c in p.items():
        term = complex(float(c[0]), float(c[1]))
        for x, e in zip(point, m):
            if e:
                term *= x ** e
        total += term
    return total


# -- text in holomult's input grammar -----------------------------------------


def _rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _coeff_text(c):
    """(text of |c|, negative?) for one term's coefficient."""
    re, im = c
    if im == 0:
        return ("" if abs(re) == 1 else _rational(abs(re))), re < 0
    if re == 0:
        mag = abs(im)
        return ("i" if mag == 1 else f"{_rational(mag)}*i"), im < 0
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    imtxt = "i" if mag == 1 else f"{_rational(mag)}*i"
    return f"({_rational(re)} {sign} {imtxt})", False


def fmt(p) -> str:
    """Text parseable by holomult; terms in a fixed (sorted) order."""
    if not p:
        return "0"
    pieces = []
    for m in sorted(p, key=lambda m: (-sum(m), tuple(-e for e in m))):
        ctext, negative = _coeff_text(p[m])
        factors = [f"z{k}" if e == 1 else f"z{k}^{e}" for k, e in enumerate(m, start=1) if e]
        if not factors:
            body = ctext or "1"
        elif not ctext:
            body = "*".join(factors)
        else:
            body = "*".join([ctext] + factors)
        pieces.append((negative, body))
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


# -- exact linear algebra ------------------------------------------------------


def rref_solve(matrix, rhs):
    """Gauss-Jordan over Q(i) with first-nonzero pivots, free variables zero.

    Returns the particular solution, or None when the system is inconsistent.
    The pivot columns (hence the particular solution) do not depend on the
    row order, so any basis of the row space gives the same answer.
    """
    a = [list(row) for row in matrix]
    b = list(rhs)
    nrows, ncols = len(a), len(a[0]) if a else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, nrows) if nonzero(a[i][col])), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        b[r], b[pr] = b[pr], b[r]
        inv = cdiv(ONE, a[r][col])
        a[r] = [cmul(x, inv) for x in a[r]]
        b[r] = cmul(b[r], inv)
        for i in range(nrows):
            if i != r and nonzero(a[i][col]):
                f = a[i][col]
                a[i] = [csub(x, cmul(f, y)) for x, y in zip(a[i], a[r])]
                b[i] = csub(b[i], cmul(f, b[r]))
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    if any(nonzero(b[i]) for i in range(r, nrows)):
        return None
    solution = [ZERO] * ncols
    for i, col in enumerate(pivots):
        solution[col] = b[i]
    return solution


def invert(matrix):
    n = len(matrix)
    cols = []
    for j in range(n):
        e = [ONE if i == j else ZERO for i in range(n)]
        cols.append(rref_solve(matrix, e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def parse_gaussian(text: str):
    """Parse holomult's printed Gaussian rational ('3', '-1/2', 'i', '2*i',
    '1/2-3*i', ...) into a pair."""
    text = text.strip()
    if "i" not in text:
        return q(Fraction(text))
    body = text[:-1].rstrip("*")  # drop the trailing i
    split = max(body.rfind("+"), body.rfind("-"))
    if split > 0:
        re_txt, im_txt = body[:split], body[split:]
    else:
        re_txt, im_txt = "0", body
    if im_txt in ("", "+"):
        im_txt = "1"
    elif im_txt == "-":
        im_txt = "-1"
    return q(Fraction(re_txt), Fraction(im_txt))


class SplitMix64:
    """The generator holomult documents for its sample points."""

    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def next_symmetric(self, box):
        return box * (2.0 * ((self.next_u64() >> 11) * (2.0 ** -53)) - 1.0)
