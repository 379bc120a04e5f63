"""Exact sparse multivariate polynomials.

Two concrete rings share one engine:

  CPoly -- coefficients in Q(i), variables z1..zn (holomorphic side)
  RPoly -- coefficients in Q, variables x1..xn,y1..yn (realified side)

A polynomial maps exponent tuples (one nonnegative int per variable) to
nonzero coefficients; the zero polynomial has no terms.  The canonical term
order is graded lexicographic with z1 > z2 > ... which makes exact division
and serialization deterministic.

Values are immutable after construction (all operations return new objects),
so they are safe to share between concurrent workers.

Storage: integer numerators over one shared denominator.  A polynomial
keeps two dicts `_re` and `_im` from monomials to Python ints and one int
`_den`, and its coefficient at a monomial is (_re[m] + i*_im[m]) / _den,
an absent key reading as 0.  An RPoly's `_im` is always empty.  Every
polynomial is in canonical form: `_den` is positive, the gcd of `_den` and
every numerator is 1, no dict holds a zero, and the zero polynomial is
({}, {}, 1).  Equal polynomials therefore have identical storage, so `==`
and `hash` compare it structurally (a CPoly with real coefficients equals
the RPoly with the same terms, as it always has).  The dicts are never
mutated once a polynomial holds them, so results may share them.  Sums,
products, scaling, partials, conjugation, division, the realification
split and formatting (`format`, `repr`, `poly_summary`) work on the
integers alone and build no `Fraction` or `GaussianRational`; each result
is reduced once by the gcd with its denominator and wrapped by the private
`_trusted` constructor.  Every sum is one call of the private `_sum`, which
adds (sign, p) items over their least common denominator: `+` and `-` are
one call each on the two operands; the parser, every calculus, Poisson and
frame result and each `divide_exact` step gather signed terms for one call.
Every product passes through one routine, `_mul_into`, which adds k * a * b
into a pair of numerator dicts: `*` calls it on empty dicts, and `_sum`
takes (sign, p, q) items beside the (sign, p) ones and convolves each
product straight into the one signed sum, so a sum of products builds no
product polynomial and is reduced once.  The one exception is `_sum_squares`,
the sum of squares behind the squared modulus, which convolves each
unordered term pair of a square once.

`terms` is a view, built once per polynomial on first read and cached:
{monomial: coefficient} with `GaussianRational` values with `Fraction`
parts for CPoly and `Fraction` values for RPoly.  `sorted_terms`,
`leading`, exact evaluation and the readers outside this module use it;
`format_poly` writes each coefficient from its numerators and the
denominator, reduced by their gcd.  The public constructor `CPoly(n,
terms)` / `RPoly(n, terms)` checks and coerces every term, keeps the clean
dict as the view and derives the integer storage from it.
Mixing the two rings in one operation is a TypeError.

Float evaluation lives here too: `float_evaluator` compiles polynomials of
one ring to an exponent matrix and a coefficient matrix once, straight from
the numerators (n / den is correctly rounded, so each coefficient is the
same double as float(Fraction(n, den))), and `evaluate`, the RK4
right-hand side, drift and residual sampling in `numcheck` all run through
it; RK4 passes each slope's array as `out=`.  Exact evaluation is
`evaluate_exact`, in either ring.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from operator import add, sub
from typing import Dict, Tuple

from .scalars import ZERO, GaussianRational, _make, rational_text

Monomial = Tuple[int, ...]
Part = Dict[Monomial, int]

_RZERO = Fraction(0)


def _grlex_key(mono: Monomial):
    return (sum(mono), mono)


def _add_into(out: Part, part: Part, k: int) -> Part:
    """Add k * part (k != 0) into out, deleting the entries that cancel; return out."""
    get = out.get
    for m, v in part.items():
        acc = get(m, 0) + v * k
        if acc:
            out[m] = acc
        else:
            del out[m]
    return out


def _combine(p: Part, a: int, q: Part, b: int) -> Part:
    """a*p + b*q without zero entries; p itself when b*q is empty and a == 1."""
    if not b or not q:
        if not a or not p:
            return {}
        return p if a == 1 else {m: v * a for m, v in p.items()}
    if not a or not p:
        return q if b == 1 else {m: v * b for m, v in q.items()}
    return _add_into(dict(p) if a == 1 else {m: v * a for m, v in p.items()}, q, b)


def _convolve(out: Part, p: Part, q: Part, k: int):
    """Add k * p * q into out (zeros included)."""
    get = out.get
    right = q.items()
    for m1, c1 in p.items():
        if k != 1:
            c1 *= k
        for m2, c2 in right:
            mono = tuple(map(add, m1, m2))
            out[mono] = get(mono, 0) + c1 * c2


def _square(out: Part, p: Part, k: int):
    """Add k * p * p into out (zeros included), each unordered pair of terms once."""
    get = out.get
    items = list(p.items())
    k2 = 2 * k
    for idx, (m1, c1) in enumerate(items):
        mono = tuple(map(add, m1, m1))
        out[mono] = get(mono, 0) + c1 * c1 * k
        c1 *= k2
        for m2, c2 in items[idx + 1:]:
            mono = tuple(map(add, m1, m2))
            out[mono] = get(mono, 0) + c1 * c2


def _mul_into(re: Part, im: Part, a: "_BasePoly", b: "_BasePoly", k: int):
    """Add k * a * b (k != 0) into the numerator dicts re and im, zeros included:
    the one product routine, (ar + i ai)(br + i bi) skipping every empty part."""
    ar, ai, br, bi = a._re, a._im, b._re, b._im
    if ar and br:
        _convolve(re, ar, br, k)
    if ai and bi:
        _convolve(re, ai, bi, -k)
    if ar and bi:
        _convolve(im, ar, bi, k)
    if ai and br:
        _convolve(im, ai, br, k)


def _nonzero(part: Part) -> Part:
    return {m: v for m, v in part.items() if v} if 0 in part.values() else part


def _lower(part: Part, i: int) -> Part:
    """Partial in variable i of one numerator part; lowering exponent i is
    injective on the terms that keep it positive."""
    out = {}
    for mono, v in part.items():
        e = mono[i]
        if e:
            out[mono[:i] + (e - 1,) + mono[i + 1:]] = v * e
    return out


class _BasePoly:
    __slots__ = ("nvars", "_re", "_im", "_den", "_view")

    def __init__(self, nvars: int, terms: Dict[Monomial, object] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: Dict[Monomial, object] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has wrong length for nvars={nvars}")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
                coeff = self._coerce(coeff)
                if coeff:
                    clean[mono] = coeff
        # the least common denominator leaves no common factor with the numerators
        ratios = {m: self._ratio(c) for m, c in clean.items()}
        den = lcm(*(d for _, _, d in ratios.values()))
        self._re = {m: a * (den // d) for m, (a, _, d) in ratios.items() if a}
        self._im = {m: b * (den // d) for m, (_, b, d) in ratios.items() if b}
        self._den = den
        self._view = clean

    @classmethod
    def _trusted(cls, nvars: int, re: Part, im: Part, den: int = 1):
        """Wrap numerators and a denominator already in canonical form as they are."""
        out = object.__new__(cls)
        out.nvars = nvars
        out._re = re
        out._im = im
        out._den = den
        out._view = None
        return out

    @classmethod
    def _reduced(cls, nvars: int, re: Part, im: Part, den: int):
        """`_trusted` after dividing out the gcd of den and the numerators;
        re and im hold no zeros and den is positive."""
        if den != 1:
            g = gcd(den, *re.values(), *im.values())
            if g != 1:
                den //= g
                re = {m: v // g for m, v in re.items()}
                im = {m: v // g for m, v in im.items()}
        return cls._trusted(nvars, re, im, den)

    @classmethod
    def _sum(cls, nvars: int, items):
        """Sum of sign * p over (sign, p) items and of sign * p * q over (sign, p, q)
        items, signs +1 or -1 and every factor of this ring in `nvars` variables.

        The items are added over their least common denominator (a product
        counts at p._den * q._den), starting from a copy of the first plain
        operand; each product is convolved straight into the sum by
        `_mul_into` and never built on its own, and the sum is reduced once.
        Zero operands and products with a zero factor are dropped; one plain
        operand alone comes back as +-itself.
        """
        plain, products, den = [], [], 1  # den 1 for no item: the zero
        for item in items:
            if len(item) == 2:
                p = item[1]
                if not (p._re or p._im):
                    continue
                plain.append(item)
                d = p._den
            else:
                _, a, b = item
                if not ((a._re or a._im) and (b._re or b._im)):
                    continue
                products.append(item)
                d = a._den * b._den
            if den % d:
                den = lcm(den, d)
        if not products and len(plain) == 1:
            s, p = plain[0]
            return p if s > 0 else -p
        re: Part = {}
        im: Part = {}
        if plain:
            s, p = plain[0]
            k = s * (den // p._den)
            if k == 1:
                re, im = dict(p._re), dict(p._im)
            else:
                re, im = {m: v * k for m, v in p._re.items()}, {m: v * k for m, v in p._im.items()}
            for s, p in plain[1:]:
                k = s * (den // p._den)
                if p._re:
                    _add_into(re, p._re, k)
                if p._im:
                    _add_into(im, p._im, k)
        if products:
            for s, a, b in products:
                _mul_into(re, im, a, b, s * (den // (a._den * b._den)))
            re, im = _nonzero(re), _nonzero(im)
        return cls._reduced(nvars, re, im, den)

    @classmethod
    def _sum_squares(cls, nvars: int, polys):
        """Sum of p * p over polys of this ring in `nvars` variables, reduced once.

        Each square is (ar^2 - ai^2) + 2i ar ai, and `_square` takes each
        unordered term pair of ar and of ai once, so the values and the order of
        the numerator dicts are those of `_sum` over the (1, p, p) items.
        """
        polys = [p for p in polys if p._re or p._im]
        den = lcm(*(p._den for p in polys))
        re: Part = {}
        im: Part = {}
        for p in polys:
            k = (den // p._den) ** 2
            if p._re:
                _square(re, p._re, k)
            if p._im:
                _square(re, p._im, -k)
            if p._re and p._im:
                _convolve(im, p._re, p._im, 2 * k)
        return cls._reduced(nvars, _nonzero(re), _nonzero(im), den * den)

    @property
    def terms(self) -> Dict[Monomial, object]:
        """{monomial: coefficient} in the ring's scalar type, built on first read."""
        view = self._view
        if view is None:
            view = self._view = self._build_view()
        return view

    @classmethod
    def _ratio(cls, value) -> Tuple[int, int, int]:
        """(a, b, d) with value == (a + b*i) / d, d > 0 and gcd(a, b, d) == 1,
        for a scalar the ring accepts."""
        if type(value) is int:
            return value, 0, 1
        value = cls._coerce(value)
        re, im = (value.re, value.im) if isinstance(value, GaussianRational) else (value, _RZERO)
        d = lcm(re.denominator, im.denominator)
        return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d

    # subclasses pin the coefficient field
    @staticmethod
    def _coerce(value):
        raise NotImplementedError

    @staticmethod
    def _zero():
        raise NotImplementedError

    def _build_view(self):
        raise NotImplementedError

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        return cls._trusted(nvars, {}, {})

    @classmethod
    def const(cls, nvars: int, value):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        a, b, d = cls._ratio(value)
        mono = (0,) * nvars
        return cls._trusted(nvars, {mono: a} if a else {}, {mono: b} if b else {}, d)

    @classmethod
    def var(cls, nvars: int, index: int):
        """Polynomial for the index-th variable, 1-based."""
        if not 1 <= index <= nvars:
            raise IndexError(f"variable index {index} out of range 1..{nvars}")
        mono = [0] * nvars
        mono[index - 1] = 1
        return cls._trusted(nvars, {tuple(mono): 1}, {})

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise TypeError(f"ring mismatch: {type(self).__name__} vs {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def _operand(self, other):
        """other as a polynomial of this ring and variable count: a scalar becomes
        a constant, a polynomial of another ring or count raises."""
        if not isinstance(other, _BasePoly):
            other = self.const(self.nvars, other)
        self._check_compatible(other)
        return other

    def __add__(self, other):
        return self._sum(self.nvars, ((1, self), (1, self._operand(other))))

    __radd__ = __add__

    def __neg__(self):
        return self._trusted(self.nvars, {m: -v for m, v in self._re.items()},
                             {m: -v for m, v in self._im.items()}, self._den)

    def __sub__(self, other):
        return self._sum(self.nvars, ((1, self), (-1, self._operand(other))))

    def __rsub__(self, other):
        return self._sum(self.nvars, ((-1, self), (1, self._operand(other))))

    def __mul__(self, other):
        if not isinstance(other, _BasePoly):
            return self.scale(other)
        self._check_compatible(other)
        re: Part = {}
        im: Part = {}
        _mul_into(re, im, self, other, 1)
        return self._reduced(self.nvars, _nonzero(re), _nonzero(im), self._den * other._den)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        a, b, d = self._ratio(value)
        if not (a or b):
            return self.zero(self.nvars)
        # (re + i im)(a + i b) / (den d)
        re, im = self._re, self._im
        return self._reduced(self.nvars, _combine(re, a, im, -b), _combine(im, a, re, b),
                             self._den * d)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        out = self.const(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, _BasePoly):
            return (self.nvars == other.nvars and self._den == other._den
                    and self._re == other._re and self._im == other._im)
        if isinstance(other, (int, Fraction, GaussianRational)):
            try:
                other = self.const(self.nvars, other)
            except ValueError:  # a non-real scalar never equals an RPoly
                return False
            return self == other
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self._den, frozenset(self._re.items()), frozenset(self._im.items())))

    def __bool__(self):
        return bool(self._re or self._im)

    def is_zero(self) -> bool:
        return not (self._re or self._im)

    # -- calculus -----------------------------------------------------------

    def diff(self, var_index: int):
        """Formal partial derivative with respect to the 1-based variable."""
        if not 1 <= var_index <= self.nvars:
            raise IndexError(f"variable index {var_index} out of range 1..{self.nvars}")
        i = var_index - 1
        return self._reduced(self.nvars, _lower(self._re, i), _lower(self._im, i), self._den)

    def _keys(self):
        """Each monomial with a nonzero coefficient, once."""
        re, im = self._re, self._im
        return chain(re, (m for m in im if m not in re))

    def _monomials(self):
        """Monomials in decreasing graded-lex order."""
        return sorted(self._keys(), key=_grlex_key, reverse=True)

    def _lead(self) -> Monomial:
        return max(self._keys(), key=_grlex_key)

    def leading(self):
        """(monomial, coefficient) that is largest in graded-lex order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        mono = self._lead()
        return mono, self.terms[mono]

    def sorted_terms(self):
        """Terms in decreasing graded-lex order (canonical serialization order)."""
        terms = self.terms
        return [(m, terms[m]) for m in self._monomials()]

    def evaluate(self, point):
        """Evaluate at one floating-point point: a complex for CPoly, a float for RPoly."""
        return float_evaluator([self])(point).item()

    def evaluate_exact(self, point):
        """Evaluate at exact coordinates of the ring's field: Q(i) for CPoly, Q for RPoly."""
        point = [self._coerce(p) for p in point]
        if len(point) != self.nvars:
            raise ValueError(f"point length {len(point)} != nvars {self.nvars}")
        total = self._zero()
        for mono, coeff in self.terms.items():
            term = coeff
            for value, e in zip(point, mono):
                if e:
                    term = term * value ** e
            total = total + term
        return total

    # -- division -----------------------------------------------------------

    def divide_exact(self, divisor):
        """Quotient q with self == q * divisor, or None if not exactly divisible.

        Single-divisor multivariate division in graded-lex order; any step
        whose leading term is not divisible proves non-divisibility, and a
        step that leaves its leading term in place raises AssertionError.
        """
        self._check_compatible(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        nvars = self.nvars
        dm = divisor._lead()
        dr, di = divisor._re.get(dm, 0), divisor._im.get(dm, 0)
        # 1 / ((dr + i di) / den) == (dr - i di) * den / norm
        norm, dden = dr * dr + di * di, divisor._den
        queue = self
        pieces = []
        while queue:
            rm = queue._lead()
            diff = tuple(map(sub, rm, dm))
            if any(e < 0 for e in diff):
                return None
            r, s = queue._re.get(rm, 0), queue._im.get(rm, 0)
            qr, qi = (r * dr + s * di) * dden, (s * dr - r * di) * dden
            piece = self._reduced(nvars, {diff: qr} if qr else {}, {diff: qi} if qi else {},
                                  queue._den * norm)
            pieces.append((1, piece))
            queue = self._sum(nvars, ((1, queue), (-1, piece, divisor)))
            if rm in queue._re or rm in queue._im:
                raise AssertionError("division step left its leading term in place")
        return self._sum(nvars, pieces)

    def __repr__(self):
        return f"{type(self).__name__}({self.nvars}, {self.format()!r})"


class CPoly(_BasePoly):
    """Polynomial over Q(i) in variables z1..zn."""

    __slots__ = ()

    @staticmethod
    def _coerce(value):
        return GaussianRational.coerce(value)

    @staticmethod
    def _zero():
        return ZERO

    _float = complex  # the type float evaluation returns

    def _build_view(self):
        re, im, den = self._re, self._im, self._den
        return {m: _make(Fraction(re.get(m, 0), den), Fraction(im.get(m, 0), den))
                for m in self._keys()}

    def conjugate(self) -> "CPoly":
        """Conjugate the coefficients (formally a polynomial in conjugated variables)."""
        return CPoly._trusted(self.nvars, self._re, {m: -v for m, v in self._im.items()}, self._den)

    def realify_split(self) -> tuple["RPoly", "RPoly"]:
        """Substitute z^k = x^k + i*y^k exactly; return (real part, imaginary part).

        The result lives in 2n variables ordered x1..xn, y1..yn.  The term
        c * prod_k z_k^e_k expands by the binomial theorem to
        sum_j c * prod_k C(e_k, j_k) * i^(sum j) * x^(e - j) * y^j, and each
        xy-monomial comes from exactly one z-monomial (e = (x exps) + (y exps)).
        """
        n = self.nvars
        re, im = self._re, self._im
        out_re: Part = {}
        out_im: Part = {}
        zeros = (0,) * n
        for mono in self._keys():
            r, s = re.get(mono, 0), im.get(mono, 0)
            # (x exps, y exps, binomial product, power of i) up to the last
            # nonzero exponent; only nonzero exponents expand, each zero run
            # between them is one slice of `zeros`
            expanded = [((), (), 1, 0)]
            done = 0
            for k, e in enumerate(mono):
                if e:
                    run = zeros[:k - done]
                    steps = [(run + (e - j,), run + (j,), comb(e, j), j) for j in range(e + 1)]
                    expanded = [(xs + dx, ys + dy, c * b, q + j)
                                for xs, ys, c, q in expanded for dx, dy, b, j in steps]
                    done = k + 1
            tail = zeros[:n - done]
            for xs, ys, c, q in expanded:
                # i^q (r + i s): multiplying by i sends (r, s) to (-s, r)
                a, b = ((r, s), (-s, r), (-r, -s), (s, -r))[q & 3]
                m = xs + tail + ys + tail
                if a:
                    out_re[m] = c * a
                if b:
                    out_im[m] = c * b
        den = self._den
        return RPoly._reduced(2 * n, out_re, {}, den), RPoly._reduced(2 * n, out_im, {}, den)

    def format(self, names=None) -> str:
        return format_poly(self, names or default_z_names(self.nvars))


class RPoly(_BasePoly):
    """Polynomial over Q in the realified variables x1..xn, y1..yn."""

    __slots__ = ()

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            if value.im != 0:
                raise ValueError("RPoly coefficients must be real")
            return value.re
        if isinstance(value, float):
            raise TypeError("RPoly coefficients must be exact rationals, not floats")
        return Fraction(value)

    @staticmethod
    def _zero():
        return _RZERO

    _float = float  # the type float evaluation returns

    def _build_view(self):
        return {m: Fraction(v, self._den) for m, v in self._re.items()}

    def format(self, names=None) -> str:
        return format_poly(self, names or default_xy_names(self.nvars))


def float_evaluator(polys):
    """Compile polynomials of one ring and variable count to one float function.

    The function maps points[..., nvars] to values[..., len(polys)], complex
    for CPoly and float for RPoly, as one product of monomial values with a
    coefficient matrix over the union of the polynomials' monomials.  The
    monomials are summed in decreasing graded-lex order, so equal polynomials
    give identical floats.  Given `out`, an array of the values' shape, it
    writes the values there and returns it; the floats are the same either
    way.  numpy is loaded on first use, so the exact layers never import it.
    """
    import numpy as np

    if not polys:
        raise ValueError("float_evaluator needs at least one polynomial")
    first = polys[0]
    for p in polys[1:]:
        first._check_compatible(p)
    nvars, kind = first.nvars, first._float
    monos = sorted({m for p in polys for m in p._keys()}, key=_grlex_key, reverse=True)
    exps = np.array(monos, dtype=np.int64).reshape(len(monos), nvars)
    if kind is complex:
        rows = [[complex(p._re.get(m, 0) / p._den, p._im.get(m, 0) / p._den) for p in polys]
                for m in monos]
    else:
        rows = [[p._re.get(m, 0) / p._den for p in polys] for m in monos]
    coeffs = np.array(rows, dtype=kind).reshape(len(monos), len(polys))

    def evaluate(points, out=None):
        points = np.asarray(points, dtype=kind)
        if points.shape[-1:] != (nvars,):
            raise ValueError(f"point length {points.shape[-1] if points.ndim else 0} != nvars {nvars}")
        # np.prod is this reduction behind a Python wrapper that costs more than the product
        monomials = np.multiply.reduce(points[..., None, :] ** exps, axis=-1)
        return np.matmul(monomials, coeffs, out=out)

    return evaluate


def default_z_names(nvars: int):
    return [f"z{k}" for k in range(1, nvars + 1)]


def default_xy_names(nvars: int):
    if nvars % 2:
        return [f"u{k}" for k in range(1, nvars + 1)]
    n = nvars // 2
    return [f"x{k}" for k in range(1, n + 1)] + [f"y{k}" for k in range(1, n + 1)]


def _ratio_text(num: int, den: int) -> str:
    """num / den (den > 0) in lowest terms, written as `rational_text` writes it."""
    if den != 1:
        g = gcd(num, den)
        if g != 1:
            num, den = num // g, den // g
    return rational_text(num) if den == 1 else f"{rational_text(num)}/{rational_text(den)}"


def _coeff_text(a: int, b: int, den: int) -> str:
    """The coefficient (a + b*i) / den (not zero) in the form the parser reads back."""
    if not b:
        return _ratio_text(a, den)
    imag = "i" if abs(b) == den else f"{_ratio_text(abs(b), den)}*i"
    if not a:
        return imag if b > 0 else "-" + imag
    return f"({_ratio_text(a, den)}{'+' if b > 0 else '-'}{imag})"


def format_poly(p: _BasePoly, names) -> str:
    """Canonical text form: graded-lex descending, parse-compatible.

    Each coefficient is written from the integer numerators and the shared
    denominator; the `terms` view is never built.
    """
    if len(names) != p.nvars:
        raise ValueError(f"{len(names)} variable names for a polynomial in {p.nvars} variables")
    if p.is_zero():
        return "0"
    re, im, den = p._re, p._im, p._den
    pieces = []
    for mono in p._monomials():
        factors = [name if e == 1 else f"({name})^{e}" for name, e in zip(names, mono) if e]
        ctxt = _coeff_text(re.get(mono, 0), im.get(mono, 0), den)
        if not factors:
            body = ctxt
        elif ctxt == "1":
            body = "*".join(factors)
        elif ctxt == "-1":
            body = "-" + "*".join(factors)
        else:
            body = "*".join([ctxt] + factors)
        pieces.append(body)
    out = pieces[0]
    for body in pieces[1:]:
        if body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out


def poly_summary(p: _BasePoly, limit: int = 3) -> str:
    """Short residual description: '0' or the first few leading terms."""
    if p.is_zero():
        return "0"
    monos = p._monomials()
    head = monos[:limit]
    re, im = p._re, p._im
    text = p._reduced(p.nvars, {m: re[m] for m in head if m in re},
                      {m: im[m] for m in head if m in im}, p._den).format()
    extra = len(monos) - limit
    if extra > 0:
        text += f" + ({extra} more terms)"
    return text
