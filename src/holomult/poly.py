"""Exact sparse multivariate polynomials.

Two concrete rings share one engine:

  CPoly -- coefficients in Q(i), variables z1..zn (holomorphic side)
  RPoly -- coefficients in Q, variables x1..xn,y1..yn (realified side)

A polynomial maps exponent tuples (one nonnegative int per variable) to
nonzero coefficients; the zero polynomial has no terms.  The canonical term
order is graded lexicographic with z1 > z2 > ... which makes exact division
and serialization deterministic.  The degree is at most 2^64 - 1.

Values are immutable after construction (all operations return new objects),
so they are safe to share between concurrent workers.  A polynomial caches
what it derives from its own storage in slots that are written once: the
`terms` view (`_view`), the largest key (`_top`) and each partial it has
taken (`_partials`, so `diff` returns the stored object on a repeat).  None
of them is part of the value: `==` and `hash` read the storage alone.

Storage: integer numerators over one shared denominator.  A polynomial
keeps two dicts `_re` and `_im` from packed monomials to Python ints and one
int `_den`, and its coefficient at a monomial is (_re[m] + i*_im[m]) / _den,
an absent key reading as 0.  A monomial in n variables is packed by `_pack`
into one int of n + 1 fields of `_B` = 64 bits, the degree above the
exponents: deg << (n*_B) | e1 << ((n-1)*_B) | ... | en.  A product adds
keys, a partial subtracts one, int order is graded-lex order, and `_unpack`
gives the tuple back, reading the key's bytes with one `struct` call (a
`Struct` of n + 1 big-endian 64-bit fields, cached per n) and dropping the
degree field; only this module knows the layout.  No field carries
while the degree stays below 2^_B: the public constructor refuses a larger
degree, and `_mul_into` and `_sum_squares` refuse, before they convolve a
term, operands whose largest keys (`_top`) add past 1 << ((n+1)*_B).  A
check on the result could not see a carry, since wrongly packed keys can
cancel.  A power squares repeatedly and never multiplies by the constant 1;
a one-term power is one term, its key times the exponent over its
coefficient to the exponent, refused like a product when its degree would
reach 2^_B.  An RPoly's `_im` is always empty.  Every
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
{exponent tuple: coefficient} with `GaussianRational` values with `Fraction`
parts for CPoly and `Fraction` values for RPoly.  `sorted_terms`,
`leading`, exact evaluation and the readers outside this module use it;
`format_poly` writes each coefficient from its numerators and the
denominator, reduced by their gcd.  The public constructor `CPoly(n,
terms)` / `RPoly(n, terms)` checks and coerces every term (each exponent
through `operator.index`, so a non-integer one is a TypeError), keeps the
clean dict as the view and derives the packed integer storage from it.
Mixing the two rings in one operation is a TypeError.

Float evaluation lives here too: `float_evaluator` compiles polynomials of
one ring to an exponent matrix and a coefficient matrix once, straight from
the numerators (n / den is correctly rounded, so each coefficient is the
same double as float(Fraction(n, den))), and `evaluate`, drift and residual
sampling in `numcheck` all run through it.  The exponent matrix is float64:
numpy casts int64 exponents to float64 for every power anyway, so the values
are the same in both rings.  The compiled function exposes the pair as its
`matrices`, and RK4 runs the same three operations on them into buffers of
its own.  What a float cannot hold is refused with ValueError naming the
limit: a coefficient whose n / den overflows a float, and any exponent above
2^53, past which a float64 exponent loses its parity.  Exact evaluation is
`evaluate_exact`, in either ring.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from operator import index
from sys import float_info
from typing import Dict, Tuple

from .scalars import ZERO, GaussianRational, _make, rational_text

Monomial = Tuple[int, ...]
Part = Dict[int, int]  # packed monomial -> numerator

_RZERO = Fraction(0)

_B = 64  # bits per field of a packed monomial (see the module docstring)
_FIELD = (1 << _B) - 1
_MAX_DEGREE = _FIELD
_DEGREE_LIMIT = f"polynomial degree exceeds the limit of {_MAX_DEGREE}"


def _pack(mono: Monomial) -> int:
    """The packed key of an exponent tuple of nonnegative ints, degree below 2^_B."""
    key = sum(mono)
    for e in mono:
        key = key << _B | e
    return key


_UNPACKERS = {}  # n -> the unpack method of a Struct of n + 1 big-endian 64-bit fields


def _unpack(key: int, n: int) -> Monomial:
    """The exponent tuple of a packed key in n variables: its bytes read as n + 1
    unsigned 64-bit fields (so _B must be 64) in one C call, the degree dropped."""
    unpack = _UNPACKERS.get(n)
    if unpack is None:
        unpack = _UNPACKERS[n] = struct.Struct(f">{n + 1}Q").unpack
    return unpack(key.to_bytes(8 * n + 8, "big"))[1:]


def _y_free(part: Part, n: int, k: int) -> Part:
    """k times the terms of a part in x1..xn, y1..yn that hold no y, each keyed
    as the monomial in n variables with x renamed z: y = 0 is the low n
    fields, and the rest of the key is the z-key, since the degree is x's."""
    low = (1 << n * _B) - 1
    return {m >> n * _B: v * k for m, v in part.items() if not m & low}


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
            mono = m1 + m2
            out[mono] = get(mono, 0) + c1 * c2


def _square(out: Part, p: Part, k: int):
    """Add k * p * p into out (zeros included), each unordered pair of terms once."""
    get = out.get
    items = list(p.items())
    k2 = 2 * k
    for idx, (m1, c1) in enumerate(items):
        mono = m1 + m1
        out[mono] = get(mono, 0) + c1 * c1 * k
        c1 *= k2
        for m2, c2 in items[idx + 1:]:
            mono = m1 + m2
            out[mono] = get(mono, 0) + c1 * c2


def _mul_into(re: Part, im: Part, a: "_BasePoly", b: "_BasePoly", k: int):
    """Add k * a * b (k != 0) into the numerator dicts re and im, zeros included:
    the one product routine, (ar + i ai)(br + i bi) skipping every empty part.
    It refuses, before any term is added, a product whose degree reaches 2^_B."""
    top_a, top_b = a._top, b._top
    if top_a is None:
        top_a = a._lead()
    if top_b is None:
        top_b = b._lead()
    if (top_a + top_b) >> (a.nvars + 1) * _B:
        raise ValueError(_DEGREE_LIMIT)
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


def _gaussian_power(r: int, s: int, e: int) -> Tuple[int, int]:
    """(r + i s)^e for ints r, s and e >= 1, by repeated squaring."""
    if not s:
        return r ** e, 0
    pr, ps = 1, 0
    while True:
        if e & 1:
            pr, ps = pr * r - ps * s, pr * s + ps * r
        e >>= 1
        if not e:
            return pr, ps
        r, s = r * r - s * s, 2 * r * s


def _lower(part: Part, shift: int, step: int) -> Part:
    """Partial of one numerator part in the variable whose field starts at bit
    `shift`; `step` lowers that exponent and the degree by one, which is
    injective on the terms that keep the exponent positive."""
    out = {}
    for mono, v in part.items():
        e = mono >> shift & _FIELD
        if e:
            out[mono - step] = v * e
    return out


class _BasePoly:
    # caches, each written once (see the module docstring): _top is the largest
    # packed key (0 for the zero polynomial) and _partials {variable index: partial}
    __slots__ = ("nvars", "_re", "_im", "_den", "_view", "_top", "_partials")

    def __init__(self, nvars: int, terms: Dict[Monomial, object] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: Dict[Monomial, object] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has wrong length for nvars={nvars}")
                try:
                    exps = tuple(map(index, mono))
                except TypeError:
                    raise TypeError(f"monomial {mono} has a non-integer exponent") from None
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in monomial {mono}")
                if sum(exps) > _MAX_DEGREE:
                    raise ValueError(_DEGREE_LIMIT)
                coeff = self._coerce(coeff)
                if coeff:
                    clean[exps] = coeff
        # the least common denominator leaves no common factor with the numerators
        ratios = {_pack(m): self._ratio(c) for m, c in clean.items()}
        den = lcm(*(d for _, _, d in ratios.values()))
        self._re = {m: a * (den // d) for m, (a, _, d) in ratios.items() if a}
        self._im = {m: b * (den // d) for m, (_, b, d) in ratios.items() if b}
        self._den = den
        self._view = clean
        self._top = self._partials = None

    @classmethod
    def _trusted(cls, nvars: int, re: Part, im: Part, den: int = 1):
        """Wrap numerators and a denominator already in canonical form as they are."""
        out = object.__new__(cls)
        out.nvars = nvars
        out._re = re
        out._im = im
        out._den = den
        out._view = None
        out._top = out._partials = None
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
        the numerator dicts are those of `_sum` over the (1, p, p) items.  A
        square whose degree reaches 2^_B is refused before any is convolved.
        """
        polys = [p for p in polys if p._re or p._im]
        if any((2 * p._lead()) >> (nvars + 1) * _B for p in polys):
            raise ValueError(_DEGREE_LIMIT)
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
        return cls._trusted(nvars, {0: a} if a else {}, {0: b} if b else {}, d)

    @classmethod
    def var(cls, nvars: int, index: int):
        """Polynomial for the index-th variable, 1-based."""
        if not 1 <= index <= nvars:
            raise IndexError(f"variable index {index} out of range 1..{nvars}")
        return cls._trusted(nvars, {(1 << nvars * _B) + (1 << (nvars - index) * _B): 1}, {})

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
        """Repeated squaring, never multiplying by 1; one term is raised as one term."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        n = self.nvars
        if not exponent:
            return self.const(n, 1)
        re, im = self._re, self._im
        if len(re) <= 1 and len(im) <= 1:
            keys = {*re, *im}
            if not keys:
                return self
            if len(keys) == 1:
                # c * z^m to the e is c^e * z^(e m): the key times e, refused past the limit
                (key,) = keys
                top = key * exponent
                if top >> (n + 1) * _B:
                    raise ValueError(_DEGREE_LIMIT)
                r, s = _gaussian_power(re.get(key, 0), im.get(key, 0), exponent)
                return self._reduced(n, {top: r} if r else {}, {top: s} if s else {},
                                     self._den ** exponent)
        out = None
        base, e = self, exponent
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base

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
        """Formal partial derivative with respect to the 1-based variable.

        Each partial is taken once and kept in `_partials`, so a repeat returns
        the same object.
        """
        if not 1 <= var_index <= self.nvars:
            raise IndexError(f"variable index {var_index} out of range 1..{self.nvars}")
        partials = self._partials
        if partials is None:
            partials = self._partials = {}
        else:
            out = partials.get(var_index)
            if out is not None:
                return out
        n = self.nvars
        shift = (n - var_index) * _B
        step = (1 << shift) + (1 << n * _B)
        im = self._im
        out = self._reduced(n, _lower(self._re, shift, step),
                            _lower(im, shift, step) if im else {}, self._den)
        partials[var_index] = out
        return out

    def _keys(self):
        """Each packed monomial with a nonzero coefficient, once."""
        re, im = self._re, self._im
        return chain(re, (m for m in im if m not in re))

    def _monomials(self):
        """Packed monomials in decreasing graded-lex order."""
        return sorted(self._keys(), reverse=True)

    def _lead(self) -> int:
        """The largest packed monomial, the graded-lex leading one (0 for zero)."""
        top = self._top
        if top is None:
            re, im = self._re, self._im
            top = max(re) if re else 0
            if im:
                top = max(top, max(im))
            self._top = top
        return top

    def leading(self):
        """(monomial, coefficient) that is largest in graded-lex order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        mono = _unpack(self._lead(), self.nvars)
        return mono, self.terms[mono]

    def sorted_terms(self):
        """Terms in decreasing graded-lex order (canonical serialization order)."""
        terms, n = self.terms, self.nvars
        return [(mono, terms[mono]) for mono in (_unpack(m, n) for m in self._monomials())]

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
        shifts = range(0, nvars * _B, _B)
        while queue:
            rm = queue._lead()
            # divisible when no exponent of rm is below dm's (the degree follows)
            if any(rm >> s & _FIELD < dm >> s & _FIELD for s in shifts):
                return None
            diff = rm - dm
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
        re, im, den, n = self._re, self._im, self._den, self.nvars
        return {_unpack(m, n): _make(Fraction(re.get(m, 0), den), Fraction(im.get(m, 0), den))
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
        The degree is kept, so each xy key is the z degree's field plus the
        shifted x and y exponents.
        """
        n = self.nvars
        re, im = self._re, self._im
        out_re: Part = {}
        out_im: Part = {}
        for mono in self._keys():
            r, s = re.get(mono, 0), im.get(mono, 0)
            # (xy key, binomial product, power of i); only nonzero exponents expand
            expanded = [(mono >> n * _B << 2 * n * _B, 1, 0)]
            for k in range(n):
                e = mono >> (n - 1 - k) * _B & _FIELD
                if e:
                    xs, ys = (2 * n - 1 - k) * _B, (n - 1 - k) * _B
                    steps = [(((e - j) << xs) + (j << ys), comb(e, j), j) for j in range(e + 1)]
                    expanded = [(m + dm, c * b, q + j)
                                for m, c, q in expanded for dm, b, j in steps]
            for m, c, q in expanded:
                # i^q (r + i s): multiplying by i sends (r, s) to (-s, r)
                a, b = ((r, s), (-s, r), (-r, -s), (s, -r))[q & 3]
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
        den, n = self._den, self.nvars
        return {_unpack(m, n): Fraction(v, den) for m, v in self._re.items()}

    def format(self, names=None) -> str:
        return format_poly(self, names or default_xy_names(self.nvars))


_MAX_FLOAT_EXPONENT = 2**53  # every exponent up to it is an exact float64, parity included


def float_evaluator(polys):
    """Compile polynomials of one ring and variable count to one float function.

    The function maps points[..., nvars] to values[..., len(polys)], complex
    for CPoly and float for RPoly, as one product of monomial values with a
    coefficient matrix over the union of the polynomials' monomials.  The
    monomials are summed in decreasing graded-lex order, so equal polynomials
    give identical floats.  Given `out`, an array of the values' shape, it
    writes the values there and returns it; the floats are the same either
    way.  Each polynomial gets the value it has alone: when a batch of several
    goes non-finite (an inf monomial times another polynomial's zero
    coefficient is nan), each non-finite column is summed again over its own
    monomials only.  Its `matrices` attribute is the compiled pair
    (exponents, a float64 M x nvars array, and coefficients, M x len(polys)),
    which the caller must not write.  A coefficient outside the float range
    or an exponent above 2^53 is refused with ValueError.  numpy is loaded on
    first use, so the exact layers never import it.
    """
    import numpy as np

    if not polys:
        raise ValueError("float_evaluator needs at least one polynomial")
    first = polys[0]
    for p in polys[1:]:
        first._check_compatible(p)
    nvars, kind = first.nvars, first._float
    monos = sorted({m for p in polys for m in p._keys()}, reverse=True)
    tuples = [_unpack(m, nvars) for m in monos]
    # the first key has the largest degree, which bounds every exponent
    if monos and monos[0] >> nvars * _B > _MAX_FLOAT_EXPONENT \
            and max(chain.from_iterable(tuples)) > _MAX_FLOAT_EXPONENT:
        raise ValueError(f"float evaluation needs exponents of at most 2^53 = {_MAX_FLOAT_EXPONENT}")
    # exact int64 exponents would be cast to float64 by every power anyway
    exps = np.array(tuples, dtype=float).reshape(len(monos), nvars)
    try:
        if kind is complex:
            rows = [[complex(p._re.get(m, 0) / p._den, p._im.get(m, 0) / p._den) for p in polys]
                    for m in monos]
        else:
            rows = [[p._re.get(m, 0) / p._den for p in polys] for m in monos]
    except OverflowError:
        raise ValueError(f"float evaluation needs coefficients of at most {float_info.max!r}"
                         " in absolute value") from None
    coeffs = np.array(rows, dtype=kind).reshape(len(monos), len(polys))
    # the rows of each polynomial's own monomials, for a batch that goes non-finite
    owns = [[row for row, m in enumerate(monos) if m in p._re or m in p._im]
            for p in polys] if len(polys) > 1 else []

    def evaluate(points, out=None):
        points = np.asarray(points, dtype=kind)
        if points.shape[-1:] != (nvars,):
            raise ValueError(f"point length {points.shape[-1] if points.ndim else 0} != nvars {nvars}")
        # np.prod is this reduction behind a Python wrapper that costs more than the product
        monomials = np.multiply.reduce(points[..., None, :] ** exps, axis=-1)
        values = np.matmul(monomials, coeffs, out=out)
        if owns and not np.isfinite(values).all():
            # an inf monomial times another polynomial's zero coefficient is nan:
            # each non-finite value is taken again over its polynomial's own monomials
            for j, own in enumerate(owns):
                if not np.isfinite(values[..., j]).all():
                    values[..., j] = np.matmul(monomials[..., own], coeffs[own, j:j + 1])[..., 0]
        return values

    evaluate.matrices = exps, coeffs
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
    for key in p._monomials():
        factors = [name if e == 1 else f"({name})^{e}"
                   for name, e in zip(names, _unpack(key, p.nvars)) if e]
        ctxt = _coeff_text(re.get(key, 0), im.get(key, 0), den)
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
    """Short residual description: '0' or the first `limit` (at least 1) leading terms."""
    if limit < 1:
        raise ValueError(f"poly_summary needs a limit of at least 1, got {limit}")
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
