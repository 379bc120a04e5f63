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

Every polynomial keeps its terms clean: each key is a tuple of `nvars`
nonnegative ints, and each value is nonzero and of the ring's own type
(`GaussianRational` with `Fraction` parts for CPoly, `Fraction` for RPoly).
The public constructor `CPoly(n, terms)` / `RPoly(n, terms)` checks and
coerces every term to reach that state.  Operations whose result is clean
by construction (sums, negation, products, scaling, partials, division,
conjugation, the realification split and `poly_summary`) build it through
the private `_trusted` constructor, which stores the dict as given; only
code in this module may call it.
Mixing the two rings in one operation is a TypeError.

Float evaluation lives here too, beside the term format it reads:
`float_evaluator` compiles polynomials of one ring to an exponent matrix
and a coefficient matrix once, and `evaluate`, the RK4 right-hand side,
drift and residual sampling in `numcheck` all run through it.  Exact
evaluation is `evaluate_exact`, in either ring.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Dict, Tuple

import numpy as np

from .scalars import I, ZERO, GaussianRational

Monomial = Tuple[int, ...]

_RZERO = Fraction(0)


def _grlex_key(mono: Monomial):
    return (sum(mono), mono)


class _BasePoly:
    __slots__ = ("nvars", "terms")

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
                    clean[mono] = clean.get(mono, self._zero()) + coeff
                    if not clean[mono]:
                        del clean[mono]
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: Dict[Monomial, object]):
        """Wrap an already clean terms dict (see the module docstring) as is."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    # subclasses pin the coefficient field
    @staticmethod
    def _coerce(value):
        raise NotImplementedError

    @staticmethod
    def _zero():
        raise NotImplementedError

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def var(cls, nvars: int, index: int):
        """Polynomial for the index-th variable, 1-based."""
        if not 1 <= index <= nvars:
            raise IndexError(f"variable index {index} out of range 1..{nvars}")
        mono = [0] * nvars
        mono[index - 1] = 1
        return cls(nvars, {tuple(mono): 1})

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise TypeError(f"ring mismatch: {type(self).__name__} vs {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, _BasePoly):
            other = self.const(self.nvars, other)
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return self._trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return self._trusted(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, _BasePoly):
            other = self.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, _BasePoly):
            return self.scale(other)
        self._check_compatible(other)
        out: Dict[Monomial, object] = {}
        get = out.get
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                mono = tuple(map(add, m1, m2))
                acc = get(mono)
                out[mono] = c1 * c2 if acc is None else acc + c1 * c2
        return self._trusted(self.nvars, {m: c for m, c in out.items() if c})

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        value = self._coerce(value)
        if not value:
            return self.zero(self.nvars)
        return self._trusted(self.nvars, {m: c * value for m, c in self.terms.items()})

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
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == self.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus -----------------------------------------------------------

    def diff(self, var_index: int):
        """Formal partial derivative with respect to the 1-based variable."""
        if not 1 <= var_index <= self.nvars:
            raise IndexError(f"variable index {var_index} out of range 1..{self.nvars}")
        i = var_index - 1
        out: Dict[Monomial, object] = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e:
                # lowering exponent i is injective on the terms that keep it positive
                out[mono[:i] + (e - 1,) + mono[i + 1:]] = coeff * e
        return self._trusted(self.nvars, out)

    def leading(self):
        """(monomial, coefficient) that is largest in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=_grlex_key)
        return mono, self.terms[mono]

    def sorted_terms(self):
        """Terms in decreasing graded-lex order (canonical serialization order)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

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
        whose leading term is not divisible proves non-divisibility.
        """
        self._check_compatible(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        queue = self
        q_terms: Dict[Monomial, object] = {}
        dm, dc = divisor.leading()
        while queue.terms:
            rm, rc = queue.leading()
            diff = tuple(map(sub, rm, dm))
            if any(e < 0 for e in diff):
                return None
            coeff = rc / dc
            q_terms[diff] = coeff
            piece = self._trusted(self.nvars, {diff: coeff})
            queue = queue - piece * divisor
        return self._trusted(self.nvars, q_terms)

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

    def conjugate(self) -> "CPoly":
        """Conjugate the coefficients (formally a polynomial in conjugated variables)."""
        return CPoly._trusted(self.nvars, {m: c.conjugate() for m, c in self.terms.items()})

    def realify_split(self) -> tuple["RPoly", "RPoly"]:
        """Substitute z^k = x^k + i*y^k exactly; return (real part, imaginary part).

        The result lives in 2n variables ordered x1..xn, y1..yn.
        """
        n = self.nvars
        out: Dict[Monomial, GaussianRational] = {}
        zero = ZERO
        for mono, coeff in self.terms.items():
            expanded = {(0,) * (2 * n): coeff}
            for k, e in enumerate(mono):
                for _ in range(e):
                    nxt: Dict[Monomial, GaussianRational] = {}
                    for m2, c2 in expanded.items():
                        mx = list(m2)
                        mx[k] += 1
                        tx = tuple(mx)
                        nxt[tx] = nxt.get(tx, zero) + c2
                        my = list(m2)
                        my[n + k] += 1
                        ty = tuple(my)
                        nxt[ty] = nxt.get(ty, zero) + c2 * I
                    expanded = nxt
            for m2, c2 in expanded.items():
                out[m2] = out.get(m2, zero) + c2
        re_terms = {m: c.re for m, c in out.items() if c.re}
        im_terms = {m: c.im for m, c in out.items() if c.im}
        return RPoly._trusted(2 * n, re_terms), RPoly._trusted(2 * n, im_terms)

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

    def format(self, names=None) -> str:
        return format_poly(self, names or default_xy_names(self.nvars))


def float_evaluator(polys):
    """Compile polynomials of one ring and variable count to one float function.

    The function maps points[..., nvars] to values[..., len(polys)], complex
    for CPoly and float for RPoly, as one product of monomial values with a
    coefficient matrix over the union of the polynomials' monomials.  The
    monomials are summed in decreasing graded-lex order, so equal polynomials
    give identical floats.
    """
    if not polys:
        raise ValueError("float_evaluator needs at least one polynomial")
    first = polys[0]
    for p in polys[1:]:
        first._check_compatible(p)
    nvars, kind = first.nvars, first._float
    monos = sorted({m for p in polys for m in p.terms}, key=_grlex_key, reverse=True)
    exps = np.array(monos, dtype=np.int64).reshape(len(monos), nvars)
    coeffs = np.array([[kind(p.terms.get(m, 0)) for p in polys] for m in monos], dtype=kind)
    coeffs = coeffs.reshape(len(monos), len(polys))

    def evaluate(points):
        points = np.asarray(points, dtype=kind)
        if points.shape[-1:] != (nvars,):
            raise ValueError(f"point length {points.shape[-1] if points.ndim else 0} != nvars {nvars}")
        return np.prod(points[..., None, :] ** exps, axis=-1) @ coeffs

    return evaluate


def default_z_names(nvars: int):
    return [f"z{k}" for k in range(1, nvars + 1)]


def default_xy_names(nvars: int):
    if nvars % 2:
        return [f"u{k}" for k in range(1, nvars + 1)]
    n = nvars // 2
    return [f"x{k}" for k in range(1, n + 1)] + [f"y{k}" for k in range(1, n + 1)]


def _format_coeff(coeff) -> str:
    """Render a coefficient in the form the parser reads back."""
    if isinstance(coeff, GaussianRational):
        if coeff.im == 0:
            return str(coeff.re)
        if coeff.re == 0:
            if coeff.im == 1:
                return "i"
            if coeff.im == -1:
                return "-i"
            return f"{coeff.im}*i"
        return f"({coeff})"
    return str(coeff)


def format_poly(p: _BasePoly, names) -> str:
    """Canonical text form: graded-lex descending, parse-compatible."""
    if not p.terms:
        return "0"
    pieces = []
    for mono, coeff in p.sorted_terms():
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"({name})^{e}")
        ctxt = _format_coeff(coeff)
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
    terms = p.sorted_terms()
    head = p._trusted(p.nvars, dict(terms[:limit]))
    text = head.format()
    extra = len(terms) - limit
    if extra > 0:
        text += f" + ({extra} more terms)"
    return text
