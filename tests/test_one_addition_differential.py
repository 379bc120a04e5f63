"""Differential proof of the one addition routine.

`+`, `-`, the parser's expressions and `lie_bracket` each add through one
call of the kernel's `_BasePoly._sum`.  The references below are the
earlier code, which aligned denominators in `__add__` through `_combine`,
subtracted by adding a negated copy, folded an expression term by term and
subtracted W(Z^k) from Z(W^k): `_combine`, `__add__`, `__sub__`,
`__rsub__`, the parser's `parse_expr` loop and `lie_bracket`, copied
verbatim except that the `+`, `-` they called are the references here, so
that no reference runs through `_sum`'s addition.  Results must agree in
canonical storage (`_re`, `_im`, `_den`) and in type, in both rings, and
the refusals must raise the same exception with the same message.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holomult.calculus import RealVectorField, VectorField, apply_field, lie_bracket
from holomult.parser import ParseError, _Parser, _tokenize, parse_expr
from holomult.poly import CPoly, RPoly, _BasePoly, _add_into
from holomult.scalars import GaussianRational

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
FIELD_OF = {CPoly: VectorField, RPoly: RealVectorField}


# -- the reference: the earlier pairwise additions, verbatim -------------------------


def _combine(p, a, q, b):
    """a*p + b*q without zero entries; p itself when b*q is empty and a == 1."""
    if not b or not q:
        if not a or not p:
            return {}
        return p if a == 1 else {m: v * a for m, v in p.items()}
    if not a or not p:
        return q if b == 1 else {m: v * b for m, v in q.items()}
    return _add_into(dict(p) if a == 1 else {m: v * a for m, v in p.items()}, q, b)


def ref_add(self, other):
    if not isinstance(other, _BasePoly):
        other = self.const(self.nvars, other)
    self._check_compatible(other)
    d1, d2 = self._den, other._den
    if d1 == d2:
        a = b = 1
    else:
        d1 = lcm(d1, d2)
        a, b = d1 // self._den, d1 // d2
    return self._reduced(self.nvars, _combine(self._re, a, other._re, b),
                         _combine(self._im, a, other._im, b), d1)


def ref_sub(self, other):
    if not isinstance(other, _BasePoly):
        other = self.const(self.nvars, other)
    return ref_add(self, -other)


def ref_rsub(self, other):
    return ref_add(-self, other)


class RefParser(_Parser):
    def parse_expr(self):
        negate = self.peek() == "-"
        if negate:
            self.advance()
        value = self.parse_term()
        if negate:
            value = -value
        while self.peek() in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            value = ref_add(value, rhs) if op == "+" else ref_sub(value, rhs)
        return value


def ref_parse_expr(text, nvars):
    parser = RefParser(_tokenize(text), nvars)
    value = parser.parse_expr()
    kind, tail, pos = parser.tokens[parser.idx]
    if kind:
        raise ParseError(f"trailing input starting at {tail!r}", pos)
    return value


def ref_lie_bracket(z, w):
    """[Z, W]: component k is Z(W^k) - W(Z^k)."""
    if type(w) is not type(z) or w.n != z.n:
        raise ValueError("vector fields differ in class or dimension")
    return type(z)(z.n, [ref_sub(apply_field(z, wk), apply_field(w, zk))
                         for zk, wk in zip(z.components, w.components)])


# -- generators -------------------------------------------------------------------

rings = st.sampled_from([CPoly, RPoly])
small = st.integers(-3, 3)


def scalars(ring):
    """Small coefficients over mixed denominators; Gaussian ones for CPoly."""
    den = st.integers(1, 6)
    if ring is CPoly:
        return st.builds(lambda a, b, d: GaussianRational(a, b) / d, small, small, den)
    return st.builds(Fraction, small, den)


@st.composite
def polys(draw, ring, n, max_terms=4):
    monomials = st.tuples(*[st.integers(0, 2)] * n)
    return ring(n, draw(st.dictionaries(monomials, scalars(ring), max_size=max_terms)))


def operands(ring, n):
    """A polynomial of the ring, or a scalar it accepts: a plain int, a rational or its own scalar."""
    return st.one_of(polys(ring, n), st.integers(-4, 4), st.builds(Fraction, small, st.integers(1, 6)),
                     scalars(ring))


def same(new, ref):
    assert type(new) is type(ref)
    assert (new.nvars, new._re, new._im, new._den) == (ref.nvars, ref._re, ref._im, ref._den)


def same_field(new, ref):
    assert type(new) is type(ref) and new.n == ref.n
    for a, b in zip(new.components, ref.components):
        same(a, b)


def same_failure(new, ref):
    """Both calls raise, with one exception type and one message."""
    with pytest.raises(Exception) as got:
        new()
    with pytest.raises(Exception) as want:
        ref()
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# -- + and - ----------------------------------------------------------------------


@SETTINGS
@given(st.data(), st.integers(1, 3), rings)
def test_add_and_sub_match_the_pairwise_reference(data, n, ring):
    p = data.draw(polys(ring, n))
    other = data.draw(operands(ring, n))
    same(p + other, ref_add(p, other))
    same(p - other, ref_sub(p, other))
    if not isinstance(other, GaussianRational):  # a Gaussian rational refuses a polynomial itself
        same(other + p, ref_add(p, other))
        same(other - p, ref_rsub(p, other))
    same(p.__radd__(other), ref_add(p, other))
    same(p.__rsub__(other), ref_rsub(p, other))


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_add_and_sub_edge_cases(ring):
    n = 2
    x, y = ring.var(n, 1), ring.var(n, 2)
    zero = ring.zero(n)
    third = x.scale(Fraction(1, 3)) + y.scale(Fraction(5, 2))
    sixth = x.scale(Fraction(-1, 6)) + ring.const(n, Fraction(7, 4))
    pairs = [
        (zero, zero), (zero, x), (x, zero), (third, third), (third, sixth), (sixth, third),
        (third, x.scale(Fraction(-1, 3))), (x, 0), (zero, 0), (third, Fraction(-5, 12)),
        (sixth, -7), (zero, Fraction(1, 9)),
    ]
    if ring is CPoly:
        half_gauss = x.scale(GaussianRational(1, 1) / 2)
        pairs += [(half_gauss, half_gauss.conjugate()), (half_gauss, GaussianRational(0, 1) / 3),
                  (third, half_gauss), (zero, GaussianRational(2, -1) / 5)]
    for p, other in pairs:
        same(p + other, ref_add(p, other))
        same(p - other, ref_sub(p, other))
        same(p.__radd__(other), ref_add(p, other))
        same(p.__rsub__(other), ref_rsub(p, other))
    same(third - third, zero)


def test_refusals_match_the_reference():
    c2, c3, r2 = CPoly.var(2, 1), CPoly.var(3, 1), RPoly.var(2, 1)
    mismatches = [(c2, r2), (r2, c2), (c2, c3), (c3, c2), (r2, RPoly.var(4, 1)), (RPoly.zero(2), CPoly.zero(2))]
    for p, q in mismatches:
        same_failure(lambda: p + q, lambda: ref_add(p, q))
        same_failure(lambda: p - q, lambda: ref_sub(p, q))
        same_failure(lambda: p.__radd__(q), lambda: ref_add(p, q))
        same_failure(lambda: p.__rsub__(q), lambda: ref_rsub(p, q))
    # scalars the real ring refuses
    for value in (GaussianRational(0, 1), 0.5):
        same_failure(lambda: r2 + value, lambda: ref_add(r2, value))
        same_failure(lambda: r2 - value, lambda: ref_sub(r2, value))
        same_failure(lambda: r2.__rsub__(value), lambda: ref_rsub(r2, value))


# -- the parser -------------------------------------------------------------------


def term_texts():
    atoms = st.sampled_from(["z1", "z2", "z3", "i", "3", "5/6", "2/9", "0", "(z1 - 1/2)",
                             "(-z2 + 1/3*i)", "(z3 - (z1 + 1/4))", "z1^2", "(1/3*z2 - z3)^2"])
    return st.lists(atoms, min_size=1, max_size=3).map("*".join)


@st.composite
def expressions(draw, depth=2):
    terms = draw(st.lists(term_texts(), min_size=1, max_size=6))
    if depth and draw(st.booleans()):
        terms.append("(" + draw(expressions(depth - 1)) + ")")
    text = "-" if draw(st.booleans()) else ""
    text += terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from([" + ", " - "])) + term
    return text


@SETTINGS
@given(expressions())
def test_parse_expr_matches_the_pairwise_reference(text):
    same(parse_expr(text, 3), ref_parse_expr(text, 3))


@pytest.mark.parametrize("text", [
    "0", "-0", "-z1", "z1 - z1", "-z1 + z1", "1/2 - 1/3 + 1/6", "-(z1 + 1/2) - (z2 - 1/3)",
    "(-(z1 - i) + 2/3)*z2 - z3", "((z1))", "-(-(-z2))", "z1*1/1 - 3/9", "(z1 + z2)^3 - z1^3 - z2^3",
])
def test_parse_expr_edge_cases(text):
    same(parse_expr(text, 3), ref_parse_expr(text, 3))


# -- the Lie bracket --------------------------------------------------------------


@SETTINGS
@given(st.data(), st.integers(1, 4), rings)
def test_lie_bracket_matches_the_pairwise_reference(data, n, ring):
    field = FIELD_OF[ring]
    z = field(n, [data.draw(polys(ring, n, max_terms=3)) for _ in range(n)])
    w = field(n, [data.draw(polys(ring, n, max_terms=3)) for _ in range(n)])
    same_field(lie_bracket(z, w), ref_lie_bracket(z, w))
    same_field(lie_bracket(z, z), ref_lie_bracket(z, z))


def test_lie_bracket_refusals_match_the_reference():
    z = VectorField(2, [CPoly.var(2, 1), CPoly.var(2, 2)])
    for w in (RealVectorField(2, [RPoly.var(2, 1), RPoly.var(2, 2)]), VectorField.zero(3)):
        same_failure(lambda: lie_bracket(z, w), lambda: ref_lie_bracket(z, w))


# -- no pairwise polynomial addition is left in them ------------------------------


def fields_on_c3(cls):
    x1, x2, x3 = (cls.ring.var(3, k) for k in (1, 2, 3))
    z = cls(3, [x2 * x3, x1.scale(Fraction(1, 2)), cls.ring.const(3, 1) - x2])
    w = cls(3, [x3, x1 * x1, cls.ring.zero(3)])
    return z, w


def test_parser_and_lie_bracket_add_no_polynomial_pairwise(monkeypatch):
    text = "-z1" + "".join(f" {'+-'[k % 2]} {k}/{k + 1}*z{k % 3 + 1}^{k % 4}" for k in range(1, 40))
    assert text.count("+") + text.count("-") == 40
    pairs = [fields_on_c3(VectorField), fields_on_c3(RealVectorField)]
    expected_poly = ref_parse_expr(text, 3)
    expected_brackets = [ref_lie_bracket(z, w) for z, w in pairs]

    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        original = getattr(_BasePoly, name)

        def counting(self, other, original=original, name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(_BasePoly, name, counting)
    same(parse_expr(text, 3), expected_poly)
    for (z, w), expected in zip(pairs, expected_brackets):
        same_field(lie_bracket(z, w), expected)
    assert calls == []
