"""Differential proof of the expression parser against its character-loop
predecessor.

The reference below is the earlier tokenizer (one character at a time, with
`Token` tuples) and the earlier descent, copied verbatim.  On every input the
two must agree: the same polynomial, with identical numerators, denominator
and hash, or the same exception type, message and position.  The one change
is the digit class: a character that `str.isdigit()` accepts but that is not
a decimal digit (such as `²`) made the reference fail inside `int()`; the
parser now reports it as a positioned `ParseError`.
"""

import re
from fractions import Fraction
from typing import List, NamedTuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from holomult import parser as current
from holomult.parser import MAX_DEPTH, MAX_EXPONENT, MAX_LITERAL_DIGITS, ParseError
from holomult.poly import CPoly
from holomult.scalars import GaussianRational

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)


# -- the reference: the earlier tokenizer and descent, verbatim ----------------


class Token(NamedTuple):
    kind: str  # NUMBER, VAR, IMAG, OP, END
    text: str
    pos: int


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < size and text[i].isdigit():
                i += 1
            if i < size and text[i] == ".":
                raise ParseError("decimal literals are not Gaussian rationals; use p/q", i)
            if i < size and text[i].isalpha() and text[i] not in "iz":
                raise ParseError(f"non-rational literal starting with {text[start:i + 1]!r}", start)
            # an exponent is bounded by MAX_EXPONENT in parse_factor, by length too
            exponent = bool(tokens) and tokens[-1].text == "^"
            if i - start > MAX_LITERAL_DIGITS and not exponent:
                raise ParseError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits", start)
            tokens.append(Token("NUMBER", text[start:i], start))
            continue
        if ch == "z":
            start = i
            i += 1
            if i >= size or not text[i].isdigit():
                raise ParseError("variable needs a numeric index, e.g. z1", start)
            while i < size and text[i].isdigit():
                i += 1
            if i - start - 1 > MAX_LITERAL_DIGITS:
                raise ParseError(f"variable index longer than {MAX_LITERAL_DIGITS} digits", start)
            tokens.append(Token("VAR", text[start:i], start))
            continue
        if ch == "i":
            tokens.append(Token("IMAG", "i", i))
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(Token("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("END", "", size))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Token], nvars: int):
        self.tokens = tokens
        self.nvars = nvars
        self.idx = 0
        self.depth = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.idx]

    def advance(self) -> Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, symbol: str):
        tok = self.current
        if tok.kind != "OP" or tok.text != symbol:
            raise ParseError(f"expected {symbol!r}", tok.pos)
        return self.advance()

    def parse_expr(self) -> CPoly:
        negate = False
        if self.current.kind == "OP" and self.current.text == "-":
            self.advance()
            negate = True
        value = self.parse_term()
        if negate:
            value = -value
        while self.current.kind == "OP" and self.current.text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> CPoly:
        value = self.parse_factor()
        while self.current.kind == "OP" and self.current.text == "*":
            self.advance()
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> CPoly:
        base = self.parse_base()
        if self.current.kind == "OP" and self.current.text == "^":
            self.advance()
            tok = self.current
            if tok.kind != "NUMBER":
                raise ParseError("exponent must be a nonnegative integer", tok.pos)
            digits = tok.text.lstrip("0") or "0"
            # compare lengths first: int() of a long digit string is slow, and an
            # error past 4300 digits
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds the limit of {MAX_EXPONENT}", tok.pos)
            self.advance()
            return base ** int(digits)
        return base

    def parse_base(self) -> CPoly:
        tok = self.current
        if tok.kind == "NUMBER":
            self.advance()
            numerator = int(tok.text)
            if self.current.kind == "OP" and self.current.text == "/":
                self.advance()
                den_tok = self.current
                if den_tok.kind != "NUMBER":
                    raise ParseError("denominator must be a positive integer", den_tok.pos)
                self.advance()
                denominator = int(den_tok.text)
                if denominator == 0:
                    raise ParseError("denominator must be nonzero", den_tok.pos)
                return CPoly.const(self.nvars, Fraction(numerator, denominator))
            return CPoly.const(self.nvars, numerator)
        if tok.kind == "IMAG":
            self.advance()
            return CPoly.const(self.nvars, GaussianRational(0, 1))
        if tok.kind == "VAR":
            self.advance()
            index = int(tok.text[1:])
            if index < 1 or index > self.nvars:
                raise ParseError(
                    f"variable {tok.text} out of range for dimension {self.nvars}", tok.pos
                )
            return CPoly.var(self.nvars, index)
        if tok.kind == "OP" and tok.text == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", tok.pos)
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input", tok.pos)


def parse_expr(text: str, nvars: int) -> CPoly:
    """Parse an expression into an exact polynomial in z1..z{nvars}."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, nvars)
    value = parser.parse_expr()
    tail = parser.current
    if tail.kind != "END":
        raise ParseError(f"trailing input starting at {tail.text!r}", tail.pos)
    return value


# -- inputs --------------------------------------------------------------------

# pieces of the grammar and of each error: whitespace, decimals, letters, a
# non-ASCII decimal digit, a digit that is not decimal, an exponent past the
# cap, a zero denominator, a literal past the length cap, unbalanced parentheses
FRAGMENTS = [
    " ", "\t", "z", "z1", "z2", "z3", "z0", "z4", "z12", "i", "0", "1", "2", "3", "7",
    "10", "+", "-", "*", "/", "^", "^2", "(", ")", "(z1 + i)", ".", "a", "x", "@",
    "٣", "z٣", "²", "^1001", "1/0", "1/3", "1" * (MAX_LITERAL_DIGITS + 1),
]

atoms = st.sampled_from(["z1", "z2", "z3", "i", "2", "1/2", "-3/4", "0", "z1^2", "z2^0"])


def _grammatical(children):
    """A sum, a product, a power or a parenthesised expression of the children."""
    return st.one_of(
        st.builds(lambda a, b, op: f"{a} {op} {b}", children, children, st.sampled_from("+-")),
        st.builds(lambda a, b: f"{a}*{b}", children, children),
        st.builds(lambda a, e: f"({a})^{e}", children, st.integers(0, 3)),
        st.builds(lambda a: f"-({a})", children),
    )


texts = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join),
    st.recursive(atoms, _grammatical, max_leaves=8),
)

EXPONENT = re.compile(r"\^\s*0*(\d{1,4})(?!\d)")


def _bounded(text):
    """Keep the expansion small: the exponents (up to the cap) multiply to at most 16."""
    product = 1
    for match in EXPONENT.finditer(text):
        value = int(match.group(1))
        if value <= MAX_EXPONENT:
            product *= max(value, 1)
    return product <= 16


def _outcome(parse, text, nvars):
    try:
        value = parse(text, nvars)
    except Exception as exc:  # the reference may fail outside ParseError
        return ("error", type(exc), str(exc), getattr(exc, "pos", None))
    assert type(value) is CPoly
    return ("value", value.nvars, value._re, value._im, value._den, hash(value))


def _has_non_decimal_digit(text):
    return any(ch.isdigit() and not ch.isdecimal() for ch in text)


# -- the proof -----------------------------------------------------------------


@SETTINGS
@given(texts.filter(_bounded), st.integers(0, 3))
@example("z1*z3 - 2*z2 + (z1 - i)^3 - 3/4*i*z2*z2", 3)
@example("(" * MAX_DEPTH + "z1" + ")" * MAX_DEPTH, 1)
@example("(" * (MAX_DEPTH + 1) + "z1" + ")" * (MAX_DEPTH + 1), 1)
@example("z1^" + "0" * 5000 + "3", 1)
@example("z٣ + ١/٢", 3)
@example("z1 + z1 - 2*z1 + z2*z1 - z1*z2", 2)
@example("²", 1)
@example("z²", 1)
@example("1/²", 1)
@example("z1^²", 1)
@example("z1^1001 + 1.5", 1)
@example("z1^-1", 1)
@example("1/z1", 1)
@example("(z1 + 2", 1)
@example("2 z1", 1)
@example("3x", 1)
@example("z", 1)
def test_parser_matches_the_reference(text, nvars):
    new = _outcome(current.parse_expr, text, nvars)
    if _has_non_decimal_digit(text):
        assert new[0] == "error" and new[1] is ParseError, new
        assert isinstance(new[3], int) and f"(position {new[3]})" in new[2]
        return
    assert new == _outcome(parse_expr, text, nvars)
    if new[0] == "value":
        assert current.parse_expr(text, nvars) == parse_expr(text, nvars)
