"""Recursive-descent parser for exact polynomial expressions.

Grammar (whitespace insignificant, no implicit multiplication):

    expr    :=  ['-'] term (('+' | '-') term)*
    term    :=  factor ('*' factor)*
    factor  :=  base ('^' nonneg-integer)?
    base    :=  rational | 'i' | 'z' index | '(' expr ')'
    rational:=  integer ('/' positive-integer)?

One compiled pattern cuts the text into `(kind, text, pos)` tuples: a digit
run has kind "N", a variable kind "z" (its text keeps the index, "z12"), an
operator or `i` is its own kind, and the end of input has kind "".  Digits
are `\\d`, the Unicode decimal digits that `int()` accepts; any other
character, such as `²`, is an unexpected character.

A leading minus is accepted so canonically formatted polynomials round-trip.
Parentheses nest at most `MAX_DEPTH` deep, so the recursion stays bounded,
and an exponent is at most `MAX_EXPONENT`, checked before the power is
expanded.  Any other digit run (a number, a denominator or a variable index)
is at most `MAX_LITERAL_DIGITS` long, or the interpreter's own
`sys.get_int_max_str_digits()` when that is lower, checked by length before
`int()` sees it.  Every error carries the 0-based position in the input text.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import List, Tuple

from .poly import CPoly
from .scalars import GaussianRational

MAX_DEPTH = 100
MAX_EXPONENT = 1000
MAX_LITERAL_DIGITS = 4300  # CPython's default limit on int <-> str conversion

# after optional whitespace: a number, a variable, an operator or `i`, or any other character
_TOKEN = re.compile(r"\s*(?:(?P<N>\d+)|(?P<z>z\d*)|(?P<op>[-+*/^()i])|(?P<bad>\S))")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    # the interpreter's own limit when set lower (0 means none; some 3.10 builds lack it)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    cap = min(MAX_LITERAL_DIGITS, limit) if limit else MAX_LITERAL_DIGITS
    tokens: List[Tuple[str, str, int]] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        word, pos, end = match.group(kind), match.start(kind), match.end()
        if kind == "N":
            after = text[end:end + 1]
            if after == ".":
                raise ParseError("decimal literals are not Gaussian rationals; use p/q", end)
            if after.isalpha() and after not in "iz":
                raise ParseError(f"non-rational literal starting with {text[pos:end + 1]!r}", pos)
            # an exponent is bounded by MAX_EXPONENT in parse_factor, by length too
            if len(word) > cap and not (tokens and tokens[-1][0] == "^"):
                raise ParseError(f"integer literal longer than {cap} digits", pos)
        elif kind == "z":
            if len(word) == 1:
                raise ParseError("variable needs a numeric index, e.g. z1", pos)
            if len(word) - 1 > cap:
                raise ParseError(f"variable index longer than {cap} digits", pos)
        elif kind == "op":
            kind = word
        else:
            raise ParseError(f"unexpected character {word!r}", pos)
        tokens.append((kind, word, pos))
    tokens.append(("", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, str, int]], nvars: int):
        self.tokens = tokens
        self.nvars = nvars
        self.idx = 0
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.idx][0]

    def advance(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def parse_expr(self) -> CPoly:
        """The expression's signed terms, added once by the kernel's `_sum`."""
        sign = -1 if self.peek() == "-" else 1
        if sign < 0:
            self.advance()
        terms = [(sign, self.parse_term())]
        while self.peek() in ("+", "-"):
            sign = 1 if self.advance()[0] == "+" else -1
            terms.append((sign, self.parse_term()))
        return CPoly._sum(self.nvars, terms)

    def parse_term(self) -> CPoly:
        value = self.parse_factor()
        while self.peek() == "*":
            self.advance()
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> CPoly:
        base = self.parse_base()
        if self.peek() != "^":
            return base
        self.advance()
        kind, text, pos = self.advance()
        if kind != "N":
            raise ParseError("exponent must be a nonnegative integer", pos)
        digits = text.lstrip("0") or "0"
        # compare lengths first: int() of a long digit string is slow, and an
        # error past the interpreter's limit
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds the limit of {MAX_EXPONENT}", pos)
        return base ** int(digits)

    def parse_base(self) -> CPoly:
        kind, text, pos = self.advance()
        if kind == "N":
            numerator = int(text)
            if self.peek() != "/":
                return CPoly.const(self.nvars, numerator)
            self.advance()
            den_kind, den_text, den_pos = self.advance()
            if den_kind != "N":
                raise ParseError("denominator must be a positive integer", den_pos)
            denominator = int(den_text)
            if denominator == 0:
                raise ParseError("denominator must be nonzero", den_pos)
            return CPoly.const(self.nvars, Fraction(numerator, denominator))
        if kind == "i":
            return CPoly.const(self.nvars, GaussianRational(0, 1))
        if kind == "z":
            index = int(text[1:])
            if index < 1 or index > self.nvars:
                raise ParseError(f"variable {text} out of range for dimension {self.nvars}", pos)
            return CPoly.var(self.nvars, index)
        if kind == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            if self.peek() != ")":
                raise ParseError("expected ')'", self.tokens[self.idx][2])
            self.advance()
            return inner
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse_expr(text: str, nvars: int) -> CPoly:
    """Parse an expression into an exact polynomial in z1..z{nvars}."""
    parser = _Parser(_tokenize(text), nvars)
    value = parser.parse_expr()
    kind, tail, pos = parser.tokens[parser.idx]
    if kind:
        raise ParseError(f"trailing input starting at {tail!r}", pos)
    return value
