"""Recursive-descent parser for exact polynomial expressions.

Grammar (whitespace insignificant, no implicit multiplication):

    expr    :=  ['-'] term (('+' | '-') term)*
    term    :=  factor ('*' factor)*
    factor  :=  base ('^' nonneg-integer)?
    base    :=  rational | 'i' | 'z' index | '(' expr ')'
    rational:=  integer ('/' positive-integer)?

A leading minus is accepted so canonically formatted polynomials round-trip.
Parentheses nest at most `MAX_DEPTH` deep, so the recursion stays bounded,
and an exponent is at most `MAX_EXPONENT`, checked before the power is
expanded.  Any other digit run (a number or a variable index) is at most
`MAX_LITERAL_DIGITS` long, checked by length before `int()` sees it.
Every error carries the 0-based position in the input text.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple

from .poly import CPoly
from .scalars import GaussianRational

MAX_DEPTH = 100
MAX_EXPONENT = 1000
MAX_LITERAL_DIGITS = 4300  # CPython's default limit on int <-> str conversion


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


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
