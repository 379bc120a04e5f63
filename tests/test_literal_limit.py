"""The literal budget: a number or a variable index longer than
`parser.MAX_LITERAL_DIGITS` is bad input, reported with the literal's
position before any `int()` sees it; and a scalar too long for `str()` still
has a repr."""

import sys
from fractions import Fraction

import pytest

from holomult.cli import main
from holomult.parser import MAX_LITERAL_DIGITS, parse_expr
from holomult.scalars import GaussianRational

LONG = MAX_LITERAL_DIGITS + 700  # 5000 digits


@pytest.mark.parametrize(
    "field, pos, what",
    [
        ("9" * LONG + "*z1", 0, "integer literal"),
        ("z1 + 1/" + "7" * LONG, 7, "integer literal"),
        ("z" + "1" * LONG, 0, "variable index"),
    ],
    ids=["number", "denominator", "variable-index"],
)
def test_literal_past_the_limit_is_bad_input(field, pos, what, capsys):
    assert MAX_LITERAL_DIGITS <= 4300
    assert main(["div", "--dim", "1", "--field", field]) == 2
    err = capsys.readouterr().err
    assert f"{what} longer than {MAX_LITERAL_DIGITS} digits (position {pos})" in err
    assert "Traceback" not in err and len(err) < 200


def test_literal_at_the_limit_parses():
    number = 10 ** MAX_LITERAL_DIGITS - 1
    digits = "9" * MAX_LITERAL_DIGITS
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert parse_expr(f"{digits}*z1 - 1/{digits}", 1).terms == {
        (1,): GaussianRational(number),
        (0,): GaussianRational(Fraction(-1, number)),
    }
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_a_long_exponent_is_judged_by_the_exponent_budget(capsys):
    assert main(["div", "--dim", "1", "--field", "(z1)^" + "0" * LONG + "3"]) == 0
    assert capsys.readouterr().out == "3*(z1)^2\n"


def test_repr_past_the_digit_limit():
    text = repr(GaussianRational(10 ** 5000, Fraction(-1, 3 * 10 ** 5000)))
    assert text == f"GaussianRational(Fraction(1{'0' * 5000}, 1), Fraction(-1, 3{'0' * 5000}))"


@pytest.mark.parametrize(
    "value",
    [GaussianRational(), GaussianRational(1), GaussianRational(Fraction(-1, 3), 2),
     GaussianRational(0, Fraction(7, -4)), GaussianRational(10 ** 40, Fraction(1, 10 ** 40))],
)
def test_repr_of_small_values_is_unchanged(value):
    assert repr(value) == f"GaussianRational({value.re!r}, {value.im!r})"
