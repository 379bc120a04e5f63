"""Malformed literals are bad input with a position: characters that
`str.isdigit()` accepts but that are not decimal digits, and literals longer
than a lowered interpreter limit on int <-> str conversion."""

import sys
from fractions import Fraction

import pytest

from holomult.cli import main
from holomult.parser import parse_expr
from holomult.poly import CPoly

LOWERED = 640  # the smallest nonzero limit the interpreter accepts
LONG = 1000


@pytest.fixture
def lowered_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on int <-> str conversion")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(LOWERED)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "field, pos, what",
    [
        ("9" * LONG + "*z1", 0, "integer literal"),
        ("z1 + 1/" + "7" * LONG, 7, "integer literal"),
        ("z" + "1" * LONG, 0, "variable index"),
    ],
    ids=["number", "denominator", "variable-index"],
)
def test_literal_past_a_lowered_limit_is_bad_input(lowered_limit, field, pos, what, capsys):
    assert main(["div", "--dim", "1", "--field", field]) == 2
    err = capsys.readouterr().err
    assert f"{what} longer than {LOWERED} digits (position {pos})" in err
    assert "Traceback" not in err and len(err) < 200


def test_literal_at_a_lowered_limit_parses(lowered_limit):
    digits = "9" * LOWERED
    number = int(digits)
    z1 = CPoly.var(1, 1)
    assert parse_expr(f"{digits}*z1 - 1/{digits}", 1) == (
        z1.scale(number) + CPoly.const(1, Fraction(-1, number))
    )
    assert parse_expr("z" + "0" * (LOWERED - 1) + "1", 1) == z1


@pytest.mark.parametrize(
    "field, message",
    [
        ("²", "unexpected character '²' (position 0)"),
        ("z²", "variable needs a numeric index, e.g. z1 (position 0)"),
        ("1/²", "unexpected character '²' (position 2)"),
        ("z1^²", "unexpected character '²' (position 3)"),
    ],
)
def test_a_non_decimal_digit_is_bad_input(field, message, capsys):
    assert main(["div", "--dim", "1", "--field", field]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_a_non_decimal_digit_in_a_manifest_names_its_line(tmp_path, capsys):
    path = tmp_path / "digit.mf"
    path.write_text("[dim]\n1\n[poly]\na = ²\n[task]\ndivergence_zero a\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 4: unexpected character '²' (position 0)\n"


def test_other_decimal_digits_read_as_ascii():
    assert parse_expr("z٣", 3) == parse_expr("z3", 3)
    assert parse_expr("٣/٤*z1", 1) == parse_expr("3/4*z1", 1)
