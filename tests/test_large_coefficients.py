"""Results with integers longer than the interpreter's int-to-string limit.

`str()` of an int refuses more than `sys.get_int_max_str_digits()` digits
(4300 by default), so a correct result with such a coefficient must still be
printed in full, without touching that process-global limit.
"""

import json
import sys

import pytest

from holomult.cli import main


def digits(n: int) -> str:
    """Decimal text of a positive int, built from chunks short enough for str()."""
    chunks = []
    while n:
        n, low = divmod(n, 10 ** 1000)
        chunks.append(low)
    return str(chunks[-1]) + "".join(f"{c:01000d}" for c in reversed(chunks[:-1]))


@pytest.fixture
def run(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.err == ""
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        return code, captured.out

    return run


def test_the_reference_digits_pass_the_limit():
    assert len(digits(1000 * 99999 ** 1000)) == 5003
    assert digits(10 ** 5000) == "1" + "0" * 5000


def test_divergence_with_a_5003_digit_coefficient(run):
    code, out = run(["div", "--dim", "1", "--field", "(99999*z1)^1000"])
    assert code == 0
    assert out == digits(1000 * 99999 ** 1000) + "*(z1)^999\n"


def test_gaussian_coefficient_in_json(run):
    code, out = run(["div", "--dim", "1", "--field", "(1+2*i)*(99999*z1)^1000", "--format", "json"])
    assert code == 0
    c = 1000 * 99999 ** 1000
    assert json.loads(out) == {"command": "div", "result": f"({digits(c)}+{digits(2 * c)}*i)*(z1)^999"}


def test_long_denominator(run):
    code, out = run(["div", "--dim", "1", "--field", "((1/10)^1000)^5*(z1)^2"])
    assert code == 0
    assert out == f"1/{digits(5 * 10 ** 4999)}*z1\n"


def test_real_coefficients_of_a_realified_polynomial(run):
    code, out = run(["realify", "--dim", "1", "--alpha", "(10^1000)^5*z1"])
    assert code == 0
    c, c2 = digits(10 ** 5000), digits(10 ** 10000)
    assert out.splitlines() == [f"re: {c}*x1", f"im: {c}*y1", f"|.|^2: {c2}*(x1)^2 + {c2}*(y1)^2"]
