"""The exponent budget: `base ^ e` with e above `parser.MAX_EXPONENT` is bad
input, reported with the exponent's position before any power is expanded."""

import pytest

from holomult.cli import main
from holomult.parser import MAX_EXPONENT
from holomult.poly import _BasePoly


@pytest.fixture
def powers(monkeypatch):
    """Exponents passed to polynomial powers during the test."""
    seen = []
    power = _BasePoly.__pow__

    def recording(self, exponent):
        seen.append(exponent)
        return power(self, exponent)

    monkeypatch.setattr(_BasePoly, "__pow__", recording)
    return seen


@pytest.mark.parametrize("exponent", ["1000", "0001000"])
def test_exponent_at_the_limit_parses(exponent, powers, capsys):
    assert MAX_EXPONENT == 1000
    assert main(["div", "--dim", "1", "--field", "1^" + exponent]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert powers == [1000]


@pytest.mark.parametrize("exponent", ["1001", "9" * 20, "9" * 5000], ids=["1001", "20-digits", "5000-digits"])
def test_exponent_past_the_limit_is_bad_input(exponent, powers, capsys):
    assert main(["div", "--dim", "2", "--field", f"z2 ; (z1+z2)^{exponent}"]) == 2
    err = capsys.readouterr().err
    assert "exponent exceeds the limit of 1000 (position 8)" in err
    assert "Traceback" not in err and len(err) < 200
    assert powers == []


def test_manifest_exponent_past_the_limit_exits_two(tmp_path, powers, capsys):
    path = tmp_path / "power.mf"
    path.write_text("[dim]\n2\n[poly]\nf = z1 + z2^3\ng = (z1 - i*z2)^1001\n[task]\nfirst_integral f f\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 5" in err and "exponent exceeds the limit of 1000" in err
    assert "Traceback" not in err
    assert 1001 not in powers
