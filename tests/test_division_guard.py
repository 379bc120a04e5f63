"""A division step that leaves its leading term in place raises AssertionError.

Each step of `divide_exact` must cancel the remainder's leading term.  A
kernel product with the wrong sign doubles that term instead, and a loop
without a progress check would then run forever.  Here the one product
routine, `poly._mul_into`, adds with the opposite sign; the division must
raise at once, and `holomult check` must exit 3.  Each case runs under a
real-time alarm, so a division that never ends fails the test instead of
holding the suite.
"""

import signal
from contextlib import contextmanager

import pytest

from holomult import poly
from holomult.cli import main
from holomult.poly import CPoly, RPoly, _BasePoly
from holomult.scalars import GaussianRational

SECONDS = 10


class Expired(Exception):
    """Raised by the alarm; not an OSError, so the CLI does not report it as bad input."""


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise Expired(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def flipped(mul_into):
    return lambda re, im, a, b, k: mul_into(re, im, a, b, -k)


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_a_stalled_step_raises(monkeypatch, ring):
    z1, z2 = ring.var(2, 1), ring.var(2, 2)
    lead = GaussianRational(1, 1) if ring is CPoly else 3
    divisor = z1.scale(lead) + z2
    dividend = divisor * (z1 + 1)
    monkeypatch.setattr(poly, "_mul_into", flipped(poly._mul_into))
    with time_limit(SECONDS), pytest.raises(AssertionError, match="left its leading term"):
        dividend.divide_exact(divisor)


MANIFEST = """[dim]
3
[poly]
f1 = z1
f2 = z2
f3 = z3
[field]
Z = z1*z3 ; (z2)^2 ; z3*(z1 + z2 - z3)
[task]
darboux_search Z f1 f2 f3
"""


def test_a_stalled_step_exits_three(monkeypatch, tmp_path, capsys):
    path = tmp_path / "darboux.mf"
    path.write_text(MANIFEST, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    divide_exact, mul_into = _BasePoly.divide_exact, poly._mul_into

    def stalling(self, divisor):
        # only the division's own steps take the wrong sign
        poly._mul_into = flipped(mul_into)
        try:
            return divide_exact(self, divisor)
        finally:
            poly._mul_into = mul_into

    monkeypatch.setattr(_BasePoly, "divide_exact", stalling)
    with time_limit(SECONDS):
        assert main(["check", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal route disagreement: division step left its leading term in place\n"
