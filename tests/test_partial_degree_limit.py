"""Partials at the degree limit.

A partial lowers its source's degree, so a product of partials can sit right
at the limit of packed monomials.  The product guard of `_mul_into` (and of
`_sum_squares`) reads the operands' exact largest keys: a square of a partial
past the limit is refused before any term is convolved, and a partial whose
source's top term lacks the variable is judged by its own top key, not its
source's, so it is not refused near the limit.
"""

import pytest

import holomult.poly
from holomult.poly import _B, _MAX_DEGREE, CPoly, RPoly

LIMIT_TEXT = f"polynomial degree exceeds the limit of {2**_B - 1}"
RINGS = [CPoly, RPoly]


@pytest.fixture
def convolutions(monkeypatch):
    """Each term-pair routine the kernel enters during the test, by name."""
    seen = []
    for name in ("_convolve", "_square"):
        original = getattr(holomult.poly, name)

        def counting(*args, _name=name, _original=original):
            seen.append(_name)
            return _original(*args)

        monkeypatch.setattr(holomult.poly, name, counting)
    return seen


@pytest.mark.parametrize("ring", RINGS)
def test_the_square_of_a_partial_past_the_limit_is_refused(ring, convolutions):
    d = ring(2, {(2**63, 1): 1}).diff(2)  # z1^(2^63)
    assert d.terms == {(2**63, 0): 1}
    for square in (lambda: d * d, lambda: d ** 2, lambda: ring._sum(2, [(1, d, d)]),
                   lambda: ring._sum_squares(2, [d])):
        with pytest.raises(ValueError, match=LIMIT_TEXT):
            square()
    assert convolutions == []


@pytest.mark.parametrize("ring", RINGS)
def test_a_partial_is_judged_by_its_own_top_term(ring, convolutions):
    # the source's top term z1^MAX lacks z2, so d/dz2 is the constant 5
    source = ring(2, {(_MAX_DEGREE, 0): 1, (0, 1): 5})
    d = source.diff(2)
    high = ring(2, {(_MAX_DEGREE - 1, 1): 1})
    assert d.terms == {(0, 0): 5}
    assert (d * high).terms == {(_MAX_DEGREE - 1, 1): 5}
    assert ring._sum(2, [(1, d, high), (-1, high)]).terms == {(_MAX_DEGREE - 1, 1): 4}
    assert (d * d).terms == (d ** 2).terms == {(0, 0): 25}
    assert ring._sum_squares(2, [d]).terms == {(0, 0): 25}
    assert convolutions
