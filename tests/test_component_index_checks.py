"""A component read checks grade and range the way the constructor does.

An index set the constructor would refuse, out of range or of the wrong
grade, raises the same `ValueError` from `component` (so from
`Bivector.entry`); a repeated index in range still reads as the zero of
the ring, and a stored key is read without any check or new zero.
"""

import pytest

from holomult.calculus import Multivector
from holomult.poisson import Bivector
from holomult.poly import CPoly, RPoly
from holomult.realify import RealBivector


@pytest.mark.parametrize("cls", [Bivector, RealBivector])
def test_entry_checks_range_and_grade_like_the_constructor(cls):
    ring = cls.field.ring
    p = cls(3, {(1, 2): ring.var(3, 3)})
    for args, message in (((1, 7), r"index set \(1, 7\) out of range 1..3"),
                          ((0, 1), r"index set \(0, 1\) out of range 1..3")):
        with pytest.raises(ValueError, match=message):
            p.entry(*args)
        with pytest.raises(ValueError, match=message):
            Multivector(3, 2, {args: ring.var(3, 1)}, ring)
    with pytest.raises(ValueError, match=r"index set \(1, 2, 3\) does not have grade 2"):
        p.component(1, 2, 3)
    with pytest.raises(ValueError, match=r"does not have grade 2"):
        p.component((1,))
    # a repeated index in range is a zero of the ring, not an error
    for i in (1, 2, 3):
        same = p.entry(i, i)
        assert type(same) is ring and same.is_zero()
    assert p.entry(2, 1) == -p.entry(1, 2)
    assert type(p.entry(1, 3)) is ring and p.entry(1, 3).is_zero()


@pytest.mark.parametrize("ring", [CPoly, RPoly])
def test_a_trivector_checks_its_sets_and_reads_repeats_as_zero(ring):
    t = Multivector(4, 3, {(1, 2, 4): ring.var(4, 2)}, ring)
    assert t.component(4, 1, 2) == ring.var(4, 2)
    assert t.component(2, 1, 4) == -ring.var(4, 2)
    assert t.component(1, 1, 2).is_zero() and type(t.component(1, 1, 2)) is ring
    with pytest.raises(ValueError, match="out of range 1..4"):
        t.component(1, 2, 5)
    with pytest.raises(ValueError, match="does not have grade 3"):
        t.component(1, 2)
