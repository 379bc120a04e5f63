"""Every skew object holds components of its own ring only.

The ring check lives in the shared container, so multivectors, forms,
bivectors and fields all reject a component of the other ring when they are
built, not later inside the calculus.
"""

import pytest

from holomult.calculus import Form, Multivector, VectorField, VolumeForm
from holomult.poisson import Bivector, modular_field
from holomult.poly import CPoly, RPoly
from holomult.realify import RealBivector


def test_real_bivector_rejects_a_complex_component():
    with pytest.raises(TypeError, match="ring mismatch: RealBivector components must be RPoly"):
        RealBivector(2, {(1, 2): CPoly.var(2, 1)})


def test_multivector_rejects_a_real_component():
    with pytest.raises(TypeError, match="ring mismatch: Multivector components must be CPoly"):
        Multivector(2, 1, {(1,): RPoly.var(2, 1)})


def test_each_container_checks_its_ring():
    with pytest.raises(TypeError, match="Bivector components must be CPoly"):
        Bivector(3, {(1, 2): CPoly.var(3, 1), (2, 3): RPoly.var(3, 2)})
    with pytest.raises(TypeError, match="Multivector components must be RPoly"):
        Multivector(2, 2, {(1, 2): CPoly.var(2, 1)}, RPoly)
    with pytest.raises(TypeError, match="Form components must be CPoly"):
        Form(2, 1, {(2,): RPoly.var(2, 1)})
    # a zero component of the wrong ring is rejected before it is dropped
    with pytest.raises(TypeError, match="Multivector components must be CPoly"):
        Multivector(2, 1, {(1,): RPoly.zero(2)})
    with pytest.raises(TypeError, match="VectorField components must be CPoly"):
        VectorField(2, [RPoly.zero(2), CPoly.var(2, 1)])


def test_a_well_typed_real_bivector_still_runs():
    q = RealBivector(2, {(1, 2): RPoly.var(2, 1)})
    assert modular_field(q, VolumeForm(2)).components == [RPoly.zero(2), RPoly.const(2, -1)]
