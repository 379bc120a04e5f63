"""A vector field holds components of its own ring only."""

import pytest

from holomult.calculus import RealVectorField, VectorField
from holomult.poly import CPoly, RPoly


def test_real_field_rejects_a_complex_component():
    with pytest.raises(TypeError, match="RealVectorField components must be RPoly"):
        RealVectorField(1, [CPoly.var(1, 1)])


def test_complex_field_rejects_a_real_component():
    with pytest.raises(TypeError, match="VectorField components must be CPoly"):
        VectorField(2, [CPoly.var(2, 1), RPoly.var(2, 2)])

