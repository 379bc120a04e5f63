"""`realify_metric` cross-checks both exact inverses against the inverse metric.

The elimination is patched to return a wrong inverse, first for h and then
for k, and the block-pattern check must catch each one.
"""

from fractions import Fraction

import pytest

import holomult.realify
from holomult.metric import HoloMetric
from holomult.realify import realify_metric
from holomult.scalars import GaussianRational


@pytest.mark.parametrize("which, wrong", [(0, "h"), (1, "k")])
def test_a_wrong_inverse_fails_its_block_pattern(monkeypatch, which, wrong):
    metric = HoloMetric([[1, GaussianRational(0, 1)], [GaussianRational(0, 1), 0]])
    realify_metric(metric)  # the unpatched inverses pass
    calls = []
    inverse = holomult.realify._inverse

    def perturbed(matrix, one):
        result = inverse(matrix, one)
        if len(calls) == which:
            result[1][2] += Fraction(1, 7)
        calls.append(matrix)
        return result

    monkeypatch.setattr(holomult.realify, "_inverse", perturbed)
    with pytest.raises(AssertionError, match=f"^{wrong}-inverse block pattern failed$"):
        realify_metric(metric)
    assert len(calls) == 2
