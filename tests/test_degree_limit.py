"""The degree limit of packed monomials, at its edge.

A monomial is packed into fields of `_B` bits, and no field carries into its
neighbour while the degree stays below 2^_B.  So the public constructor
refuses a degree above 2^_B - 1, and a product (`*`, a product item of
`_sum`, a square of `_sum_squares`) refuses operands whose degrees add to
2^_B or more before it convolves a single term: a check on the result could
not see a carry, since wrongly packed keys can cancel.  Through the CLI the
refusal is bad input, exit 2 with one `error:` line.
"""

import pytest

import holomult.poly
from holomult.cli import main
from holomult.poly import _B, _MAX_DEGREE, CPoly, RPoly, _pack

LIMIT_TEXT = f"polynomial degree exceeds the limit of {2**_B - 1}"
RINGS = [CPoly, RPoly]


def test_the_limit_is_the_largest_field():
    assert _MAX_DEGREE == 2**_B - 1 == 18446744073709551615


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
def test_the_constructor_accepts_the_largest_degree(ring):
    for mono in [(_MAX_DEGREE, 0), (0, _MAX_DEGREE), (2**63, 2**63 - 1)]:
        p = ring(2, {mono: 3, (1, 1): 1})
        assert p.leading()[0] == mono
        assert p.terms == {mono: 3, (1, 1): 1}
        assert max(p._re) == _pack(mono)
        if mono[0]:
            assert p.diff(1).leading() == ((mono[0] - 1, mono[1]), 3 * mono[0])


@pytest.mark.parametrize("ring", RINGS)
def test_one_product_reaches_the_largest_degree(ring, convolutions):
    z1, z2 = ring.var(2, 1), ring.var(2, 2)
    high = ring(2, {(_MAX_DEGREE - 1, 0): 1, (0, 0): 2})
    assert (high * z1).leading()[0] == (_MAX_DEGREE, 0)
    assert (high * z2).leading()[0] == (_MAX_DEGREE - 1, 1)
    assert (high * z2).terms == {(_MAX_DEGREE - 1, 1): 1, (0, 1): 2}
    half = ring(2, {(2**63 - 1, 0): 1})
    assert (half * ring(2, {(0, 2**63): 1})).terms == {(2**63 - 1, 2**63): 1}
    assert ring._sum_squares(2, [ring(2, {(2**62, 2**62 - 1): 1})]).leading()[0] == (2**63, 2**63 - 2)
    assert convolutions


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("mono", [(_MAX_DEGREE + 1, 0), (_MAX_DEGREE, 1), (2**63, 2**63), (2**200, 0)])
def test_the_constructor_refuses_a_larger_degree(ring, mono):
    with pytest.raises(ValueError, match=LIMIT_TEXT):
        ring(2, {mono: 1})


@pytest.mark.parametrize("ring", RINGS)
def test_a_product_past_the_limit_is_refused_before_it_convolves(ring, convolutions):
    top = ring(2, {(_MAX_DEGREE, 0): 1})
    halves = ring(2, {(2**63, 0): 1, (0, 0): 1}), ring(2, {(0, 2**63): 1})
    cases = [
        lambda: top * ring.var(2, 2),
        lambda: halves[0] * halves[1],
        lambda: ring._sum(2, [(1, top), (1, ring.var(2, 1), top)]),
        lambda: ring._sum(2, [(-1, halves[1], halves[0]), (1, ring.var(2, 1), ring.var(2, 2))]),
        lambda: ring._sum_squares(2, [ring.var(2, 1), halves[1]]),
        lambda: top ** 2,
    ]
    for case in cases:
        with pytest.raises(ValueError, match=LIMIT_TEXT):
            case()
    assert convolutions == []


@pytest.mark.parametrize("ring", RINGS)
def test_repeated_squaring_stops_at_the_limit(ring, convolutions):
    p = ring.var(1, 1)
    done = 0
    with pytest.raises(ValueError, match=LIMIT_TEXT):
        for _ in range(_B + 6):
            p = p * p
            done += 1
    # z1^(2^63) is the last square below the limit; its square is never convolved
    assert done == _B - 1 and p.leading()[0] == (2**63,)
    assert len(convolutions) == _B - 1


def test_a_power_past_the_limit_exits_two(capsys):
    field = "(((((((z1^1000)^1000)^1000)^1000)^1000)^1000)^1000)"
    assert main(["div", "--dim", "1", "--field", field]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {LIMIT_TEXT}\n"


def test_a_power_below_the_limit_still_runs(capsys):
    field = "((((((z1^1000)^1000)^1000)^1000)^1000)^1000)"
    assert main(["div", "--dim", "1", "--field", field]) == 0
    assert capsys.readouterr().out == "1000000000000000000*(z1)^999999999999999999\n"


def test_a_manifest_past_the_limit_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.mf"
    path.write_text("[dim]\n1\n[poly]\n"
                    "f = (((((((z1^1000)^1000)^1000)^1000)^1000)^1000)^1000)\n"
                    "[task]\nfirst_integral f f\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and LIMIT_TEXT in err and "Traceback" not in err
