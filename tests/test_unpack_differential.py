"""`poly._unpack` against the shift loop it replaced.

`_unpack` reads a packed monomial's bytes as n + 1 big-endian 64-bit fields
in one `struct` call and drops the degree field.  The shift loop below is the
old reading, one shift and mask per variable; both must give the same tuple
for every key, exponent fields of 0 and 2^64 - 1 included.
"""

import random

import pytest

from holomult.poly import _B, _FIELD, _pack, _unpack

TOP = 2**64 - 1


def shift_unpack(key, n):
    return tuple([key >> shift & _FIELD for shift in range((n - 1) * _B, -1, -_B)])


def test_fields_are_64_bits():
    assert (_B, _FIELD) == (64, TOP)


@pytest.mark.parametrize("n", range(65))
def test_random_keys_read_as_the_shift_loop_reads_them(n):
    rng = random.Random(9100 + n)
    monos = [(0,) * n]
    for k in range(n):  # one field at its largest value, the others 0
        monos.append(tuple(TOP if j == k else 0 for j in range(n)))
    for bits in (3, 20, 58):
        for _ in range(6):
            cap = min(2**bits, TOP // max(n, 1))  # the degree stays below 2^64
            monos.append(tuple(rng.randint(0, cap) for _ in range(n)))
    for mono in monos:
        key = _pack(mono)
        assert _unpack(key, n) == shift_unpack(key, n) == mono
        assert type(_unpack(key, n)) is tuple
