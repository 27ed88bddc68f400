"""Witt classes over R and C and the fundamental-ideal filtration."""

from fractions import Fraction as F
from random import Random

import pytest

from symgeo.linalg import Matrix, sym_signature
from symgeo.witt import (ideal_power_member_real, witt_of_form_complex,
                         witt_of_form_real)


def _diag(entries):
    size = len(entries)
    return Matrix.exact([[F(entries[r]) if r == c else F(0)
                          for c in range(size)] for r in range(size)])


def test_real_anchors():
    assert witt_of_form_real(_diag([1, 1, -1])) == 1
    assert witt_of_form_real(_diag([1, -1])) == 0      # hyperbolic plane
    assert witt_of_form_real(_diag([1, 1, 0])) == 2    # radical drops out
    assert witt_of_form_real(_diag([-3])) == -1        # scale is irrelevant


def test_real_additivity():
    rng = Random(0)
    for _ in range(40):
        d1 = [rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 4))]
        d2 = [rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 4))]
        total = witt_of_form_real(_diag(d1 + d2))
        assert total == witt_of_form_real(_diag(d1)) + \
            witt_of_form_real(_diag(d2))


def test_complex_parity():
    assert witt_of_form_complex(_diag([1, -1, 2])) == 1
    assert witt_of_form_complex(_diag([1, 1])) == 0
    # only the anisotropic dimension mod 2 survives
    assert witt_of_form_complex(_diag([5, 0, 0])) == 1


def test_ideal_filtration_is_powers_of_two():
    rng = Random("witt:ideal-bits")
    pairs = [(value, k) for value in range(-8, 9) for k in range(5)]
    pairs += [(rng.choice([0, rng.randint(-64, 64), rng.randint(-10**6, 10**6),
                           rng.getrandbits(200) - (1 << 199)]),
               rng.choice([rng.randint(0, 12), rng.randint(0, 250)]))
              for _ in range(20000)]
    for value, k in pairs:
        assert ideal_power_member_real(value, k) == (value % (2 ** k) == 0)


def test_ideal_huge_power_builds_no_power_of_two():
    # 2^k for k = 10^12 would take 125 GB; the bit rule never builds it
    k = 10 ** 12
    assert ideal_power_member_real(0, k)
    assert not ideal_power_member_real(1 << 4000, k)
    assert not ideal_power_member_real(-(3 << 77), k)
    assert ideal_power_member_real(-(3 << 77), 77)
    assert not ideal_power_member_real(-(3 << 77), 78)


def test_ideal_rejects_negative_power():
    with pytest.raises(ValueError):
        ideal_power_member_real(2, -1)


def test_of_signature_consistent():
    rng = Random(1)
    for _ in range(25):
        d = [rng.choice([-1, 1, 0]) for _ in range(rng.randint(1, 5))]
        sig = sym_signature(_diag(d))
        assert witt_of_form_real(_diag(d)) == sig.pos - sig.neg == \
            d.count(1) - d.count(-1)
