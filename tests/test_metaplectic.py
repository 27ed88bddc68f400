"""Metaplectic extension Mp1: group laws, center, and the index-two subgroup."""

from fractions import Fraction as F
from random import Random

import pytest

from symgeo.linalg import Matrix
from symgeo.maslov import LerayLift
from symgeo.metaplectic import (Mp1Context, Mp1Element, is_symplectic,
                                mp1_central_check, mp1_identity, mp1_inverse,
                                mp1_mul, mp2_member, random_mp1)
from symgeo.symplectic import SymplecticSpace


def _eq(a, b):
    return int(a.w) == int(b.w) and (a.g - b.g).is_zero()


def test_element_rejects_non_symplectic():
    ctx = Mp1Context.standard(1)
    with pytest.raises(ValueError):
        Mp1Element.of(ctx, 0, Matrix.exact([[1, 1], [1, 1]]))


@pytest.mark.parametrize("diag", [
    (2 ** 80 + 1, 3, F(1, 2 ** 80 + 1), F(1, 3) + F(1, 2 ** 80)),
    (2 ** 80, 1, 2 ** 80, 1),
])
def test_element_rejects_big_non_symplectic(diag):
    ctx = Mp1Context.standard(2)
    with pytest.raises(ValueError, match="^matrix is not symplectic for this space$"):
        Mp1Element.of(ctx, 0, Matrix.diagonal(diag))
    # x_i scaled by a and y_i by 1/a is symplectic, however large a is
    a, b = F(diag[0]), F(diag[1])
    ok = Mp1Element.of(ctx, 1, Matrix.diagonal([a, b, 1 / a, 1 / b]))
    assert ok.g.den > 2 ** 79


def test_element_refuses_approx_before_checking():
    ctx = Mp1Context.standard(1)
    with pytest.raises(ValueError, match="^group elements use exact matrices$"):
        Mp1Element.of(ctx, 0, Matrix.approx([[1.0, 1.0], [1.0, 1.0]]))


def test_is_symplectic_guard():
    sp = SymplecticSpace.standard(1)
    assert is_symplectic(sp, Matrix.exact([[0, -1], [1, 0]]))
    assert not is_symplectic(sp, Matrix.exact([[2, 0], [0, 2]]))


def test_identity_and_inverse():
    rng = Random(0)
    for n in (1, 2, 3):
        ctx = Mp1Context.standard(n)
        e = mp1_identity(ctx)
        for _ in range(10):
            a = random_mp1(ctx, rng)
            assert _eq(mp1_mul(e, a), a)
            assert _eq(mp1_mul(a, e), a)
            assert _eq(mp1_mul(a, mp1_inverse(a)), e)
            assert _eq(mp1_mul(mp1_inverse(a), a), e)


def test_associativity_seeded():
    rng = Random(1)
    for n in (1, 2):
        ctx = Mp1Context.standard(n)
        for _ in range(25):
            a, b, c = (random_mp1(ctx, rng) for _ in range(3))
            assert _eq(mp1_mul(mp1_mul(a, b), c), mp1_mul(a, mp1_mul(b, c)))


def test_projection_is_homomorphism():
    rng = Random(2)
    ctx = Mp1Context.standard(2)
    for _ in range(15):
        a, b = random_mp1(ctx, rng), random_mp1(ctx, rng)
        assert ((mp1_mul(a, b).g) - (a.g @ b.g)).is_zero()


def test_center_contains_witt_summands():
    rng = Random(3)
    ctx = Mp1Context.standard(1)
    others = [random_mp1(ctx, rng) for _ in range(8)]
    for w in (-2, 0, 1, 3):
        assert mp1_central_check(ctx, w, others)


def test_mp2_membership_by_witt_square():
    ctx = Mp1Context.standard(1)
    lift = LerayLift.from_direction(1, 0, 0)
    for w, want in ((0, True), (1, False), (2, False), (4, True), (-4, True)):
        el = Mp1Element.of(ctx, w, Matrix.identity(2))
        assert mp2_member(el, lift, lift) == want


def test_mp2_membership_lift_shift_invariant():
    ctx = Mp1Context.standard(1)
    el = Mp1Element.of(ctx, 0, Matrix.identity(2))
    base = LerayLift.from_direction(1, 0, 0)
    shifted = LerayLift.from_direction(1, 0, 2)   # same line, +2 pi
    assert mp2_member(el, base, base) == mp2_member(el, base, shifted)


def test_mp2_rejects_higher_rank():
    ctx = Mp1Context.standard(2)
    el = mp1_identity(ctx)
    lift = LerayLift.from_direction(1, 0, 0)
    with pytest.raises(ValueError):
        mp2_member(el, lift, lift)
