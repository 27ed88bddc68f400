"""Metaplectic extension Mp1: group laws, center, and the index-two subgroup."""

from fractions import Fraction as F
from random import Random

import pytest

from symgeo.linalg import Matrix, _rand_full_rank, inverse
from symgeo.maslov import LerayLift, kashiwara_index
from symgeo.metaplectic import (Mp1Context, Mp1Element, _cocycle,
                                is_symplectic, mp1_central_check, mp1_identity,
                                mp1_inverse, mp1_mul, mp2_member, random_mp1)
from symgeo.symplectic import (LagrangianFrame, SymplecticSpace,
                               random_lagrangian, standard_gram)


def _eq(a, b):
    return int(a.w) == int(b.w) and (a.g - b.g).is_zero()


def _vertical(n: int) -> Matrix:
    return Matrix.zeros(n, n).vstack(Matrix.identity(n))


def _custom_space(n: int, rng: Random) -> tuple:
    """(Omega = 2/3 A^T J A, A^-1): A^-1 maps standard Lagrangians to
    Omega-Lagrangians."""
    a = _rand_full_rank(rng, 2 * n, 2 * n)
    space = SymplecticSpace((a.T @ standard_gram(n) @ a).scale(F(2, 3)))
    return space, inverse(a)


def _contexts(n: int, rng: Random) -> dict:
    """The three kinds of context: standard Omega with the vertical base, a
    rational Omega, and standard Omega with a random non-vertical base."""
    std = SymplecticSpace.standard(n)
    custom, to_custom = _custom_space(n, rng)
    return {
        "vertical": Mp1Context.standard(n),
        "custom": Mp1Context(custom, LagrangianFrame(custom, to_custom @ _vertical(n))),
        "graph": Mp1Context(std, random_lagrangian(std, rng)),
    }


def _seeded_cases() -> list:
    """One case per context kind and n = 1..3: the context and four
    triples of seeded elements."""
    rng = Random("mp1:oracles")
    cases = []
    for n in (1, 2, 3):
        for kind, ctx in _contexts(n, rng).items():
            triples = [[random_mp1(ctx, rng) for _ in range(3)] for _ in range(4)]
            cases.append(pytest.param(ctx, triples, id=f"{kind}-n{n}"))
    return cases


SEEDED = _seeded_cases()


def _checked_cocycle(ctx: Mp1Context, g1: Matrix, g12: Matrix) -> int:
    """tau(L, g1 L, g1 g2 L) on fully checked frames."""
    lag = ctx.base
    return kashiwara_index([lag, LagrangianFrame(ctx.space, g1 @ lag.frame),
                            LagrangianFrame(ctx.space, g12 @ lag.frame)])


def _reference_mul(a: Mp1Element, b: Mp1Element) -> Mp1Element:
    g = a.g @ b.g
    return Mp1Element(a.ctx, a.w + b.w + _checked_cocycle(a.ctx, a.g, g), g)


@pytest.mark.parametrize("ctx, triples", SEEDED)
def test_cocycle_matches_checked_frames(ctx, triples):
    for a, b, c in triples:
        for g1, g2 in ((a.g, b.g), (b.g, c.g), (a.g, inverse(a.g))):
            g = g1 @ g2
            assert _cocycle(ctx, g1, g) == _checked_cocycle(ctx, g1, g)


@pytest.mark.parametrize("ctx, triples", SEEDED)
def test_inverse_matches_elimination(ctx, triples):
    for a in (el for triple in triples for el in triple):
        inv = mp1_inverse(a)
        assert inv.g == inverse(a.g)
        assert (inv.ctx, inv.w) == (a.ctx, -a.w)
        assert is_symplectic(ctx.space, inv.g)


@pytest.mark.parametrize("ctx, triples", SEEDED)
def test_product_matches_checked_reference(ctx, triples):
    for a, b, c in triples:
        for x, y in ((a, b), (b, c), (mp1_mul(a, b), c), (a, mp1_inverse(a))):
            got, want = mp1_mul(x, y), _reference_mul(x, y)
            assert type(got) is Mp1Element
            assert (got.ctx, got.w, got.g) == (want.ctx, want.w, want.g)


def _non_isotropic(n: int) -> Matrix:
    """The frame (x_1, y_1, x_2, ..., x_{n-1}) in standard coordinates."""
    cols = [0, n] + list(range(1, n - 1))
    return Matrix.exact([[int(r == c) for c in cols] for r in range(2 * n)])


def test_public_checks_still_refuse():
    rng = Random("mp1:refusals")
    for n in (1, 2, 3):
        bad = Matrix.identity(2 * n).scale(2)
        for ctx in _contexts(n, rng).values():
            for make in (Mp1Element, Mp1Element.of):
                with pytest.raises(ValueError,
                                   match="^matrix is not symplectic for this space$"):
                    make(ctx, 0, bad)
        if n == 1:   # every line in the plane is Lagrangian
            continue
        custom, to_custom = _custom_space(n, rng)
        for space, to in ((SymplecticSpace.standard(n), Matrix.identity(2 * n)),
                          (custom, to_custom)):
            with pytest.raises(ValueError, match="^frame is not isotropic$"):
                LagrangianFrame(space, to @ _non_isotropic(n))


def test_base_from_another_space_is_refused():
    """A base Lagrangian of another Omega of the same size is refused when
    the context is built, before any group operation can use it."""
    rng = Random("mp1:foreign-base")
    for n in (1, 2, 3):
        custom, to_custom = _custom_space(n, rng)
        with pytest.raises(ValueError,
                           match="^base Lagrangian lives in another space$"):
            Mp1Context(SymplecticSpace.standard(n),
                       LagrangianFrame(custom, to_custom @ _vertical(n)))
    # an equal Omega built apart is the same space
    twin = SymplecticSpace(standard_gram(2))
    ctx = Mp1Context(SymplecticSpace.standard(2), LagrangianFrame(twin, _vertical(2)))
    assert ctx.base.space is not ctx.space


def test_mul_refuses_mixed_base_lagrangians():
    std = SymplecticSpace.standard(1)
    vertical = Mp1Context.standard(1)
    horizontal = Mp1Context(std, LagrangianFrame(std, Matrix.exact([[1], [0]])))
    a, b = random_mp1(vertical, Random(1)), random_mp1(horizontal, Random(1))
    assert a.g == b.g
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError,
                           match="^elements use different base Lagrangians$"):
            mp1_mul(x, y)
    # an equal context built apart is the same context
    twin = Mp1Element(Mp1Context.standard(1), a.w, a.g)
    assert twin.ctx is not a.ctx
    assert _eq(mp1_mul(a, twin), mp1_mul(a, a))


def test_mul_refuses_mixed_spaces():
    rng = Random("mp1:mixed-spaces")
    custom, to_custom = _custom_space(1, rng)
    other = Mp1Context(custom, LagrangianFrame(custom, to_custom @ _vertical(1)))
    a = random_mp1(Mp1Context.standard(1), rng)
    b = random_mp1(other, rng)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError,
                           match="^elements live over different spaces$"):
            mp1_mul(x, y)


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


def test_mul_accepts_contexts_equal_up_to_tol():
    """A context over the standard Omega and base built with another tol
    is the standard context: products agree with the one-context ones."""
    std = Mp1Context.standard(1)
    omega = Matrix.from_rows([[0, 1], [-1, 0]], "exact", tol=1e-6)
    twin_space = SymplecticSpace(omega)
    twin = Mp1Context(twin_space, LagrangianFrame(
        twin_space, Matrix.from_rows([[0], [1]], "exact", tol=1e-6)))
    assert twin == std
    rng = Random("mp1:tol-twin")
    for _ in range(5):
        a, b = random_mp1(std, rng), random_mp1(std, rng)
        b_twin = Mp1Element.of(twin, b.w, b.g)
        assert mp1_mul(a, b_twin) == mp1_mul(a, b)
        assert mp1_mul(b_twin, a) == mp1_mul(b, a)


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
