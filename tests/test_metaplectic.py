"""Metaplectic extension Mp1: group laws, center, and the index-two subgroup."""

from fractions import Fraction as F
from random import Random

import numpy as np
import pytest

from symgeo.linalg import Matrix, _rand_full_rank, inverse
from symgeo.maslov import LerayLift, _triple_index
from symgeo.metaplectic import (Mp1Context, Mp1Element, _frame_block,
                                is_symplectic, mp1_identity, mp1_inverse,
                                mp1_mul, mp2_member, random_mp1)
from symgeo.symplectic import (LagrangianFrame, SymplecticSpace,
                               random_lagrangian, random_symplectic,
                               standard_gram)
from test_maslov import full_gram_index, is_symmetric, schur_product


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
    """tau(L, g1 L, g1 g2 L) on fully checked frames, by the full 3n Gram."""
    lag = ctx.base
    return full_gram_index([lag, LagrangianFrame(ctx.space, g1 @ lag.frame),
                            LagrangianFrame(ctx.space, g12 @ lag.frame)])


def _reference_mul(a: Mp1Element, b: Mp1Element) -> Mp1Element:
    g = a.g @ b.g
    return Mp1Element(a.ctx, a.w + b.w + _checked_cocycle(a.ctx, a.g, g), g)


@pytest.mark.parametrize("ctx, triples", SEEDED)
def test_cocycle_matches_checked_frames(ctx, triples):
    for a, b, c in triples:
        for g1, g2 in ((a.g, b.g), (b.g, c.g), (a.g, inverse(a.g))):
            g = g1 @ g2
            blocks = (_frame_block(ctx, h) for h in (g1, g, g2))
            assert _triple_index(*blocks) == _checked_cocycle(ctx, g1, g)


def _transvection(space: SymplecticSpace, u: list, c) -> Matrix:
    """I + c u (Omega u)^T, symplectic for every Omega."""
    col = Matrix.exact([[x] for x in u])
    return Matrix.identity(space.dim) + col @ (space.omega @ col).T.scale(c)


def _big_elements(ctx: Mp1Context) -> list:
    """Two transvections with 2**80 in their denominators and their
    product, checked elements of ctx."""
    dim = ctx.space.dim
    t1 = _transvection(ctx.space, [F(k + 1, 3) for k in range(dim)], F(1, 2 ** 80))
    t2 = _transvection(ctx.space, [(-1) ** k for k in range(dim)],
                       F(5, 2 ** 80 + 1))
    return [Mp1Element.of(ctx, w, g) for w, g in ((1, t1), (-2, t2), (0, t1 @ t2))]


@pytest.mark.parametrize("ctx, triples", SEEDED)
def test_block_cocycle_matches_checked_frames(ctx, triples, triple_branches):
    """The twist of ``mp1_mul``, read from the factors' cached blocks,
    is the Kashiwara index on fully checked image frames.  An identity
    first factor has X(id) = F^T Omega F = 0, so both branches run."""
    e = mp1_identity(ctx)
    big = _big_elements(ctx)
    assert all(el.g.den > 2 ** 79 for el in big)
    for a, b, _ in triples:
        inv, ab = mp1_inverse(a), mp1_mul(a, b)
        for x, y in ((a, b), (a, inv), (inv, a), (e, a), (a, e), (e, e),
                     (ab, inv), (big[0], a), (a, big[1]), (big[0], big[1]),
                     (big[2], ab), (inv, big[2])):
            got = mp1_mul(x, y).w - x.w - y.w
            assert got == _checked_cocycle(ctx, x.g, x.g @ y.g)
    assert triple_branches["schur"] and triple_branches["gram"]


@pytest.mark.parametrize("ctx, triples", SEEDED)
def test_schur_product_of_the_cocycle_blocks_is_symmetric(ctx, triples):
    """B (d A^-1 C^T) on the blocks (X(a), X(ab), X(b)) that ``mp1_mul``
    hands to ``_triple_index`` is symmetric whenever det X(a) != 0."""
    transverse = 0
    for a, b, c in triples:
        ab = mp1_mul(a, b)
        for x, y in ((a, b), (b, c), (ab, c), (a, mp1_inverse(a)), (c, ab)):
            w = schur_product(x._block, mp1_mul(x, y)._block, y._block)
            if w is not None:
                assert is_symmetric(w)
                transverse += 1
    assert transverse


@pytest.mark.parametrize("w", [2.5, True, "2", 2.0])
def test_witt_part_must_be_an_int(w):
    """A w that is not an int is refused by the checked constructor and by
    ``of``, not truncated or carried into products."""
    ctx = Mp1Context.standard(1)
    g = Matrix.identity(2)
    with pytest.raises(ValueError, match="must be an int"):
        Mp1Element(ctx, w, g)
    with pytest.raises(ValueError, match="must be an int"):
        Mp1Element.of(ctx, w, g)
    a = Mp1Element.of(ctx, 2, g)
    assert type(mp1_mul(a, a).w) is int and type(mp1_inverse(a).w) is int


def test_cached_block_leaves_eq_hash_and_repr():
    rng = Random("mp1:cached-block")
    ctx = Mp1Context.standard(2)
    a, b = random_mp1(ctx, rng), random_mp1(ctx, rng)
    prod = mp1_mul(a, b)
    for el in (a, b, prod):
        assert "_block" in vars(el)
        twin = Mp1Element.of(ctx, el.w, el.g)
        assert "_block" not in vars(twin)
        assert (el == twin, hash(el), repr(el)) == (True, hash(twin), repr(twin))
        assert twin._block == el._block


def _dense_is_symplectic(space: SymplecticSpace, g: Matrix) -> bool:
    return g.T @ space.omega @ g == space.omega


@pytest.mark.parametrize("n", [1, 2, 3])
def test_is_symplectic_matches_dense_check(n):
    """The below-diagonal check on Omega's nonzeros agrees with the dense
    g^T Omega g = Omega on seeded symplectic g, on every single-entry
    perturbation of them, on scalings, and refuses wrong shapes."""
    rng = Random(f"mp1:is-symplectic:{n}")
    for ctx in _contexts(n, rng).values():
        space = ctx.space
        for _ in range(2):
            g = random_symplectic(space, rng, transvections=5)
            assert is_symplectic(space, g) and _dense_is_symplectic(space, g)
            for i in range(space.dim):
                for j in range(space.dim):
                    rows = [list(r) for r in g.entries]
                    rows[i][j] += F(1, 3)
                    h = Matrix.exact(rows)
                    assert is_symplectic(space, h) == _dense_is_symplectic(space, h)
            for k in (-1, 2, F(1, 2), F(-3, 5)):
                h = g.scale(k)
                assert is_symplectic(space, h) == _dense_is_symplectic(space, h) \
                    == (k * k == 1)
            for shape in ((space.dim + 1, space.dim), (space.dim, space.dim + 1),
                          (space.dim - 1, space.dim - 1)):
                bad = Matrix.exact([[int(r == c) for c in range(shape[1])]
                                    for r in range(shape[0])])
                assert not is_symplectic(space, bad)


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
    """A context over its own copies of the standard Omega and base (a
    matrix carries no tol, so equal up to tol is plain equality) is the
    standard context: products agree with the one-context ones."""
    std = Mp1Context.standard(1)
    twin_space = SymplecticSpace(Matrix.exact([[0, 1], [-1, 0]]))
    twin = Mp1Context(twin_space, LagrangianFrame(
        twin_space, Matrix.exact([[0], [1]])))
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
        Mp1Element.of(ctx, 0, np.array([[1.0, 1.0], [1.0, 1.0]]))


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


def _central(ctx: Mp1Context, w: int, others: list) -> bool:
    """True iff (w, id) commutes with every listed element."""
    c = Mp1Element.of(ctx, w, Matrix.identity(ctx.space.dim))
    return all(mp1_mul(c, el) == mp1_mul(el, c) for el in others)


def test_center_contains_witt_summands():
    rng = Random(3)
    ctx = Mp1Context.standard(1)
    others = [random_mp1(ctx, rng) for _ in range(8)]
    for w in (-2, 0, 1, 3):
        assert _central(ctx, w, others)


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
