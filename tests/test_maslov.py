"""Index calculators: Kashiwara, Wall, Arnold, Leray."""

import math
from fractions import Fraction as F
from random import Random

import pytest

from symgeo.linalg import Matrix, inverse, kernel_basis
from symgeo.maslov import (LagrangianTuple, LerayLift, arnold_index_triple,
                           arnold_triple_lines, kashiwara_index,
                           kashiwara_space, leray_cyclic_sum, leray_m,
                           tuple_reduce, wall_invariant)
from symgeo.symplectic import (LagrangianFrame, SymplecticSpace,
                               lagrangian_from_angles, line_lagrangian,
                               random_lagrangian, random_symplectic,
                               standard_gram)
from symgeo.selftest import _rand_full_rank, _rand_line_dir


def test_triple_anchor_exact_directions():
    sp = SymplecticSpace.standard(1)
    # lines at angles 0, pi/4, pi/2: increasing, so +1; reversed, -1
    ls = [line_lagrangian(sp, d) for d in ((1, 0), (1, 1), (0, 1))]
    assert int(kashiwara_index(ls)) == 1
    assert int(kashiwara_index(list(reversed(ls)))) == -1


def test_triple_anchor_angles():
    sp = SymplecticSpace.standard(1)
    ls = [lagrangian_from_angles(sp, [t])
          for t in (0.0, math.pi / 3, 2 * math.pi / 3)]
    assert int(kashiwara_index(ls)) == 1
    assert int(kashiwara_index(list(reversed(ls)))) == -1


def test_degenerate_triples_vanish():
    sp = SymplecticSpace.standard(1)
    a = line_lagrangian(sp, (1, 0))
    b = line_lagrangian(sp, (1, 1))
    assert int(kashiwara_index([a, a, b])) == 0
    assert int(kashiwara_index([a, b, b])) == 0
    assert int(kashiwara_index([a, b, a])) == 0


def test_dihedral_symmetry():
    rng = Random(0)
    for n in (1, 2):
        sp = SymplecticSpace.standard(n)
        for _ in range(10):
            ls = [random_lagrangian(sp, rng) for _ in range(4)]
            t = int(kashiwara_index(ls))
            rotated = ls[1:] + ls[:1]
            assert int(kashiwara_index(rotated)) == t
            assert int(kashiwara_index(list(reversed(ls)))) == -t


def test_cocycle_identity_seeded():
    rng = Random(1)
    for n in (1, 2):
        sp = SymplecticSpace.standard(n)
        for _ in range(20):
            ls = [random_lagrangian(sp, rng) for _ in range(4)]
            s = (int(kashiwara_index(ls[1:]))
                 - int(kashiwara_index([ls[0], ls[2], ls[3]]))
                 + int(kashiwara_index([ls[0], ls[1], ls[3]]))
                 - int(kashiwara_index(ls[:3])))
            assert s == 0


def test_symplectic_invariance_seeded():
    rng = Random(2)
    for n in (1, 2):
        sp = SymplecticSpace.standard(n)
        for _ in range(8):
            ls = [random_lagrangian(sp, rng) for _ in range(3)]
            t = int(kashiwara_index(ls))
            g = random_symplectic(sp, rng)
            moved = [LagrangianFrame(sp, g @ l.frame) for l in ls]
            assert int(kashiwara_index(moved)) == t


def test_tuple_reduce_matches_index():
    rng = Random(3)
    sp = SymplecticSpace.standard(2)
    for _ in range(15):
        ls = tuple(random_lagrangian(sp, rng) for _ in range(rng.randint(3, 6)))
        tup = LagrangianTuple(sp, ls)
        assert int(tuple_reduce(tup)) == int(kashiwara_index(tup))


def test_kashiwara_space_signature_decomposes_index():
    rng = Random(4)
    sp = SymplecticSpace.standard(2)
    for _ in range(10):
        tup = LagrangianTuple(sp, tuple(random_lagrangian(sp, rng)
                                        for _ in range(4)))
        qs = kashiwara_space(tup)
        sig = qs.signature()
        assert sig.dim == qs.dim
        assert sig.pos - sig.neg == int(kashiwara_index(tup))


def _sharing(rng, lag, k):
    """A Lagrangian through the first k frame columns of ``lag``: a
    transvection along u in their omega-complement fixes them."""
    sp, f = lag.space, lag.frame
    perp = kernel_basis(f.columns(range(k)).T @ sp.omega)
    u = perp @ Matrix.exact([[rng.randint(-2, 2) or 1] for _ in range(perp.cols)])
    c = F(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice((1, -1))
    t = Matrix.identity(sp.dim) + (u @ (u.T @ sp.omega.T)).scale(c)
    return LagrangianFrame(sp, t @ f)


def _rand_tuple(rng, sp, r):
    """Random members; about a third of the tuples repeat a member's span
    under a new frame or share lines with an earlier member."""
    ls = [random_lagrangian(sp, rng, twists=rng.randint(2, 5)) for _ in range(r)]
    kind = rng.randrange(6)
    src, dst = rng.randrange(r - 1), rng.randrange(1, r)
    if kind == 0:
        mix = _rand_full_rank(rng, sp.n, sp.n)
        ls[dst] = LagrangianFrame(sp, ls[src].frame @ mix)
    elif kind == 1:
        ls[dst] = _sharing(rng, ls[src], rng.randint(1, sp.n))
    return ls


def _oracle(tup):
    sig = kashiwara_space(tup).signature()
    return sig.pos - sig.neg


@pytest.mark.parametrize("n,r_max,count", [
    (1, 6, 14), (2, 6, 10), (3, 5, 6), (4, 6, 3), (5, 4, 2), (6, 3, 2), (6, 6, 1),
])
def test_direct_sum_index_matches_quotient_space(n, r_max, count):
    rng = Random(f"direct-sum:{n}")
    sp = SymplecticSpace.standard(n)
    for i in range(count):
        r = r_max if i == 0 else rng.randint(2, r_max)
        tup = LagrangianTuple.of(*_rand_tuple(rng, sp, r))
        assert int(kashiwara_index(tup)) == _oracle(tup)


def test_direct_sum_index_on_a_rational_omega():
    rng = Random(20)
    for n in (1, 2, 3):
        a = _rand_full_rank(rng, 2 * n, 2 * n)
        omega = (a.T @ standard_gram(n) @ a).scale(F(2, 3))
        custom = SymplecticSpace.from_omega(omega)
        # A^-1 maps standard Lagrangians to Omega-Lagrangians and pulls Omega
        # back to 2/3 J, a positive multiple, so the index is unchanged
        to_custom = inverse(a)
        std = SymplecticSpace.standard(n)
        for _ in range(4):
            ls = _rand_tuple(rng, std, rng.randint(3, 5))
            moved = LagrangianTuple.of(*(LagrangianFrame(custom, to_custom @ l.frame)
                                         for l in ls))
            want = int(kashiwara_index(ls))
            assert int(kashiwara_index(moved)) == want
            assert _oracle(moved) == want


def test_approx_index_matches_exact_on_converted_tuples():
    # float copies of these rational frames reach entries near 1.7e6; with
    # the raw frames in place of their QR factors, 32 of the 150 indices
    # come out wrong without any error
    rng = Random(21)
    for _ in range(150):
        sp = SymplecticSpace.standard(rng.randint(1, 4))
        ls = _rand_tuple(rng, sp, rng.randint(3, 6))
        floats = [LagrangianFrame(sp, l.frame.to_approx()) for l in ls]
        assert int(kashiwara_index(floats)) == int(kashiwara_index(ls))


def test_wall_equals_kashiwara_seeded():
    rng = Random(5)
    for n in (1, 2, 3):
        sp = SymplecticSpace.standard(n)
        for _ in range(12):
            l1, l2, l3 = (random_lagrangian(sp, rng) for _ in range(3))
            assert int(wall_invariant(l1, l2, l3)) == \
                int(kashiwara_index([l1, l2, l3]))


def test_arnold_triple_lines_properties():
    rng = Random(6)
    sp = SymplecticSpace.standard(1)
    assert arnold_triple_lines((1, 0), (1, 1), (0, 1)) == 1
    assert arnold_triple_lines((1, 2), (-2, -4), (0, 1)) == 0
    for _ in range(60):
        ds = [_rand_line_dir(rng) for _ in range(3)]
        a = arnold_triple_lines(*ds)
        assert arnold_triple_lines(ds[1], ds[0], ds[2]) == -a
        assert arnold_triple_lines(ds[1], ds[2], ds[0]) == a
        frames = [line_lagrangian(sp, d) for d in ds]
        assert int(kashiwara_index(frames)) == a


def test_arnold_float_agrees_on_separated_angles():
    sp = SymplecticSpace.standard(1)
    rng = Random(7)
    for _ in range(25):
        thetas = sorted(rng.uniform(0.05, math.pi - 0.05) for _ in range(3))
        if thetas[1] - thetas[0] < 0.05 or thetas[2] - thetas[1] < 0.05:
            continue
        order = [0, 1, 2]
        rng.shuffle(order)
        frames = [lagrangian_from_angles(sp, [thetas[i]]) for i in order]
        assert arnold_index_triple(*frames) == int(kashiwara_index(frames))


def test_leray_m_antisymmetric():
    rng = Random(8)
    for _ in range(40):
        l1 = LerayLift.from_direction(*_rand_line_dir(rng), rng.randint(-2, 2))
        l2 = LerayLift.from_direction(*_rand_line_dir(rng), rng.randint(-2, 2))
        assert leray_m(l1, l2) + leray_m(l2, l1) == 0


def test_leray_m_anchors():
    up = LerayLift.from_direction(0, 1, 0)       # angle pi/2
    flat = LerayLift.from_direction(1, 0, 0)     # angle 0
    assert leray_m(up, flat) == -1
    assert leray_m(flat, up) == 1
    # same line, different winding
    assert leray_m(LerayLift.from_direction(1, 0, 1), flat) == -2


def test_leray_sum_matches_index():
    rng = Random(9)
    sp = SymplecticSpace.standard(1)
    for _ in range(60):
        r = rng.randint(3, 6)
        lifts = [LerayLift.from_direction(*_rand_line_dir(rng), rng.randint(-2, 2))
                 for _ in range(r)]
        assert leray_cyclic_sum(lifts) == \
            int(kashiwara_index([lf.line(sp) for lf in lifts]))


def test_leray_exact_fraction_lifts():
    lifts = [LerayLift(F(0)), LerayLift(F(1, 3)), LerayLift(F(2, 3))]
    assert leray_cyclic_sum(lifts) == 1


def test_tuple_needs_enough_members():
    sp = SymplecticSpace.standard(1)
    a = line_lagrangian(sp, (1, 0))
    b = line_lagrangian(sp, (0, 1))
    with pytest.raises(ValueError):
        LagrangianTuple.of(a)
    # a pair carries no index: the cyclic form telescopes away
    assert int(kashiwara_index([a, b])) == 0
