"""Symplectic spaces, Lagrangian frames, and the unitary representation."""

import math
import re
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest

from symgeo.linalg import Matrix, _rand_full_rank, inverse, kernel_basis, rank
from symgeo.symplectic import (LagrangianFrame, Subspace, SymplecticSpace,
                               classify_subspace, det_squared, graph_lagrangian,
                               intersect_frames, lagrangian_from_angles,
                               line_lagrangian, loop_degree, random_lagrangian,
                               random_symplectic, standard_gram)


def test_standard_gram_shape():
    g = standard_gram(2)
    assert (g + g.T).is_zero()
    assert rank(g) == 4


@pytest.mark.parametrize("omega, message", [
    # not skew: the frame [[1], [0]] would otherwise pass as isotropic
    (Matrix.exact([[1, 0], [0, 0]]), "Gram matrix must be skew-symmetric"),
    (Matrix.exact([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
     "Gram matrix is degenerate"),
    (np.array([[0.0, 1.0], [-1.0, 0.0]]),
     "custom Gram matrices must be exact rationals"),
])
def test_direct_construction_checks_the_gram(omega, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SymplecticSpace(omega)


def test_a_space_is_its_omega():
    """A space built from its own copy of the standard Gram is the standard
    space; ``standard(n)`` is one shared instance per n."""
    omega = Matrix.exact([[0, 1], [-1, 0]])
    space = SymplecticSpace(omega)
    assert space.is_standard()
    assert space == SymplecticSpace.standard(1)
    assert hash(space) == hash(SymplecticSpace.standard(1))
    assert (space.n, space.dim) == (1, 2)
    for n in (1, 2, 3):
        assert SymplecticSpace.standard(n) is SymplecticSpace.standard(n)
    assert SymplecticSpace(standard_gram(2)) == SymplecticSpace.standard(2)
    assert space != SymplecticSpace(omega.scale(2))


def test_lagrangian_frame_validation():
    sp = SymplecticSpace.standard(2)
    with pytest.raises(ValueError):
        # not isotropic: spans a symplectic plane
        LagrangianFrame(sp, Matrix.exact([[1, 0], [0, 0], [0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        # rank-deficient frame
        LagrangianFrame(sp, Matrix.exact([[1, 2], [0, 0], [0, 0], [0, 0]]))


_BIG = 2 ** 80 + 1   # 80-bit entries: the integer checks must stay exact


@pytest.mark.parametrize("cols,message", [
    # dependent, also with the wrong count and not isotropic: dependence first
    ([[_BIG, 1, 0, 0], [2 * _BIG, 2, 0, 0], [0, 0, 1, 0]],
     "frame columns are linearly dependent"),
    ([[F(1, _BIG), 0, 0, 0], [F(2, _BIG), 0, 0, 0]],
     "frame columns are linearly dependent"),
    # independent but three columns, not isotropic either: the count next
    ([[_BIG, 0, 0, 0], [0, 1, 0, 0], [0, 0, F(1, _BIG), 0]],
     "a Lagrangian frame needs exactly n columns"),
    ([[_BIG, 0, 0, 0]], "a Lagrangian frame needs exactly n columns"),
    # two independent columns pairing to omega(e1, e3) != 0
    ([[_BIG, 0, 0, 0], [0, 0, F(1, _BIG), 0]], "frame is not isotropic"),
    ([[1, 0, 0, F(1, _BIG)], [0, 1, F(-1, _BIG), F(1, 3)]],
     "frame is not isotropic"),
])
def test_exact_frame_refusals_keep_their_order(cols, message):
    sp = SymplecticSpace.standard(2)
    frame = Matrix.exact([list(row) for row in zip(*cols)])
    with pytest.raises(ValueError, match=f"^{message}$"):
        LagrangianFrame(sp, frame)


def test_exact_frame_accepts_big_lagrangians():
    sp = SymplecticSpace.standard(2)
    # the graph of a symmetric matrix, columns rescaled by 80-bit rationals
    s = F(_BIG, 3)
    frame = Matrix.exact([[1, 0], [0, 1], [s, F(1, _BIG)], [F(1, _BIG), -s]])
    lag = LagrangianFrame(sp, frame @ Matrix.diagonal([F(_BIG, 7), F(-5, _BIG)]))
    assert lag.dim == 2


def test_exact_isotropy_refusal_on_a_rational_omega():
    """Omega = (2/3) A^T J A is dense and rational, and A^-1 g carries
    J-pairings to 2/3 of Omega-pairings for symplectic g.  The x axes with
    the last column bent by e_{2n-2} pair only that column with the one
    before it, the last pair the isotropy loop reaches."""
    rng = Random(22)
    for n in (2, 3, 4):
        a = _rand_full_rank(rng, 2 * n, 2 * n)
        custom = SymplecticSpace((a.T @ standard_gram(n) @ a).scale(F(2, 3)))
        to_custom = inverse(a) @ random_symplectic(
            SymplecticSpace.standard(n), rng)
        axes = [[int(r == c) for c in range(n)] for r in range(2 * n)]
        LagrangianFrame(custom, to_custom @ Matrix.exact(axes))
        axes[2 * n - 2][n - 1] = 1
        with pytest.raises(ValueError, match="^frame is not isotropic$"):
            LagrangianFrame(custom, to_custom @ Matrix.exact(axes))


def test_classify_subspace():
    sp = SymplecticSpace.standard(2)
    horiz = Matrix.exact([[1, 0], [0, 1], [0, 0], [0, 0]])
    line = Matrix.exact([[1], [0], [0], [0]])
    sympl = Matrix.exact([[1, 0], [0, 0], [0, 1], [0, 0]])
    coiso = Matrix.exact([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert classify_subspace(Subspace(sp, horiz)) == "lagrangian"
    assert classify_subspace(Subspace(sp, line)) == "isotropic"
    assert classify_subspace(Subspace(sp, sympl)) == "symplectic"
    assert classify_subspace(Subspace(sp, coiso)) == "coisotropic"


def span_contains(big, small):
    """True if every column of ``small`` lies in the column span of ``big``."""
    return rank(big.hstack(small)) == rank(big)


def symplectic_complement(sub: Subspace) -> Subspace:
    """The omega-orthogonal E^perp; dim = 2n - dim E for any E."""
    f = sub.frame
    return Subspace(sub.space, kernel_basis(f.T @ sub.space.omega))


def _classify_by_complement(sub: Subspace) -> str:
    """The classification read off E^perp: containments, then the meet."""
    perp = symplectic_complement(sub)
    inside = span_contains(perp.frame, sub.frame)
    contains = span_contains(sub.frame, perp.frame)
    if inside and contains:
        return "lagrangian"
    if inside:
        return "isotropic"
    if contains:
        return "coisotropic"
    meet = intersect_frames(sub.frame, perp.frame)
    return "symplectic" if meet.cols == 0 else "generic"


def test_classify_subspace_by_rank_matches_the_complement_route():
    """p axes e_i and q symplectic pairs (e_j, f_j), moved by a random
    symplectic g and a random change of frame basis: every (p, q) with
    p + q <= n at n = 1..3, which reaches all five classes, k = 0 and
    k = 2n; random frames of every size k add the typical cases."""
    rng = Random("classify-by-rank")
    seen = set()
    for n in (1, 2, 3):
        sp = SymplecticSpace.standard(n)
        frames = []
        for p in range(n + 1):
            for q in range(n + 1 - p):
                cols = list(range(p + q)) + [n + j for j in range(p, p + q)]
                frames.append(Matrix.exact(
                    [[int(r == c) for c in cols] for r in range(2 * n)]))
        frames += [_rand_full_rank(rng, 2 * n, k) for k in range(1, 2 * n + 1)]
        for frame in frames:
            g = random_symplectic(sp, rng)
            if frame.cols:
                frame = frame @ _rand_full_rank(rng, frame.cols, frame.cols)
            sub = Subspace(sp, g @ frame)
            got = classify_subspace(sub)
            assert got == _classify_by_complement(sub)
            seen.add(got)
    assert seen == {"isotropic", "lagrangian", "coisotropic", "symplectic",
                    "generic"}


def test_symplectic_complement_involution():
    sp = SymplecticSpace.standard(2)
    rng = Random(0)
    for _ in range(20):
        cols = rng.randint(1, 3)
        frame = None
        while frame is None:
            cand = Matrix.exact([[F(rng.randint(-3, 3)) for _ in range(cols)]
                                 for _ in range(4)])
            if rank(cand) == cols:
                frame = cand
        sub = Subspace(sp, frame)
        comp = symplectic_complement(sub)
        assert comp.frame.cols == 4 - cols
        again = symplectic_complement(comp)
        assert again.frame.cols == cols
        assert intersect_frames(frame, again.frame).cols == cols


def test_random_symplectic_preserves_omega():
    rng = Random(1)
    for n in (1, 2, 3):
        sp = SymplecticSpace.standard(n)
        omega = sp.omega
        for _ in range(10):
            g = random_symplectic(sp, rng)
            assert ((g.T @ omega @ g) - omega).is_zero()


def test_random_lagrangian_is_lagrangian():
    rng = Random(2)
    for n in (1, 2, 3):
        sp = SymplecticSpace.standard(n)
        for _ in range(10):
            lag = random_lagrangian(sp, rng)
            assert (lag.frame.T @ sp.omega @ lag.frame).is_zero()
            assert rank(lag.frame) == n


def test_graph_lagrangian_needs_symmetry():
    sp = SymplecticSpace.standard(2)
    good = graph_lagrangian(sp, Matrix.exact([[1, 2], [2, 3]]))
    assert good.frame.cols == 2
    with pytest.raises(ValueError):
        graph_lagrangian(sp, Matrix.exact([[1, 2], [0, 3]]))


def test_line_lagrangian_rejects_zero():
    sp = SymplecticSpace.standard(1)
    with pytest.raises(ValueError):
        line_lagrangian(sp, (0, 0))


def test_det_squared_unit_modulus():
    rng = Random(3)
    sp = SymplecticSpace.standard(2)
    for _ in range(15):
        lag = random_lagrangian(sp, rng)
        z = det_squared(sp, lag.frame.to_numpy())
        assert abs(abs(z) - 1.0) < 1e-9


def test_loop_degree_generator_and_double():
    sp = SymplecticSpace.standard(1)
    m = 64
    path1 = [lagrangian_from_angles(sp, [(math.pi * i / m) % math.pi])
             for i in range(m + 1)]
    path2 = [lagrangian_from_angles(sp, [(2 * math.pi * i / m) % math.pi])
             for i in range(m + 1)]
    assert loop_degree(sp, path1) == 1
    assert loop_degree(sp, path2) == 2
    assert loop_degree(sp, list(reversed(path1))) == -1


def test_loop_degree_refusals():
    sp = SymplecticSpace.standard(1)
    std = [lagrangian_from_angles(sp, [math.pi * i / 8]) for i in range(8)]
    std.append(std[0])
    double = SymplecticSpace(standard_gram(1).scale(2))
    for space, path, message in (
            (sp, [std[0], std[-1]], "a loop needs at least three samples"),
            (sp, std[:-1], "path is not closed (first and last spans differ)"),
            (double, std, "unitary representatives need the standard space"),
            (sp, [std[0], np.zeros((2, 1)), std[-1]],
             "frame columns are linearly dependent")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            loop_degree(space, path)


def test_loop_degree_over_a_space_equal_up_to_tol():
    """A loop over a space built from its own copy of the standard Omega
    (a matrix carries no tol, so equal up to tol is plain equality) is a loop
    over the standard space."""
    sp = SymplecticSpace.standard(1)
    twin = SymplecticSpace(Matrix.exact([[0, 1], [-1, 0]]))
    path = [lagrangian_from_angles(sp, [math.pi * i / 16]) for i in range(16)]
    path.append(path[0])
    assert loop_degree(twin, path) == loop_degree(sp, path) == 1


def test_loop_degree_constant_is_zero():
    sp = SymplecticSpace.standard(2)
    lag = lagrangian_from_angles(sp, [0.4, 1.1])
    assert loop_degree(sp, [lag] * 9) == 0
