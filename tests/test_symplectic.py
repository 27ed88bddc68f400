"""Symplectic spaces, Lagrangian frames, and the unitary representation."""

import copy
import math
import pickle
import re
from fractions import Fraction as F
from random import Random

import numpy as np
import pytest

from symgeo.linalg import (Matrix, _rand_full_rank, _trusted, inverse,
                           kernel_basis, rank)
from symgeo.symplectic import (LagrangianFrame, Subspace, SymplecticSpace,
                               _singular_values, classify_subspace, det_squared,
                               graph_lagrangian, intersect_frames,
                               lagrangian_from_angles, line_lagrangian, loop_degree,
                               random_lagrangian, random_symplectic, standard_gram)


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


def test_frame_cache_leaves_eq_hash_repr_copies_and_pickles():
    """The check leaves the primitive integer columns and their Omega.num
    images on the frame, outside its fields: a twin, copy or pickle equals
    it, hashes and prints the same, and works the same cache out anew."""
    rng = Random("frame-cache")
    a = _rand_full_rank(rng, 4, 4)
    custom = SymplecticSpace((a.T @ standard_gram(2) @ a).scale(F(2, 3)))
    for lag in (random_lagrangian(SymplecticSpace.standard(3), rng),
                LagrangianFrame(custom, inverse(a) @ random_lagrangian(
                    SymplecticSpace.standard(2), rng).frame)):
        assert "_integer_columns" in vars(lag)
        cols, images = lag._integer_columns
        for c, col in zip(cols, zip(*lag.frame.num)):
            assert math.gcd(*c) == 1 and [math.gcd(*col) * x for x in c] == list(col)
        assert [list(r) for r in zip(*images)] == [list(r) for r in (
            Matrix.exact(lag.space.omega.num) @ Matrix.exact(list(zip(*cols)))).num]
        twins = (LagrangianFrame(lag.space, lag.frame), copy.copy(lag),
                 copy.deepcopy(lag), pickle.loads(pickle.dumps(lag)),
                 _trusted(LagrangianFrame, lag.space, lag.frame))
        assert not any("_integer_columns" in vars(twin) for twin in twins[1:])
        for twin in twins:
            assert (twin == lag, hash(twin), repr(twin)) == (True, hash(lag), repr(lag))
            assert twin._integer_columns == lag._integer_columns
        assert "_integer_columns" not in repr(lag)


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


def test_loop_degree_closes_through_end_lines_within_tol():
    """Lines at k pi / 16 (k = 0..15), closed by the line at pi - 9e-6: at
    tol 1e-5 the second singular value of [first | last] is 0.64 of the
    closure cut, so the ends span one line, and the closing step from the
    last line back to the first completes the turn."""
    sp = SymplecticSpace.standard(1)
    path = [lagrangian_from_angles(sp, [math.pi * k / 16]) for k in range(16)]
    path.append(lagrangian_from_angles(sp, [math.pi - 9e-6]))
    ends = np.hstack([path[0], path[-1]])
    assert 0.6 < np.linalg.svd(ends, compute_uv=False)[1] / 1e-5 < 0.7
    assert loop_degree(sp, path, tol=1e-5) == 1


def test_loop_degree_constant_is_zero():
    sp = SymplecticSpace.standard(2)
    lag = lagrangian_from_angles(sp, [0.4, 1.1])
    assert loop_degree(sp, [lag] * 9) == 0


# -- closed-form singular values ---------------------------------------------


def _lapack(a):
    return np.linalg.svd(a, compute_uv=False)


def _two_column_cases(a):
    """Zero matrices, one zero column, dependent, nearly dependent and
    orthonormal columns (equal singular values), from a (m, r, 2) stack."""
    one_zero, dependent, nearly = a.copy(), a.copy(), a.copy()
    one_zero[: len(a) // 2, :, 0] = 0.0
    one_zero[len(a) // 2:, :, 1] = 0.0
    dependent[..., 1] = -0.75 * a[..., 0]
    nearly[..., 1] = (1 + 1e-12) * a[..., 0] + 1e-13 * a[..., 1]
    orthonormal = np.linalg.qr(a)[0] * np.abs(a).max()
    return [np.zeros_like(a), one_zero, dependent, nearly, orthonormal]


@pytest.mark.parametrize("shape", [(64, 2, 1), (64, 1, 1), (64, 1, 2), (64, 4, 2),
                                   (64, 2, 2), (1, 2, 2)])
@pytest.mark.parametrize("kind", [float, complex])
@pytest.mark.parametrize("scale", [1.0, 2.0 ** 500, 2.0 ** -500, 1e308],
                         ids=["1", "2^500", "2^-500", "1e308"])
def test_singular_values_match_lapack(shape, kind, scale):
    """|sigma - sigma_LAPACK| <= 8 eps sigma_max, in LAPACK's shape; pytest
    turns a RuntimeWarning into an error, so no step may overflow."""
    rng = np.random.default_rng([int(abs(math.log2(scale))), kind is complex, *shape])
    # entries up to 1e308 / sqrt(r c) keep sigma_max a finite float
    u = rng.uniform(-1.0, 1.0, (2,) + shape) / math.sqrt(shape[1] * shape[2])
    a = scale * (u[0] + 1j * u[1] if kind is complex else u[0])
    cases = [a] + (_two_column_cases(a) if 2 in shape[1:] and min(shape[1:]) > 1
                   else [np.zeros_like(a)])
    for case in cases:
        got, ref = _singular_values(case), _lapack(case)
        assert got.shape == ref.shape
        assert (np.abs(got - ref) <= 8 * np.finfo(float).eps * ref[..., :1]).all()


def test_singular_values_of_1e308_entries_and_empty_stacks():
    big = np.array([[[1e308], [1e308]], [[1e308], [-1e308]]])
    wide = np.array([[1e308, 1e308], [0.0, 1e308]])
    for a in (big, big.swapaxes(1, 2), wide, 1j * wide):
        np.testing.assert_allclose(_singular_values(a), _lapack(a), rtol=8e-16)
    for shape in ((3, 4, 0), (3, 0, 2), (0, 2, 1), (0, 4, 2)):
        a = np.zeros(shape)
        assert _singular_values(a).shape == _lapack(a).shape
    # past two columns on both sides the kernel is LAPACK's
    a = np.random.default_rng(5).standard_normal((8, 4, 4))
    assert np.array_equal(_singular_values(a), _lapack(a))
