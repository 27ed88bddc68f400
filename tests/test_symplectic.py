"""Symplectic spaces, Lagrangian frames, and the unitary representation."""

import math
from fractions import Fraction as F
from random import Random

import pytest

from symgeo.linalg import Matrix, rank
from symgeo.symplectic import (LagrangianFrame, Subspace, SymplecticSpace,
                               classify_subspace, det_squared, eigen_angles,
                               graph_lagrangian, intersect_frames,
                               lagrangian_from_angles, line_lagrangian,
                               loop_degree, random_lagrangian,
                               random_symplectic, standard_gram,
                               symplectic_complement)


def test_standard_gram_shape():
    g = standard_gram(2)
    assert (g + g.T).is_zero()
    assert rank(g) == 4


def test_from_omega_rejects_degenerate():
    bad = Matrix.exact([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(ValueError):
        SymplecticSpace.from_omega(bad)


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


def test_unitary_angles_match_construction():
    sp = SymplecticSpace.standard(1)
    for theta in (0.0, 0.3, math.pi / 3, 2.1):
        lag = lagrangian_from_angles(sp, [theta % math.pi])
        got = eigen_angles(lag)[0]
        assert abs(got - theta % math.pi) < 1e-9


def test_det_squared_unit_modulus():
    rng = Random(3)
    sp = SymplecticSpace.standard(2)
    for _ in range(15):
        lag = random_lagrangian(sp, rng)
        z = det_squared(lag)
        assert abs(abs(z) - 1.0) < 1e-9


def test_loop_degree_generator_and_double():
    sp = SymplecticSpace.standard(1)
    m = 64
    path1 = [lagrangian_from_angles(sp, [(math.pi * i / m) % math.pi])
             for i in range(m + 1)]
    path2 = [lagrangian_from_angles(sp, [(2 * math.pi * i / m) % math.pi])
             for i in range(m + 1)]
    assert loop_degree(path1) == 1
    assert loop_degree(path2) == 2
    assert loop_degree(list(reversed(path1))) == -1


def test_loop_degree_constant_is_zero():
    sp = SymplecticSpace.standard(2)
    lag = lagrangian_from_angles(sp, [0.4, 1.1])
    assert loop_degree([lag] * 9) == 0
