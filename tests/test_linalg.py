"""Exact matrix layer: rref, rank, kernels, span comparisons; and the float
rank cut of the float frame check."""

from fractions import Fraction as F
from random import Random

import pytest

import numpy as np

from symgeo.linalg import (Matrix, Signature, _bareiss, _solve,
                           integer_signature, inverse, kernel_basis, rank, rref,
                           spans_equal, sym_signature)
from symgeo.symplectic import SymplecticSpace, float_lagrangian


def _rand_exact(rng, r, c, lo=-5, hi=5):
    return Matrix.exact([[F(rng.randint(lo, hi)) for _ in range(c)]
                         for _ in range(r)])


def test_rref_rank_anchor():
    m = Matrix.exact([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2
    red, pivots = rref(m)
    assert pivots == (0, 1)
    assert red.row(0)[0] == 1


def test_kernel_annihilates():
    rng = Random(0)
    for _ in range(30):
        m = _rand_exact(rng, rng.randint(1, 5), rng.randint(1, 5))
        k = kernel_basis(m)
        assert rank(m) + k.cols == m.cols
        if k.cols:
            assert (m @ k).is_zero()


def test_inverse_roundtrip():
    rng = Random(1)
    done = 0
    while done < 20:
        m = _rand_exact(rng, 4, 4)
        if rank(m) < 4:
            continue
        assert ((m @ inverse(m)) - Matrix.identity(4)).is_zero()
        done += 1


def test_inverse_rejects_singular():
    m = Matrix.exact([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        inverse(m)


def _fraction_inverse(rows):
    """Gauss-Jordan over Fractions: (det A, A^-1), or (0, None)."""
    n = len(rows)
    a = [[F(x) for x in r] + [F(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    det = F(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return 0, None
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return det, [r[n:] for r in a]


def test_solve_matches_fraction_inverse():
    """(d, d A^-1) with d = +-det A on seeded integer matrices, some of
    which need row swaps and some of which have det A < 0."""
    rng = Random("adjugate")
    signs = set()
    for n in range(1, 7):
        for _ in range(12):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            det, inv = _fraction_inverse(rows)
            got = _solve(rows, Matrix.identity(n).num)
            if inv is None:
                assert got is None
                continue
            d, adj = got
            assert abs(d) == abs(det)
            assert adj == [[d * x for x in r] for r in inv]
            assert all(type(x) is int for r in adj for x in r)
            signs.add((d > 0, det > 0))
    # d follows det A up to the sign of the row swaps, and every case occurs
    assert signs == {(True, True), (True, False), (False, True), (False, False)}
    assert _solve([[0, 1], [1, 0]], [[1, 0], [0, 1]]) == (1, [[0, 1], [1, 0]])
    assert _solve([[-2]], [[1]]) == (-2, [[1]])


def test_solve_matches_fraction_elimination_on_any_right_side():
    """d A^-1 B for right sides B of 0..7 columns, against A^-1 B over the
    Fractions, with the same d as the solve of [A | I]."""
    rng = Random("solve")
    done = 0
    while done < 60:
        n, k = rng.randint(1, 6), rng.randint(0, 7)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
        det, inv = _fraction_inverse(a)
        got = _solve(a, b)
        if inv is None:
            assert got is None
            continue
        d, x = got
        assert d == _solve(a, Matrix.identity(n).num)[0]
        want = [[sum(p * q for p, q in zip(row, col)) for col in zip(*b)]
                for row in inv]
        assert x == [[d * v for v in r] for r in want]
        assert all(type(v) is int for r in x for v in r)
        done += 1


def test_solve_refuses_singular_input():
    for rows in ([[0]], [[1, 2], [2, 4]], [[0, 0], [0, 0]],
                 [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[0, 1], [0, 2]]):
        n = len(rows)
        assert _solve(rows, Matrix.identity(n).num) is None
        assert _solve(rows, [[1, -2, 3]] * n) is None
        assert _solve(rows, [[]] * n) is None


def test_rank_reads_either_side():
    """rank(m) = rank(m^T) = the rank by forward Bareiss on m's own rows,
    on tall, wide, square and rank-deficient matrices, and 0 on matrices
    with no rows or no columns."""
    rng = Random("rank-sides")
    for _ in range(60):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = _rand_exact(rng, r, c, -3, 3)
        if rng.random() < 0.5:   # rank at most k < min(r, c)
            k = rng.randint(0, min(r, c) - 1)
            m = (_rand_exact(rng, r, k, -3, 3) @ _rand_exact(rng, k, c, -3, 3)
                 if k else Matrix.zeros(r, c))
        m = m.scale(F(1, rng.randint(1, 6)))
        assert rank(m) == rank(m.T) == len(_bareiss(m.num, jordan=False)[1])
    for r, c in ((0, 0), (0, 3), (3, 0)):
        assert rank(Matrix.zeros(r, c)) == rank(Matrix.zeros(c, r)) == 0


def _bareiss_inverse(m: Matrix) -> Matrix:
    """The exact inverse by Bareiss on [num | I] with column contents
    divided out: the route ``inverse`` took before its Gauss-Jordan solve."""
    n = m.rows
    a, pivots, d = _bareiss([r + tuple(int(i == j) for j in range(n))
                             for i, r in enumerate(m.num)])
    assert pivots[:n] == list(range(n))
    return m._new(n, n, tuple(tuple(m.den * x for x in r[n:]) for r in a), d)


def test_inverse_is_field_equal_to_the_bareiss_route():
    rng = Random("inverse-fields")
    done = 0
    while done < 40:
        n = rng.randint(1, 6)
        m = Matrix.exact([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                          for _ in range(n)])
        if rank(m) < n:
            continue
        inv = inverse(m)
        old = _bareiss_inverse(m)
        assert (inv.num, inv.den) == (old.num, old.den)
        assert inv == Matrix.exact(_fraction_inverse(m.entries)[1])
        done += 1


def test_rank_product_bound():
    rng = Random(2)
    for _ in range(25):
        a = _rand_exact(rng, 4, 3)
        b = _rand_exact(rng, 3, 4)
        assert rank(a @ b) <= min(rank(a), rank(b))


def test_mode_mixing_rejected():
    """Float entries and float scalars never enter an exact matrix."""
    float_entry = "^float entry in an exact-mode matrix$"
    with pytest.raises(ValueError, match=float_entry):
        Matrix.exact([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=float_entry):
        Matrix.exact([[1, 0], [0, 1]]).scale(0.5)


def test_approx_threshold_kills_noise():
    """Two x-plane frames of std:2 (zero y rows): a 1e-13 entry leaves the
    columns independent, a 1e-13 dependency is refused at tol 1e-9."""
    space, pad = SymplecticSpace.standard(2), np.zeros((2, 2))
    clean = np.vstack([[[1.0, 1e-13], [0.0, 1.0]], pad])
    assert np.array_equal(float_lagrangian(space, clean, 1e-9), clean)
    noisy = np.vstack([[[1.0, 1.0], [1.0, 1.0 + 1e-13]], pad])
    with pytest.raises(ValueError, match="^frame columns are linearly dependent$"):
        float_lagrangian(space, noisy, 1e-9)


def span_contains(big, small):
    """True if every column of ``small`` lies in the column span of ``big``."""
    return rank(big.hstack(small)) == rank(big)


def test_span_helpers():
    a = Matrix.exact([[1, 0], [0, 1], [0, 0]])
    b = Matrix.exact([[1, 1], [1, -1], [0, 0]])
    c = Matrix.exact([[0], [0], [1]])
    assert spans_equal(a, b)
    assert not spans_equal(a, Matrix.hstack(a, c))
    assert span_contains(Matrix.hstack(a, c), b)
    assert not span_contains(b, c)


def test_sym_signature_anchors():
    diag = Matrix.exact([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    sig = sym_signature(diag)
    assert sig.as_tuple() == (2, 0, 1)
    hyper = Matrix.exact([[0, 1], [1, 0]])
    assert sym_signature(hyper).as_tuple() == (1, 0, 1)
    degenerate = Matrix.exact([[1, 0], [0, 0]])
    assert sym_signature(degenerate).as_tuple() == (1, 1, 0)


def test_sym_signature_congruence_invariance():
    rng = Random(3)
    base = Matrix.exact([[2, 1, 0], [1, -1, 0], [0, 0, 0]])
    want = sym_signature(base).as_tuple()
    done = 0
    while done < 15:
        p = _rand_exact(rng, 3, 3, -3, 3)
        if rank(p) < 3:
            continue
        moved = p.T @ base @ p
        assert sym_signature(moved).as_tuple() == want
        done += 1


def test_signature_dim():
    assert Signature(2, 1, 3).dim == 6


def _fraction_signature(g):
    """Reference: symmetric congruence over Fractions (largest-|.| diagonal
    pivot, hyperbolic 2x2 split once the diagonal dies)."""
    b = {(i, j): g.entries[i][j] for i in range(g.rows) for j in range(g.cols)}
    live = list(range(g.rows))
    pos = neg = zero = 0
    while live:
        d_idx = max(live, key=lambda i: abs(b[(i, i)]))
        d = b[(d_idx, d_idx)]
        if d != 0:
            pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
            live.remove(d_idx)
            coef = {k: b[(k, d_idx)] / d for k in live}
            for k in live:
                for l in live:
                    b[(k, l)] = b[(k, l)] - coef[k] * b[(l, d_idx)]
            continue
        off = next(((i, j) for i in live for j in live
                    if i < j and b[(i, j)] != 0), None)
        if off is None:
            zero += len(live)
            break
        i, j = off
        h = b[(i, j)]
        pos += 1
        neg += 1
        live.remove(i)
        live.remove(j)
        new = {(k, l): b[(k, l)] - (b[(k, i)] * b[(l, j)] + b[(k, j)] * b[(l, i)]) / h
               for k in live for l in live}
        b.update(new)
    return Signature(pos, zero, neg)


def _rand_rational(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def _singular_symmetric(rng, size):
    # A^T D A with A of fewer rows than columns, D a random diagonal
    k = rng.randint(1, size - 1)
    a = Matrix.exact([[_rand_rational(rng) for _ in range(size)] for _ in range(k)])
    d = Matrix.diagonal([rng.choice((-2, -1, 1, F(1, 3))) for _ in range(k)])
    return a.T @ d @ a


def _zero_diagonal_symmetric(rng, size):
    rows = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = rows[j][i] = _rand_rational(rng) if rng.random() < 0.7 else F(0)
    return Matrix.exact(rows)


def _block_lower_symmetric(rng, size):
    """P + P^T for a block-lower P with zero n x n diagonal blocks: the
    shape of the pairing of size / n Lagrangians."""
    n = rng.choice([d for d in (1, 2, 3) if size % d == 0 and size > d])
    rows = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i - i % n):
            rows[i][j] = rows[j][i] = _rand_rational(rng)
    return Matrix.exact(rows)


def _hyperbolic_only(rng, size):
    """[[0, B], [B^T, 0]] with rows and columns shuffled: every Schur
    complement keeps both zero blocks, so every pivot is hyperbolic."""
    k = rng.randint(1, size - 1)
    order = list(range(size))
    rng.shuffle(order)
    rows = [[F(0)] * size for _ in range(size)]
    for i in order[:k]:
        for j in order[k:]:
            if rng.random() < 0.6:
                rows[i][j] = rows[j][i] = _rand_rational(rng)
    return Matrix.exact(rows)


def _large_content(rng, size):
    """A zero-diagonal integer form times a signed content above 2^64."""
    g = _zero_diagonal_symmetric(rng, size)
    k = rng.choice((-1, 1)) * rng.randint(2 ** 64, 2 ** 65)
    return Matrix.exact([[k * x for x in r] for r in g.num])


def _garbage_above(rng, rows):
    return [[x if j <= i else rng.randint(-9, 9) for j, x in enumerate(r)]
            for i, r in enumerate(rows)]


def test_fraction_free_signature_matches_fraction_elimination():
    """Entries above the diagonal may be anything: the integer signature
    reads only the lower triangle, so a block-lower P stands for P + P^T."""
    rng, junk = Random(4), Random(5)
    for make in (_singular_symmetric, _zero_diagonal_symmetric,
                 _block_lower_symmetric, _hyperbolic_only, _large_content):
        for _ in range(60):
            g = make(rng, rng.randint(2, 9))
            want = _fraction_signature(g)
            assert sym_signature(g) == want
            assert integer_signature(_garbage_above(junk, g.num)) == want
            if make is _singular_symmetric:
                assert want.zero >= 1
            if make is _hyperbolic_only:
                r = rank(g)
                assert want == Signature(r // 2, g.rows - r, r // 2)


def test_integer_signature_edge_cases():
    assert integer_signature([]) == Signature(0, 0, 0)
    assert integer_signature([[0, 0], [0, 0]]) == Signature(0, 2, 0)
    assert integer_signature([[0, -3], [-3, 0]]) == Signature(1, 0, 1)
    # a negative pivot flips the sign of every later step
    assert integer_signature([[-2, 1, 0], [1, 0, 0], [0, 0, 5]]) == Signature(2, 0, 1)
    assert integer_signature([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]) == Signature(0, 0, 3)
    # the entries above the diagonal are never read
    assert integer_signature([[4, 9, 9], [0, 1, 9], [0, 0, 4]]) == Signature(3, 0, 0)
