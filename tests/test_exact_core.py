"""The integer exact core against a Fraction oracle.

An exact ``Matrix`` is integer numerators over one positive denominator in
canonical form, and its elimination is fraction-free (Bareiss).  The oracle
below is plain Gauss-Jordan elimination over ``Fraction`` entries; the
reduced row echelon form is unique, so both routes must agree entry for
entry, and so must everything read off it.
"""

from fractions import Fraction as F
from math import gcd
from random import Random

import pytest

from symgeo.linalg import (EXACT, Matrix, inverse, kernel_basis, rank, rref)


def _oracle_rref(rows, ncols):
    """Reduced row echelon form over Fractions; returns (rows, pivot cols)."""
    a = [list(r) for r in rows]
    pivots = []
    pr = 0
    for c in range(ncols):
        pivot_row = next((r for r in range(pr, len(a)) if a[r][c] != 0), None)
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        pv = a[pr][c]
        a[pr] = [x / pv for x in a[pr]]
        for r in range(len(a)):
            if r != pr and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[pr])]
        pivots.append(c)
        pr += 1
        if pr == len(a):
            break
    return a, pivots


def _oracle_kernel(rows, ncols):
    """Kernel columns from the oracle rref, first nonzero coordinate 1."""
    a, pivots = _oracle_rref(rows, ncols)
    out = []
    for f in (f for f in range(ncols) if f not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        lead = next(x for x in v if x != 0)
        out.append([x / lead for x in v])
    return [list(r) for r in zip(*out)] if out else [[] for _ in range(ncols)]


def _oracle_inverse(rows):
    n = len(rows)
    aug = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    a, pivots = _oracle_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in a]


def _oracle_product(a, b, ncols):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), F(0))
             for j in range(ncols)] for row in a]


def _canonical(m):
    """The stored form: integer rows of the declared shape over a positive
    denominator that shares no factor with all of them."""
    assert m.mode == EXACT
    assert len(m.num) == m.rows and all(len(r) == m.cols for r in m.num)
    assert all(type(x) is int for r in m.num for x in r)
    assert type(m.den) is int and m.den > 0
    assert gcd(m.den, *(x for r in m.num for x in r)) == 1
    return m


def _as_lists(m):
    return [list(r) for r in m.entries]


def _entry(rng, den_max):
    # mixed signs on both numerator and denominator, denominators up to 6
    return F(rng.randint(-9, 9), rng.choice([1, -1]) * rng.randint(1, den_max))


def _random_exact(rng, rows, cols, den_max=6):
    """A seeded exact matrix; a third are rank deficient, some all zero."""
    kind = rng.random()
    if rows == 0 or kind < 0.05:   # Matrix.exact([]) cannot tell its cols
        return _canonical(Matrix.zeros(rows, cols))
    if kind < 0.1 or cols == 0:
        return _canonical(Matrix.exact([[F(0)] * cols for _ in range(rows)]))
    if kind < 0.4:
        k = rng.randint(1, max(1, min(rows, cols) - 1))
        left = Matrix.exact([[_entry(rng, den_max) for _ in range(k)] for _ in range(rows)])
        right = Matrix.exact([[_entry(rng, den_max) for _ in range(cols)] for _ in range(k)])
        return _canonical(left @ right)
    return _canonical(Matrix.exact([[_entry(rng, den_max) for _ in range(cols)]
                                    for _ in range(rows)]))


_SHAPES = [(0, 3), (3, 0), (0, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 6), (3, 7)]


@pytest.mark.parametrize("shape", _SHAPES)
def test_elimination_matches_fraction_oracle(shape):
    rng = Random(f"exact-core:{shape}")
    for _ in range(25):
        m = _random_exact(rng, *shape)
        rows = _as_lists(m)
        want, want_pivots = _oracle_rref(rows, m.cols)
        red, pivots = rref(m)
        assert _as_lists(_canonical(red)) == want and list(pivots) == want_pivots
        assert rank(m) == len(want_pivots)
        ker = _canonical(kernel_basis(m))
        assert (ker.rows, ker.cols) == (m.cols, m.cols - len(want_pivots))
        assert _as_lists(ker) == _oracle_kernel(rows, m.cols)
        if m.rows == m.cols:
            inv = _oracle_inverse(rows)
            if inv is None:
                with pytest.raises(ValueError, match="matrix is singular"):
                    inverse(m)
            else:
                assert _as_lists(_canonical(inverse(m))) == inv


def test_large_entries_eliminate_exactly():
    # 80-bit numerators and denominators: Bareiss divisions stay exact
    rng = Random("exact-core:big")
    for _ in range(10):
        m = Matrix.exact([[F(rng.getrandbits(80) - 2 ** 79, rng.getrandbits(80) | 1)
                           for _ in range(4)] for _ in range(4)])
        rows = _as_lists(m)
        assert _as_lists(rref(m)[0]) == _oracle_rref(rows, 4)[0]
        assert _as_lists(_canonical(inverse(m))) == _oracle_inverse(rows)


@pytest.mark.parametrize("shape", _SHAPES)
def test_arithmetic_matches_fraction_oracle(shape):
    rng = Random(f"exact-core-ops:{shape}")
    r, c = shape
    for _ in range(25):
        a, b = _random_exact(rng, r, c), _random_exact(rng, r, c)
        other = _random_exact(rng, c, rng.randint(0, 4))
        la, lb = _as_lists(a), _as_lists(b)
        assert _as_lists(_canonical(a + b)) == [list(map(F.__add__, x, y))
                                                for x, y in zip(la, lb)]
        assert _as_lists(_canonical(a - b)) == [list(map(F.__sub__, x, y))
                                                for x, y in zip(la, lb)]
        k = _entry(rng, 6)
        assert _as_lists(_canonical(a.scale(k))) == [[k * x for x in row] for row in la]
        assert _as_lists(_canonical(-a)) == [[-x for x in row] for row in la]
        assert _as_lists(_canonical(a.T)) == [[la[i][j] for i in range(r)]
                                              for j in range(c)]
        assert _as_lists(_canonical(a @ other)) == \
            _oracle_product(la, _as_lists(other), other.cols)
        assert _as_lists(_canonical(a.hstack(b))) == [x + y for x, y in zip(la, lb)]
        assert _as_lists(_canonical(a.vstack(b))) == la + lb
        if r and c:
            _canonical(a.block(0, r, 0, 1))
            _canonical(a.columns([c - 1]))


def test_equality_and_hash_follow_values():
    rng = Random("exact-core-eq")
    for _ in range(40):
        a = _random_exact(rng, 3, 4)
        again = Matrix.exact(a.entries)
        assert again == a and hash(again) == hash(a)
        k = _entry(rng, 6) or F(1)
        round_trip = a.scale(k).scale(1 / k)
        assert round_trip == a and hash(round_trip) == hash(a)
        b = _random_exact(rng, 3, 4)
        sum_back = (a + b) - b
        assert sum_back == a and hash(sum_back) == hash(a)
        assert (a == b) == (_as_lists(a) == _as_lists(b))
    # the same values in another mode or shape are another matrix
    assert Matrix.exact([[1, 2]]) != Matrix.approx([[1.0, 2.0]])
    assert Matrix.zeros(2, 0) != Matrix.zeros(0, 2)


def test_constructors_are_canonical():
    assert _canonical(Matrix.exact([[F(2, 4), F(-3, 9)], [F(0), 6]])).den == 6
    assert _canonical(Matrix.exact([[F(4, 2), "6/3"], [True, -8]])).den == 1
    assert _canonical(Matrix.exact([[F(0, 5)] * 3] * 2)).num == ((0, 0, 0),) * 2
    for m in (Matrix.identity(3), Matrix.zeros(2, 3), Matrix.zeros(0, 4),
              Matrix.zeros(4, 0), Matrix.diagonal([F(1, 2), F(-2, 3), 0])):
        _canonical(m)
    assert Matrix.exact([[F(1, 6), F(1, 4)]]).num == ((2, 3),)


def test_views_are_fractions():
    m = Matrix.exact([[F(1, 2), 3], [F(-2, 3), 0]])
    assert m.entries == ((F(1, 2), F(3)), (F(-2, 3), F(0)))
    assert all(type(x) is F for row in m.entries for x in row)
    assert m[1, 0] == F(-2, 3) and m.row(0) == (F(1, 2), F(3))
    assert m.col(1) == (F(3), F(0))
    assert m.to_numpy().tolist() == [[0.5, 3.0], [-2 / 3, 0.0]]


def test_float_overflow_is_one_value_error():
    big = Matrix.exact([[10 ** 400, 1]])
    for convert in (big.to_numpy, big.to_approx, big.max_abs):
        with pytest.raises(ValueError, match="^matrix entry overflows a float$"):
            convert()
    # a huge numerator over a huge denominator is still a small float
    assert Matrix.exact([[F(10 ** 400 + 1, 10 ** 400)]]).to_numpy()[0, 0] == 1.0
