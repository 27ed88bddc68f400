"""Dense linear algebra over exact rationals and tolerance-governed floats.

Two scalar modes exist and are never mixed silently:

* ``exact``  -- entries are :class:`fractions.Fraction`; rank and kernel
  come from rational Gaussian elimination, the signature from fraction-free
  integer elimination after clearing denominators; all are exact.
* ``approx`` -- entries are floats governed by a per-matrix tolerance;
  rank uses singular values, signature uses symmetric eigenvalues.

Thresholds in approx mode are ``tol * max(largest entry magnitude, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from random import Random
from typing import Iterable, Sequence

import numpy as np

EXACT = "exact"
APPROX = "approx"

DEFAULT_TOL = 1e-9


class ModeMixError(ValueError):
    """Exact and approx values met in one computation."""


def _to_exact(x) -> Fraction:
    if isinstance(x, float):
        raise ModeMixError("float entry in an exact-mode matrix")
    return Fraction(x)


def _to_approx(x) -> float:
    return float(x)


def _rand_fraction(rng: Random) -> Fraction:
    """Seeded rational entry: numerator in [-4, 4], denominator in [1, 3]."""
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix; ``entries`` is a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple
    mode: str = EXACT
    tol: float = DEFAULT_TOL

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], mode: str = EXACT,
                  tol: float = DEFAULT_TOL) -> "Matrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        conv = _to_exact if mode == EXACT else _to_approx
        if mode not in (EXACT, APPROX):
            raise ValueError(f"unknown mode {mode!r}")
        ent = tuple(tuple(conv(x) for x in r) for r in rows)
        return Matrix(nr, nc, ent, mode, tol)

    @staticmethod
    def exact(rows: Sequence[Sequence]) -> "Matrix":
        return Matrix.from_rows(rows, EXACT)

    @staticmethod
    def approx(rows: Sequence[Sequence], tol: float = DEFAULT_TOL) -> "Matrix":
        return Matrix.from_rows(rows, APPROX, tol)

    @staticmethod
    def identity(n: int, mode: str = EXACT, tol: float = DEFAULT_TOL) -> "Matrix":
        one = Fraction(1) if mode == EXACT else 1.0
        zero = Fraction(0) if mode == EXACT else 0.0
        return Matrix(n, n, tuple(tuple(one if i == j else zero for j in range(n))
                                  for i in range(n)), mode, tol)

    @staticmethod
    def zeros(r: int, c: int, mode: str = EXACT, tol: float = DEFAULT_TOL) -> "Matrix":
        zero = Fraction(0) if mode == EXACT else 0.0
        return Matrix(r, c, tuple(tuple(zero for _ in range(c)) for _ in range(r)),
                      mode, tol)

    @staticmethod
    def diagonal(entries: Sequence) -> "Matrix":
        """Exact square matrix with ``entries`` on the diagonal."""
        size = len(entries)
        return Matrix.exact([[entries[r] if r == c else 0 for c in range(size)]
                             for r in range(size)])

    @staticmethod
    def from_numpy(arr: np.ndarray, tol: float = DEFAULT_TOL) -> "Matrix":
        arr = np.atleast_2d(np.asarray(arr, dtype=float))
        return Matrix(arr.shape[0], arr.shape[1],
                      tuple(tuple(float(x) for x in row) for row in arr),
                      APPROX, tol)

    # -- basics ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    @property
    def T(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(tuple(self.entries[i][j] for i in range(self.rows))
                            for j in range(self.cols)),
                      self.mode, self.tol)

    def _zero(self):
        return Fraction(0) if self.mode == EXACT else 0.0

    def _check(self, other: "Matrix") -> float:
        if self.mode != other.mode:
            raise ModeMixError("cannot combine exact and approx matrices")
        return max(self.tol, other.tol)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        tol = self._check(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ot = other.T.entries
        ent = tuple(tuple(sum(a * b for a, b in zip(row, ocol))
                          for ocol in ot)
                    for row in self.entries)
        return Matrix(self.rows, other.cols, ent, self.mode, tol)

    def __add__(self, other: "Matrix") -> "Matrix":
        tol = self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in sum")
        ent = tuple(tuple(a + b for a, b in zip(r1, r2))
                    for r1, r2 in zip(self.entries, other.entries))
        return Matrix(self.rows, self.cols, ent, self.mode, tol)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = _to_exact(c) if self.mode == EXACT else float(c)
        ent = tuple(tuple(c * x for x in r) for r in self.entries)
        return Matrix(self.rows, self.cols, ent, self.mode, self.tol)

    def hstack(self, other: "Matrix") -> "Matrix":
        tol = self._check(other)
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        ent = tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries))
        return Matrix(self.rows, self.cols + other.cols, ent, self.mode, tol)

    def vstack(self, other: "Matrix") -> "Matrix":
        tol = self._check(other)
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        return Matrix(self.rows + other.rows, self.cols,
                      self.entries + other.entries, self.mode, tol)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        ent = tuple(tuple(self.entries[i][j] for j in range(c0, c1))
                    for i in range(r0, r1))
        return Matrix(r1 - r0, c1 - c0, ent, self.mode, self.tol)

    def columns(self, idx: Iterable[int]) -> "Matrix":
        idx = list(idx)
        ent = tuple(tuple(r[j] for j in idx) for r in self.entries)
        return Matrix(self.rows, len(idx), ent, self.mode, self.tol)

    def max_abs(self) -> float:
        if self.rows == 0 or self.cols == 0:
            return 0.0
        return max(abs(float(x)) for r in self.entries for x in r)

    def threshold(self) -> float:
        # approx-mode zero cutoff: tol * max(largest entry magnitude, 1)
        return self.tol * max(self.max_abs(), 1.0)

    def is_zero(self) -> bool:
        if self.mode == EXACT:
            return all(x == 0 for r in self.entries for x in r)
        return self.max_abs() <= self.threshold()

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(x) for x in r] for r in self.entries], dtype=float)

    def to_approx(self, tol: float | None = None) -> "Matrix":
        return Matrix(self.rows, self.cols,
                      tuple(tuple(float(x) for x in r) for r in self.entries),
                      APPROX, self.tol if tol is None else tol)


def _rref(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of an exact matrix; returns (rows, pivot cols)."""
    a = [list(r) for r in m.entries]
    pivots: list[int] = []
    pr = 0
    for c in range(m.cols):
        pivot_row = None
        for r in range(pr, m.rows):
            if a[r][c] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        pv = a[pr][c]
        a[pr] = [x / pv for x in a[pr]]
        for r in range(m.rows):
            if r != pr and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[pr])]
        pivots.append(c)
        pr += 1
        if pr == m.rows:
            break
    return a, pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    if m.mode != EXACT:
        raise ModeMixError("rref is exact-mode only")
    a, pivots = _rref(m)
    return Matrix(m.rows, m.cols, tuple(tuple(r) for r in a), EXACT, m.tol), tuple(pivots)


def rank(m: Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.mode == EXACT:
        return len(_rref(m)[1])
    sv = np.linalg.svd(m.to_numpy(), compute_uv=False)
    return int(np.sum(sv > m.threshold()))


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of the right kernel, one column per free direction.

    Exact mode normalizes each basis vector so its first nonzero
    coordinate is 1 (deterministic representatives).
    """
    if m.mode == EXACT:
        a, pivots = _rref(m)
        free = [c for c in range(m.cols) if c not in pivots]
        cols = []
        for f in free:
            v = [Fraction(0)] * m.cols
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -a[r][f]
            lead = next(x for x in v if x != 0)
            cols.append([x / lead for x in v])
        ent = tuple(tuple(col[i] for col in cols) for i in range(m.cols))
        return Matrix(m.cols, len(cols), ent, EXACT, m.tol)
    arr = m.to_numpy()
    if m.rows == 0:
        return Matrix.identity(m.cols, APPROX, m.tol)
    u, sv, vh = np.linalg.svd(arr)
    thr = m.threshold()
    nz = int(np.sum(sv > thr))
    ker = vh[nz:].T  # orthonormal columns
    return Matrix.from_numpy(ker, m.tol) if ker.size else Matrix.zeros(m.cols, 0, APPROX, m.tol)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    if m.mode == EXACT:
        aug = m.hstack(Matrix.identity(m.rows))
        a, pivots = _rref(aug)
        if list(pivots[:m.rows]) != list(range(m.rows)):
            raise ValueError("matrix is singular")
        ent = tuple(tuple(row[m.rows:]) for row in a)
        return Matrix(m.rows, m.rows, ent, EXACT, m.tol)
    return Matrix.from_numpy(np.linalg.inv(m.to_numpy()), m.tol)


def span_contains(big: Matrix, small: Matrix) -> bool:
    """True if every column of ``small`` lies in the column span of ``big``."""
    return rank(big.hstack(small)) == rank(big)


def spans_equal(a: Matrix, b: Matrix) -> bool:
    return span_contains(a, b) and span_contains(b, a)


@dataclass(frozen=True)
class Signature:
    pos: int
    zero: int
    neg: int

    @property
    def dim(self) -> int:
        return self.pos + self.zero + self.neg

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.pos, self.zero, self.neg)


@dataclass(frozen=True)
class SymmetricForm:
    """A symmetric bilinear form given by its Gram matrix."""

    dim: int
    gram: Matrix


def integer_signature(rows: Sequence[Sequence[int]]) -> Signature:
    """Signature of a symmetric integer matrix by fraction-free elimination.

    Each step splits off a diagonal pivot d (updating the rest to
    d*B - b b^T) or, once the diagonal is zero, a hyperbolic 2x2 pivot with
    off-diagonal h (contributing (1, 0, 1); rest h*B - b_i b_j^T - b_j b_i^T),
    then divides out the content.  The multiplier scales the remaining form,
    so ``flip`` tracks its sign.  Each remaining matrix is then, up to sign,
    the matrix of minors bordering the eliminated block divided by its
    content, so entries stay within Hadamard's bound as in Bareiss
    elimination.
    """
    a = [list(r) for r in rows]
    pos = neg = 0
    flip = 1
    while a:
        m = len(a)
        diag = [k for k in range(m) if a[k][k]]
        if diag:
            p = min(diag, key=lambda k: abs(a[k][k]))
            d = a[p][p]
            if d * flip > 0:
                pos += 1
            else:
                neg += 1
            rest = [k for k in range(m) if k != p]
            b = [a[k][p] for k in rest]
            a = [[d * a[k][l] - bk * bl for l, bl in zip(rest, b)]
                 for k, bk in zip(rest, b)]
            if d < 0:
                flip = -flip
        else:
            hit = next(((i, j) for i in range(m) for j in range(i + 1, m)
                        if a[i][j]), None)
            if hit is None:
                return Signature(pos, m, neg)
            i, j = hit
            h = a[i][j]
            pos += 1
            neg += 1
            rest = [k for k in range(m) if k != i and k != j]
            bi = [a[k][i] for k in rest]
            bj = [a[k][j] for k in rest]
            a = [[h * a[k][l] - bik * bjl - bjk * bil
                  for l, bil, bjl in zip(rest, bi, bj)]
                 for k, bik, bjk in zip(rest, bi, bj)]
            if h < 0:
                flip = -flip
        content = gcd(*(x for row in a for x in row))
        if content == 0:
            return Signature(pos, len(a), neg)
        if content > 1:
            a = [[x // content for x in row] for row in a]
    return Signature(pos, 0, neg)


def clear_denominators(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """The rational rows times the lcm of their denominators, as integers."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def _sym_signature_exact(g: Matrix) -> Signature:
    # scaling by one positive number is a congruence
    return integer_signature(clear_denominators(g.entries))


def sym_signature(form: SymmetricForm | Matrix) -> Signature:
    """Signature (pos, zero, neg) of a symmetric form; Sylvester-invariant."""
    g = form.gram if isinstance(form, SymmetricForm) else form
    if g.rows != g.cols:
        raise ValueError("Gram matrix must be square")
    if g.rows == 0:
        return Signature(0, 0, 0)
    if g.mode == EXACT:
        if g.T.entries != g.entries:
            raise ValueError("Gram matrix is not symmetric")
        return _sym_signature_exact(g)
    arr = g.to_numpy()
    arr = 0.5 * (arr + arr.T)
    w = np.linalg.eigvalsh(arr)
    thr = g.threshold()
    pos = int(np.sum(w > thr))
    neg = int(np.sum(w < -thr))
    return Signature(pos, g.rows - pos - neg, neg)
