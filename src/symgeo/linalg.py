"""Dense linear algebra over exact rationals and tolerance-governed floats.

Two scalar modes exist and are never mixed silently:

* ``exact``  -- integer row tuples ``num`` over one positive int ``den``,
  kept canonical (gcd(den, every entry of num) = 1), so equal matrices have
  equal fields.  Arithmetic runs on the integers; rref, rank, kernel and
  inverse use Bareiss fraction-free elimination and divide once at the end,
  the signature fraction-free symmetric elimination.  ``entries``, ``row``,
  ``col`` and ``m[i, j]`` are ``Fraction`` views for input and output.
* ``approx`` -- float rows ``num`` over ``den`` = 1 and a per-matrix
  tolerance; rank uses singular values, signature symmetric eigenvalues,
  with numpy imported inside these routines only: exact mode never loads it.

Thresholds in approx mode are ``tol * max(largest entry magnitude, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from random import Random
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
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


def _rand_fraction(rng: Random) -> Fraction:
    """Seeded rational entry: numerator in [-4, 4], denominator in [1, 3]."""
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _rand_full_rank(rng: Random, rows: int, cols: int) -> Matrix:
    """Seeded exact matrix of full rank, integer entries in [-3, 3]."""
    while True:
        m = Matrix.exact([[rng.randint(-3, 3) for _ in range(cols)]
                          for _ in range(rows)])
        if rank(m) == min(rows, cols):
            return m


def _canon(num: tuple, den: int) -> tuple[tuple, int]:
    """``num`` over a nonzero ``den`` in canonical form."""
    g = gcd(den, *chain.from_iterable(num)) * (1 if den > 0 else -1)
    if g == 1:
        return num, den
    return tuple(tuple(x // g for x in r) for r in num), den // g


def _rescale(num: tuple, k) -> tuple:
    return num if k == 1 else tuple(tuple(k * x for x in r) for r in num)


@dataclass(frozen=True, slots=True)
class Matrix:
    """Immutable dense matrix: the row tuples ``num`` over ``den``.
    ``==`` and ``hash`` compare values and mode; ``tol`` is the threshold
    of approx decisions, not part of the value."""

    rows: int
    cols: int
    num: tuple
    den: int
    mode: str = EXACT
    tol: float = field(default=DEFAULT_TOL, compare=False)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], mode: str = EXACT,
                  tol: float = DEFAULT_TOL) -> "Matrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        if mode == APPROX:
            return Matrix(nr, nc, tuple(tuple(map(float, r)) for r in rows), 1, APPROX, tol)
        if mode != EXACT:
            raise ValueError(f"unknown mode {mode!r}")
        vals = [[x if isinstance(x, (int, Fraction)) else _to_exact(x) for x in r]
                for r in rows]
        # over the lcm of the reduced denominators the form is canonical
        den = lcm(*(x.denominator for r in vals for x in r))
        return Matrix(nr, nc, tuple(tuple(x.numerator * (den // x.denominator)
                                          for x in r) for r in vals), den, EXACT, tol)

    @staticmethod
    def exact(rows: Sequence[Sequence]) -> "Matrix":
        return Matrix.from_rows(rows, EXACT)

    @staticmethod
    def approx(rows: Sequence[Sequence], tol: float = DEFAULT_TOL) -> "Matrix":
        return Matrix.from_rows(rows, APPROX, tol)

    @staticmethod
    def identity(n: int, mode: str = EXACT, tol: float = DEFAULT_TOL) -> "Matrix":
        one, zero = (1, 0) if mode == EXACT else (1.0, 0.0)
        return Matrix(n, n, tuple(tuple(one if i == j else zero for j in range(n))
                                  for i in range(n)), 1, mode, tol)

    @staticmethod
    def zeros(r: int, c: int, mode: str = EXACT, tol: float = DEFAULT_TOL) -> "Matrix":
        return Matrix(r, c, ((0 if mode == EXACT else 0.0,) * c,) * r, 1, mode, tol)

    @staticmethod
    def diagonal(entries: Sequence) -> "Matrix":
        """Exact square matrix with ``entries`` on the diagonal."""
        size = len(entries)
        return Matrix.exact([[entries[r] if r == c else 0 for c in range(size)]
                             for r in range(size)])

    def _new(self, rows: int, cols: int, num: tuple, den: int, tol: float) -> "Matrix":
        """A matrix of this mode, exact numerators put in canonical form."""
        if self.mode == EXACT:
            num, den = _canon(num, den)
        return Matrix(rows, cols, num, den, self.mode, tol)

    # -- views ---------------------------------------------------------------

    def _scalars(self, xs: Iterable) -> tuple:
        return tuple(xs) if self.mode == APPROX else tuple(Fraction(x, self.den) for x in xs)

    @property
    def entries(self) -> tuple:
        """Row tuples of ``Fraction``s (exact) or floats (approx)."""
        return tuple(map(self._scalars, self.num))

    def __getitem__(self, ij):
        return self.row(ij[0])[ij[1]]

    def row(self, i: int) -> tuple:
        return self._scalars(self.num[i])

    def col(self, j: int) -> tuple:
        return self._scalars(r[j] for r in self.num)

    def _floats(self) -> tuple:
        """Float rows of the entries: the one exact-to-float conversion."""
        if self.mode == APPROX:
            return self.num
        try:
            return tuple(tuple(x / self.den for x in r) for r in self.num)
        except OverflowError:
            raise ValueError("matrix entry overflows a float") from None

    # -- arithmetic ----------------------------------------------------------

    def _columns(self) -> tuple:
        return tuple(zip(*self.num)) if self.rows else ((),) * self.cols

    @property
    def T(self) -> "Matrix":
        return Matrix(self.cols, self.rows, self._columns(), self.den, self.mode, self.tol)

    def _check(self, other: "Matrix") -> float:
        if self.mode != other.mode:
            raise ModeMixError("cannot combine exact and approx matrices")
        return max(self.tol, other.tol)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        tol = self._check(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ocols = other._columns()
        num = tuple(tuple(sum(map(mul, row, ocol)) for ocol in ocols)
                    for row in self.num)
        return self._new(self.rows, other.cols, num, self.den * other.den, tol)

    def _common(self, other: "Matrix") -> tuple[tuple, tuple, int, float]:
        """Both numerators over the lcm of the denominators, and the tol;
        stacking canonical matrices over the lcm keeps them canonical."""
        tol = self._check(other)
        den = lcm(self.den, other.den)
        return (_rescale(self.num, den // self.den),
                _rescale(other.num, den // other.den), den, tol)

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in sum")
        a, b, den, tol = self._common(other)
        num = tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(a, b))
        return self._new(self.rows, self.cols, num, den, tol)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        k, d = (float(c), 1) if self.mode == APPROX else _to_exact(c).as_integer_ratio()
        return self._new(self.rows, self.cols, _rescale(self.num, k), self.den * d,
                         self.tol)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        a, b, den, tol = self._common(other)
        return Matrix(self.rows, self.cols + other.cols,
                      tuple(r1 + r2 for r1, r2 in zip(a, b)), den, self.mode, tol)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        a, b, den, tol = self._common(other)
        return Matrix(self.rows + other.rows, self.cols, a + b, den, self.mode, tol)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        num = tuple(r[c0:c1] for r in self.num[r0:r1])
        return self._new(r1 - r0, c1 - c0, num, self.den, self.tol)

    def columns(self, idx: Iterable[int]) -> "Matrix":
        idx = list(idx)
        num = tuple(tuple(r[j] for j in idx) for r in self.num)
        return self._new(self.rows, len(idx), num, self.den, self.tol)

    # -- magnitudes and conversion ---------------------------------------

    def max_abs(self) -> float:
        return max((abs(x) for r in self._floats() for x in r), default=0.0)

    def threshold(self) -> float:
        # approx-mode zero cutoff: tol * max(largest entry magnitude, 1)
        return self.tol * max(self.max_abs(), 1.0)

    def is_zero(self) -> bool:
        if self.mode == EXACT:
            return not any(map(any, self.num))
        return self.max_abs() <= self.threshold()

    def to_numpy(self) -> np.ndarray:
        import numpy as np
        return np.array(self._floats(), dtype=float)

    def to_approx(self, tol: float | None = None) -> "Matrix":
        return Matrix(self.rows, self.cols, self._floats(), 1, APPROX,
                      self.tol if tol is None else tol)


def _bareiss(num: Sequence[Sequence[int]],
             jordan: bool = True) -> tuple[list[list[int]], list[int], int]:
    """Bareiss fraction-free elimination of the integer rows ``num``.

    Columns are first divided by their contents c_j, which moves no pivot.
    Pivots go column by column, each from the first nonzero row at or below
    the current one; pivot p after p' turns every other row (``jordan``) or
    every row below into (p row - row[c] pivot_row) / p', an exact division
    (Bareiss, Math. Comp. 22, 1968).  Returns the rows, the pivot columns
    and an integer d; with ``jordan`` the rows are d rref(num): row k of the
    scaled form times c_j / c_p at column j, for its pivot column p.
    """
    content = [gcd(*col) or 1 for col in zip(*num)]
    a = [[x // c for x, c in zip(r, content)] for r in num]
    m = len(a)
    pivots: list[int] = []
    prev = 1
    for c in range(len(content)):
        pr = len(pivots)
        pivot_row = next((r for r in range(pr, m) if a[r][c]), None)
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        prow = a[pr]
        p = prow[c]
        for r in range(m) if jordan else range(pr + 1, m):
            if r != pr:
                f = a[r][c]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], prow)]
        prev = p
        pivots.append(c)
        if pr + 1 == m:
            break
    if not jordan:
        return a, pivots, prev
    scale = lcm(*(content[p] for p in pivots))
    for k, p in enumerate(pivots):
        a[k] = [x * c * (scale // content[p]) for x, c in zip(a[k], content)]
    return a, pivots, prev * scale


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    if m.mode != EXACT:
        raise ModeMixError("rref is exact-mode only")
    a, pivots, d = _bareiss(m.num)
    return m._new(m.rows, m.cols, tuple(map(tuple, a)), d, m.tol), tuple(pivots)


def rank(m: Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.mode == EXACT:
        return len(_bareiss(m.num, jordan=False)[1])
    import numpy as np
    sv = np.linalg.svd(m.to_numpy(), compute_uv=False)
    return int(np.sum(sv > m.threshold()))


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of the right kernel, one column per free direction.

    Exact mode normalizes each basis vector so its first nonzero
    coordinate is 1 (deterministic representatives).
    """
    if m.mode == EXACT:
        a, pivots, d = _bareiss(m.num)   # a = d rref(m)
        # d times the vector with 1 at a free f and -rref[r][f] at pivot r
        vecs = [[d if j == f else -a[pivots.index(j)][f] if j in pivots else 0
                 for j in range(m.cols)] for f in range(m.cols) if f not in pivots]
        leads = [next(x for x in v if x) for v in vecs]
        den = lcm(*leads)
        ker = tuple(tuple(x * (den // lead) for x in v) for v, lead in zip(vecs, leads))
        return m._new(m.cols, len(ker), tuple(zip(*ker)) if ker else ((),) * m.cols,
                      den, m.tol)
    arr = m.to_numpy()
    if m.rows == 0:
        return Matrix.identity(m.cols, APPROX, m.tol)
    import numpy as np
    u, sv, vh = np.linalg.svd(arr)
    thr = m.threshold()
    nz = int(np.sum(sv > thr))
    return Matrix.approx(vh[nz:].T.tolist(), m.tol)  # orthonormal columns


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    if m.mode == EXACT:
        n = m.rows
        # [num | I] reduces to d [I | num^-1], and m^-1 = den num^-1
        a, pivots, d = _bareiss([r + tuple(int(i == j) for j in range(n))
                                 for i, r in enumerate(m.num)])
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return m._new(n, n, tuple(tuple(m.den * x for x in r[n:]) for r in a),
                      d, m.tol)
    import numpy as np
    return Matrix.approx(np.linalg.inv(m.to_numpy()).tolist(), m.tol)


def span_contains(big: Matrix, small: Matrix) -> bool:
    """True if every column of ``small`` lies in the column span of ``big``."""
    return rank(big.hstack(small)) == rank(big)


def spans_equal(a: Matrix, b: Matrix) -> bool:
    """True if the column spans agree: both ranks equal the joint rank.
    The stack comes first, so mixed modes are refused, not compared."""
    return rank(a.hstack(b)) == rank(a) == rank(b)


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


def integer_signature(rows: Sequence[Sequence[int]]) -> Signature:
    """Signature of a symmetric integer matrix by fraction-free elimination
    on its lower triangle (row k up to entry k; nothing above is read), so a
    block-lower P stands for P + P^T.  Each step splits off a diagonal
    pivot d (updating the rest to d*B - b b^T) or, once the diagonal is
    zero, a hyperbolic 2x2 pivot with off-diagonal h (contributing
    (1, 0, 1); rest h*B - b_i b_j^T - b_j b_i^T), then divides out the
    content.  The multiplier scales the remaining form, so ``flip`` tracks
    its sign.  Each remaining matrix is then, up to sign, the matrix of
    minors bordering the eliminated block divided by its content, so
    entries stay within Hadamard's bound.  Dividing by the previous pivot
    instead (symmetric Bareiss) roughly doubles the bit lengths (425 -> 686
    on perfbench ``index`` Grams) and ran 9.6 s against 0.42 s on the
    4778-bit 24 x 24 quotient Gram of
    ``test_direct_sum_index_matches_quotient_space[6-6-1]``.
    """
    a = [list(r[:k + 1]) for k, r in enumerate(rows)]
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
            # cutting index p leaves rows k < p whole; zip stops at k
            b = a[p][:p] + [r[p] for r in a[p + 1:]]
            a = [[d * x - bk * bl for x, bl in zip(r[:p] + r[p + 1:], b)]
                 for r, bk in zip(a[:p] + a[p + 1:], b)]
            if d < 0:
                flip = -flip
        else:
            hit = next(((i, j) for i in range(m) for j in range(i + 1, m)
                        if a[j][i]), None)
            if hit is None:
                return Signature(pos, m, neg)
            i, j = hit
            h = a[j][i]
            pos += 1
            neg += 1
            keep = [k for k in range(m) if k != i and k != j]
            bi, bj = ([a[c][k] if k < c else a[k][c] for k in keep]
                      for c in hit)
            a = [[h * x - bik * bjl - bjk * bil for x, bil, bjl
                  in zip(a[k][:i] + a[k][i + 1:j] + a[k][j + 1:], bi, bj)]
                 for k, bik, bjk in zip(keep, bi, bj)]
            if h < 0:
                flip = -flip
        content = gcd(*chain.from_iterable(a))
        if content == 0:
            return Signature(pos, len(a), neg)
        if content > 1:
            a = [[x // content for x in row] for row in a]
    return Signature(pos, 0, neg)


def sym_signature(g: Matrix) -> Signature:
    """Signature (pos, zero, neg) of a symmetric Gram matrix;
    Sylvester-invariant."""
    if g.rows != g.cols:
        raise ValueError("Gram matrix must be square")
    if g.rows == 0:
        return Signature(0, 0, 0)
    if g.mode == EXACT:
        if g.T.num != g.num:
            raise ValueError("Gram matrix is not symmetric")
        # dropping the positive denominator is a congruence
        return integer_signature(g.num)
    import numpy as np
    arr = g.to_numpy()
    arr = 0.5 * (arr + arr.T)
    w = np.linalg.eigvalsh(arr)
    thr = g.threshold()
    pos = int(np.sum(w > thr))
    neg = int(np.sum(w < -thr))
    return Signature(pos, g.rows - pos - neg, neg)
