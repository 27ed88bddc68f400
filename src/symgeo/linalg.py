"""Dense linear algebra over the exact rationals.

A ``Matrix`` is integer row tuples ``num`` over one positive int ``den``,
kept canonical (gcd(den, every entry of num) = 1), so equal matrices have
equal fields.  Arithmetic runs on the integers; rref, rank and kernel use
Bareiss elimination, inverse its Gauss-Jordan form on [A | I], and the
signature fraction-free symmetric elimination.  ``entries``, ``row``,
``col`` and ``m[i, j]`` are ``Fraction`` views for input and output, and
``to_numpy`` is the one conversion to floats.  Float data never becomes a
``Matrix``: the float routes of ``symplectic`` and ``maslov`` take numpy
arrays.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from random import Random
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

EXACT = "exact"

# the zero cut of the float routes is DEFAULT_TOL * max(max |a|, 1)
DEFAULT_TOL = 1e-9


def _to_exact(x) -> Fraction:
    if isinstance(x, float):
        raise ValueError("float entry in an exact-mode matrix")
    return Fraction(x)


_set = object.__setattr__


class Value:
    """Frozen record: a subclass's ``__init__`` sets its ``_fields`` with
    ``_set``, then calls ``self.__post_init__()`` if it has checks.  ``==``
    (same class only) and ``hash`` read ``_key()``, the fields by default;
    ``repr`` shows them all.  Copies and pickles rebuild through
    ``_trusted``, without the checks, which held for the original."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _trusted, (type(self), *[getattr(self, f) for f in self._fields])


def _trusted(cls, *values):
    """An instance of the ``Value`` class ``cls`` with ``values`` as its
    fields, built without running ``__post_init__``.  Each caller names the
    theorem that makes the skipped checks hold."""
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        _set(obj, name, value)
    return obj


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


class Matrix(Value):
    """Immutable dense exact matrix: the row tuples ``num`` over ``den``.
    ``mode`` is the class constant ``EXACT``, kept for the perfbench tracer,
    which reads it."""

    __slots__ = _fields = ("rows", "cols", "num", "den")
    mode = EXACT

    def __init__(self, rows: int, cols: int, num: tuple, den: int):
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "num", num)
        _set(self, "den", den)

    # -- construction -----------------------------------------------------

    @staticmethod
    def exact(rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        if all(type(x) is int for r in rows for x in r):
            # integer rows over denominator 1 are already canonical
            return Matrix(nr, nc, tuple(map(tuple, rows)), 1)
        vals = [[x if isinstance(x, (int, Fraction)) else _to_exact(x) for x in r]
                for r in rows]
        # over the lcm of the reduced denominators the form is canonical
        den = lcm(*(x.denominator for r in vals for x in r))
        return Matrix(nr, nc, tuple(tuple(x.numerator * (den // x.denominator)
                                          for x in r) for r in vals), den)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(tuple(int(i == j) for j in range(n))
                                  for i in range(n)), 1)

    @staticmethod
    def zeros(r: int, c: int) -> "Matrix":
        return Matrix(r, c, ((0,) * c,) * r, 1)

    @staticmethod
    def diagonal(entries: Sequence) -> "Matrix":
        """Square matrix with ``entries`` on the diagonal."""
        size = len(entries)
        return Matrix.exact([[entries[r] if r == c else 0 for c in range(size)]
                             for r in range(size)])

    def _new(self, rows: int, cols: int, num: tuple, den: int) -> "Matrix":
        """A matrix of ``num`` over ``den``, put in canonical form."""
        return Matrix(rows, cols, *_canon(num, den))

    # -- views ---------------------------------------------------------------

    def _scalars(self, xs: Iterable) -> tuple:
        return tuple(Fraction(x, self.den) for x in xs)

    @property
    def entries(self) -> tuple:
        """Row tuples of ``Fraction``s."""
        return tuple(map(self._scalars, self.num))

    def __getitem__(self, ij):
        return self.row(ij[0])[ij[1]]

    def row(self, i: int) -> tuple:
        return self._scalars(self.num[i])

    def col(self, j: int) -> tuple:
        return self._scalars(r[j] for r in self.num)

    def to_numpy(self) -> np.ndarray:
        """The float entries: the one exact-to-float conversion."""
        import numpy as np
        try:
            rows = [[x / self.den for x in r] for r in self.num]
        except OverflowError:
            raise ValueError("matrix entry overflows a float") from None
        return np.array(rows, dtype=float).reshape(self.rows, self.cols)

    # -- arithmetic ----------------------------------------------------------

    def _columns(self) -> tuple:
        return tuple(zip(*self.num)) if self.rows else ((),) * self.cols

    @property
    def T(self) -> "Matrix":
        return Matrix(self.cols, self.rows, self._columns(), self.den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ocols = other._columns()
        num = tuple(tuple(sum(map(mul, row, ocol)) for ocol in ocols)
                    for row in self.num)
        return self._new(self.rows, other.cols, num, self.den * other.den)

    def _common(self, other: "Matrix") -> tuple[tuple, tuple, int]:
        """Both numerators over the lcm of the denominators; stacking
        canonical matrices over the lcm keeps them canonical."""
        den = lcm(self.den, other.den)
        return (_rescale(self.num, den // self.den),
                _rescale(other.num, den // other.den), den)

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in sum")
        a, b, den = self._common(other)
        num = tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(a, b))
        return self._new(self.rows, self.cols, num, den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        k, d = _to_exact(c).as_integer_ratio()
        return self._new(self.rows, self.cols, _rescale(self.num, k), self.den * d)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        a, b, den = self._common(other)
        return Matrix(self.rows, self.cols + other.cols,
                      tuple(r1 + r2 for r1, r2 in zip(a, b)), den)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        a, b, den = self._common(other)
        return Matrix(self.rows + other.rows, self.cols, a + b, den)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        num = tuple(r[c0:c1] for r in self.num[r0:r1])
        return self._new(r1 - r0, c1 - c0, num, self.den)

    def columns(self, idx: Iterable[int]) -> "Matrix":
        idx = list(idx)
        num = tuple(tuple(r[j] for j in idx) for r in self.num)
        return self._new(self.rows, len(idx), num, self.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))


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


def _solve(a: Sequence, b: Sequence) -> tuple[int, list] | None:
    """(d, d A^-1 B), d = +-det A, for the square integer A = ``a`` and rows
    ``b``, or None if A is singular: fraction-free Gauss-Jordan on [A | B] (as
    in ``_bareiss``, no column contents) ends as [d I | d A^-1 B], d the last pivot."""
    n = len(a)
    m = [list(r) + list(s) for r, s in zip(a, b)]
    prev = 1
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if m[r][c]), None)
        if pivot_row is None:
            return None
        m[c], m[pivot_row] = m[pivot_row], m[c]
        prow, p = m[c], m[c][c]
        m = [row if r == c else [(p * x - row[c] * y) // prev
                                 for x, y in zip(row, prow)] for r, row in enumerate(m)]
        prev = p
    return prev, [r[n:] for r in m]


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    a, pivots, d = _bareiss(m.num)
    return m._new(m.rows, m.cols, tuple(map(tuple, a)), d), tuple(pivots)


def rank(m: Matrix) -> int:
    # the side with fewer rows: Bareiss stops after min(rows, cols) pivots
    return len(_bareiss(m.num if m.rows <= m.cols else m._columns(), jordan=False)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of the right kernel, one column per free direction, each
    normalized so its first nonzero coordinate is 1 (deterministic
    representatives)."""
    a, pivots, d = _bareiss(m.num)   # a = d rref(m)
    # d times the vector with 1 at a free f and -rref[r][f] at pivot r
    vecs = [[d if j == f else -a[pivots.index(j)][f] if j in pivots else 0
             for j in range(m.cols)] for f in range(m.cols) if f not in pivots]
    leads = [next(x for x in v if x) for v in vecs]
    den = lcm(*leads)
    ker = tuple(tuple(x * (den // lead) for x in v) for v, lead in zip(vecs, leads))
    return m._new(m.cols, len(ker), tuple(zip(*ker)) if ker else ((),) * m.cols, den)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    inv = _solve(m.num, Matrix.identity(m.rows).num)
    if inv is None:
        raise ValueError("matrix is singular")
    d, adj = inv   # m^-1 = den num^-1 = den (d num^-1) / d
    return m._new(m.rows, m.cols, tuple(tuple(m.den * x for x in r) for r in adj), d)


def spans_equal(a: Matrix, b: Matrix) -> bool:
    """True if the column spans agree: both ranks equal the joint rank."""
    return rank(a.hstack(b)) == rank(a) == rank(b)


class Signature(Value):
    _fields = ("pos", "zero", "neg")

    def __init__(self, pos: int, zero: int, neg: int):
        _set(self, "pos", pos)
        _set(self, "zero", zero)
        _set(self, "neg", neg)

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
    if g.T.num != g.num:
        raise ValueError("Gram matrix is not symmetric")
    # dropping the positive denominator is a congruence
    return integer_signature(g.num)
