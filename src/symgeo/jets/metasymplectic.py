"""The metasymplectic structure on the model fiber of a jet bundle.

Model vectors split as (X, theta) with X in R^n horizontal and theta in
S^k(T*) tensor nu vertical.  For a covector slot lambda in S^{k-1}(T)
tensor nu*, the two-form is

    Omega(lambda)((X1, th1), (X2, th2)) = <lambda, X1 . delta th2>
                                        - <lambda, X2 . delta th1>,

zero on horizontal-horizontal and vertical-vertical pairs.  The pairing
is coefficientwise in the monomial basis.  Flat coordinates are X followed
by theta in the storage order of ``symtensor``; lambda uses the same order
one degree down.  For the unit slot lambda = (beta, j) the form is a sparse
integer matrix M_lambda whose only entries are +-(beta_i + 1), linking
horizontal coordinate i with the vertical coordinate (beta + e_i, j): row
lambda of the polarization table ``symtensor._delta_terms(n, m, k)``.

``metasymplectic_eval`` runs on integers.  A ``ModelVector`` caches, on
first use, one common denominator with the nonzero (position, numerator)
entries of X and of theta; a ``CovectorSlot`` caches its nonzero (slot,
numerator) pairs the same way.  ``vectors_from_matrix`` builds each vector
from one integer column of an exact matrix and stores that column over the
matrix's denominator as the vector's view, so no lcm over ``Fraction``s is
taken for plane vectors.  A pair whose two mixed products are empty
(both horizontal, both vertical) is 0 at once; otherwise the sum runs over
the nonzero slots and the nonzero horizontal entries, and the result is
divided once.  The caches live on the instances, outside the fields, so
equality and hashing are unchanged.

A maximal isotropic plane is one exact frame: Ann(Xi) padded with zero
theta rows, next to the columns of S^k(Xi) tensor nu.  Those products of
covectors are expanded on the integer numerators of Xi into the integer
block Q (one row per degree-k monomial, one column per product) and
divided once by den(Xi)^k.  Up to the order of rows and columns the frame
is diag(Ann(Xi), Q tensor I_m), so its rank is dim Ann(Xi) + m rank(Q):
one elimination of Xi^T gives the annihilator and the rank of Xi, and the
dimension audit eliminates Q alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations_with_replacement
from math import comb, lcm

from ..linalg import (EXACT, Matrix, ModeMixError, Value, _set, kernel_basis,
                      rank)
from .symtensor import (JetSignature, SymTensor, _delta_terms, lambda_dim,
                        model_dim)


_ZERO = Fraction(0)


def _int_view(values) -> tuple[int, tuple[tuple[int, int], ...]]:
    """One common denominator and the nonzero (position, numerator) pairs
    of int or ``Fraction`` values over it."""
    den = lcm(*(v.denominator for v in values))
    return den, tuple((p, v.numerator * (den // v.denominator))
                      for p, v in enumerate(values) if v)


def _vector_view(n: int, den: int, entries) -> tuple[int, tuple, dict[int, int]]:
    """A model vector's view: ``den``, then its nonzero (position,
    numerator) ``entries`` split into X pairs and a theta dict."""
    return (den, tuple(e for e in entries if e[0] < n),
            {p - n: a for p, a in entries if p >= n})


class CovectorSlot(Value):
    """Element of S^{k-1}(T) tensor nu* (dual slot for the two-form);
    ``coeffs`` in the storage order of degree k - 1."""

    _fields = ("sig", "coeffs")

    def __init__(self, sig: JetSignature, coeffs: tuple):
        _set(self, "sig", sig)
        _set(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        if len(self.coeffs) != lambda_dim(self.sig):
            raise ValueError("covector slot needs lambda_dim coefficients")

    @cached_property
    def _ints(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Denominator and nonzero (slot, numerator) pairs."""
        return _int_view(self.coeffs)


class ModelVector(Value):
    """A single vector (X, theta) in the model fiber."""

    _fields = ("sig", "x", "theta")

    def __init__(self, sig: JetSignature, x: tuple, theta: SymTensor):
        _set(self, "sig", sig)
        _set(self, "x", x)
        _set(self, "theta", theta)
        self.__post_init__()

    def __post_init__(self):
        sig, theta = self.sig, self.theta
        if len(self.x) != sig.n:
            raise ValueError("horizontal part must have n components")
        # a SymTensor of this shape has symbol_layer_dim(sig) coefficients
        if (theta.n, theta.m, theta.degree) != (sig.n, sig.m, sig.k):
            raise ValueError("vertical part has the wrong shape")

    @cached_property
    def _ints(self) -> tuple[int, tuple[tuple[int, int], ...], dict[int, int]]:
        """Common denominator d with the nonzero entries of d X as
        (position, numerator) pairs and of d theta as {position: numerator}."""
        return _vector_view(self.sig.n, *_int_view(self.x + self.theta.coeffs))


def lambda_basis(sig: JetSignature) -> list[CovectorSlot]:
    dim = lambda_dim(sig)
    return [CovectorSlot(sig, tuple(Fraction(int(s == t)) for s in range(dim)))
            for t in range(dim)]


def _mixed(terms, slots, x, theta) -> int:
    """Numerator of <lambda, X . delta theta>: slot s and horizontal entry i
    meet theta at the one vertical position t of ``terms[s][i]``."""
    tot = 0
    for s, lv in slots:
        row = terms[s]
        for i, a in x:
            _, t, c = row[i]
            b = theta.get(t)
            if b:
                tot += lv * c * a * b
    return tot


def metasymplectic_eval(lam: CovectorSlot, z1: ModelVector, z2: ModelVector):
    """Scalar Omega(lambda)(z1, z2); antisymmetric, mixed-pairs only."""
    sig = z1.sig
    # tuple comparison tries identity first: the shared signature is cheap
    if (z2.sig, lam.sig) != (sig, sig):
        raise ValueError("signature mismatch")
    d1, x1, th1 = z1._ints
    d2, x2, th2 = z2._ints
    if not (x1 and th2 or x2 and th1):
        return _ZERO
    dl, slots = lam._ints
    terms = _delta_terms(sig.n, sig.m, sig.k)
    tot = _mixed(terms, slots, x1, th2) - _mixed(terms, slots, x2, th1)
    return Fraction(tot, dl * d1 * d2) if tot else _ZERO


# -- flattened coordinates ---------------------------------------------------


def flatten(vec: ModelVector) -> list[Fraction]:
    return list(vec.x) + list(vec.theta.coeffs)


def unflatten(sig: JetSignature, coords) -> ModelVector:
    # Fraction(c) of a Fraction is an equal copy: skip it
    coords = [c if type(c) is Fraction else Fraction(c) for c in coords]
    if len(coords) != model_dim(sig):
        raise ValueError("coordinates do not fit this model fiber")
    theta = SymTensor(sig.n, sig.m, sig.k, tuple(coords[sig.n:]))
    return ModelVector(sig, tuple(coords[:sig.n]), theta)


def span_matrix(vectors: list[ModelVector]) -> Matrix:
    if not vectors:
        raise ValueError("empty vector list")
    return Matrix.exact(list(zip(*(flatten(v) for v in vectors))))


def vectors_from_matrix(sig: JetSignature, mat: Matrix) -> list[ModelVector]:
    """One vector per column of the exact ``mat``; each keeps its integer
    column over ``mat.den`` as its view for the pairing."""
    if mat.mode != EXACT:
        raise ModeMixError("model vectors are exact-mode only")
    # one Fraction per distinct numerator, shared by every column
    frac = {a: Fraction(a, mat.den) for a in set(chain.from_iterable(mat.num))}
    out = []
    for col in mat._columns():
        vec = unflatten(sig, map(frac.__getitem__, col))
        # fill the cached property: the instance dict is outside the fields
        entries = [(p, a) for p, a in enumerate(col) if a]
        vars(vec)["_ints"] = _vector_view(sig.n, mat.den, entries)
        out.append(vec)
    return out


def meta_orthogonal_frame(sig: JetSignature, frame: Matrix) -> Matrix:
    """Frame of all z with Omega(lambda)(z, v) = 0 for every frame column v
    and every lambda; an empty frame yields the whole fiber.

    Each row is (M_lambda v)^T for one unit slot lambda and one column v,
    written from the term table with v the integer numerators of the frame:
    the positive common denominator does not change the kernel."""
    dim = model_dim(sig)
    if frame.rows != dim:
        raise ValueError("frame does not live in this model fiber")
    if frame.cols == 0:
        return Matrix.identity(dim)
    n = sig.n
    cols = list(zip(*frame.num))
    rows = []
    for terms in _delta_terms(n, sig.m, sig.k):
        for v in cols:
            row = [0] * dim
            for i, t, c in terms:
                row[i] += c * v[n + t]
                row[n + t] -= c * v[i]
            rows.append(row)
    return kernel_basis(Matrix.exact(rows))


def meta_orthogonal(sig: JetSignature, vectors: list[ModelVector]) -> list[ModelVector]:
    """All z with Omega(lambda)(z, v) = 0 for every v given and every lambda."""
    frame = span_matrix(vectors) if vectors else Matrix.zeros(model_dim(sig), 0)
    return vectors_from_matrix(sig, meta_orthogonal_frame(sig, frame))


def singularity_condition(sig: JetSignature, p: int) -> bool:
    """Whether the rank-p isotropic family meets the singular threshold."""
    if not 0 <= p <= sig.n:
        raise ValueError("p must lie between 0 and n")
    return sig.m * comb(p + sig.k - 1, sig.k) >= sig.n


class IntegralPlaneModel(Value):
    """A subspace of the model fiber, spanned by the columns of ``frame``."""

    _fields = ("sig", "frame")

    def __init__(self, sig: JetSignature, frame: Matrix):
        _set(self, "sig", sig)
        _set(self, "frame", frame)

    @property
    def dim(self) -> int:
        return self.frame.cols

    def vectors(self) -> list[ModelVector]:
        return vectors_from_matrix(self.sig, self.frame)


def max_isotropic(sig: JetSignature, xi: Matrix) -> IntegralPlaneModel:
    """Maximal isotropic plane from a rank-p covector frame Xi.

    P = {X + theta : X in Ann(Xi), theta in S^k(Xi) tensor nu}; its
    dimension is m C(p+k-1, k) + n - p, verified on construction.
    """
    n, m, k = sig.n, sig.m, sig.k
    p = xi.cols
    if xi.rows != n:
        raise ValueError("covector frame must have n rows")
    # one elimination of Xi: rank Xi = n - dim Ann(Xi)
    ann = kernel_basis(xi.T)
    if ann.cols != n - p:
        raise ValueError("covector frame must have independent columns")
    # the products of k columns of Xi, expanded on its numerators: x^beta
    # times a covector c is sum_i c_i x^(beta + e_i), read off the table
    polys = []
    for combo in combinations_with_replacement(list(zip(*xi.num)), k):
        poly = [1]
        for d, col in enumerate(combo, 1):
            nxt = [0] * comb(n + d - 1, d)
            for row, cv in zip(_delta_terms(n, 1, d), poly):
                for i, pos, _ in row:
                    nxt[pos] += cv * col[i]
            poly = nxt
        polys.append(poly)
    # Q: one row per degree-k monomial, one column per product
    q = Matrix.exact([tuple(c[t] for c in polys) for t in range(comb(n + k - 1, k))])
    # the frame is diag(Ann(Xi), Q tensor I_m) up to row and column order
    if ann.cols + m * rank(q) != m * comb(p + k - 1, k) + n - p:
        raise ValueError("isotropic plane failed its dimension audit")
    # column (combo, j) carries its product in fiber slot j, over den^k;
    # Ann(Xi) sits beside it with zero theta rows
    width = len(polys) * m
    rows = [(0,) * width] * n
    for row in q.num:
        for j in range(m):
            spread = [0] * width
            spread[j::m] = row
            rows.append(tuple(spread))
    vertical = xi._new(len(rows), width, tuple(rows), xi.den ** k, xi.tol)
    frame = ann.vstack(Matrix.zeros(len(rows) - n, ann.cols)).hstack(vertical)
    return IntegralPlaneModel(sig, frame)
