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
horizontal coordinate i with the vertical coordinate (beta + e_i, j);
``_terms`` tabulates them once per signature.

``metasymplectic_eval`` runs on integers.  A ``ModelVector`` caches, on
first use, one common denominator with the nonzero (position, numerator)
entries of X and of theta; a ``CovectorSlot`` caches its nonzero (slot,
numerator) pairs the same way.  A pair whose two mixed products are empty
(both horizontal, both vertical) is 0 at once; otherwise the sum runs over
the nonzero slots and the nonzero horizontal entries, and the result is
divided once.  The caches live on the instances, outside the dataclass
fields, so equality and hashing are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import comb, lcm

from ..linalg import Matrix, kernel_basis, rank
from .symtensor import (JetSignature, SymTensor, _add_e, flat_index,
                        multi_indices, symbol_layer_dim)


_ZERO = Fraction(0)


def _int_view(values) -> tuple[int, tuple[tuple[int, int], ...]]:
    """One common denominator and the nonzero (position, numerator) pairs
    of int or ``Fraction`` values over it."""
    den = lcm(*(v.denominator for v in values))
    return den, tuple((p, v.numerator * (den // v.denominator))
                      for p, v in enumerate(values) if v)


@dataclass(frozen=True)
class CovectorSlot:
    """Element of S^{k-1}(T) tensor nu* (dual slot for the two-form);
    ``coeffs`` in the storage order of degree k - 1."""

    sig: JetSignature
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != lambda_dim(self.sig):
            raise ValueError("covector slot needs lambda_dim coefficients")

    @cached_property
    def _ints(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Denominator and nonzero (slot, numerator) pairs."""
        return _int_view(self.coeffs)


@dataclass(frozen=True)
class ModelVector:
    """A single vector (X, theta) in the model fiber."""

    sig: JetSignature
    x: tuple
    theta: SymTensor

    def __post_init__(self):
        sig, theta = self.sig, self.theta
        if len(self.x) != sig.n:
            raise ValueError("horizontal part must have n components")
        if ((theta.n, theta.m, theta.degree) != (sig.n, sig.m, sig.k)
                or len(theta.coeffs) != symbol_layer_dim(sig)):
            raise ValueError("vertical part has the wrong shape")

    @staticmethod
    def of(sig: JetSignature, x, theta: SymTensor | None = None) -> "ModelVector":
        if theta is None:
            theta = SymTensor.zero(sig.n, sig.m, sig.k)
        return ModelVector(sig, tuple(Fraction(v) for v in x), theta)

    @cached_property
    def _ints(self) -> tuple[int, tuple[tuple[int, int], ...], dict[int, int]]:
        """Common denominator d with the nonzero entries of d X as
        (position, numerator) pairs and of d theta as {position: numerator}."""
        n = self.sig.n
        den, entries = _int_view(self.x + self.theta.coeffs)
        return (den, tuple(e for e in entries if e[0] < n),
                {p - n: a for p, a in entries if p >= n})

    @staticmethod
    def horizontal(sig: JetSignature, x) -> "ModelVector":
        return ModelVector.of(sig, x)

    @staticmethod
    def vertical(sig: JetSignature, theta: SymTensor) -> "ModelVector":
        return ModelVector.of(sig, [0] * sig.n, theta)


def model_dim(sig: JetSignature) -> int:
    return sig.n + sig.m * comb(sig.n + sig.k - 1, sig.k)


def lambda_dim(sig: JetSignature) -> int:
    return sig.m * comb(sig.n + sig.k - 2, sig.k - 1)


def lambda_basis(sig: JetSignature) -> list[CovectorSlot]:
    dim = lambda_dim(sig)
    return [CovectorSlot(sig, tuple(Fraction(int(s == t)) for s in range(dim)))
            for t in range(dim)]


@lru_cache(maxsize=None)
def _terms(sig: JetSignature) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per lambda slot (beta, j), the triples (i, t, beta_i + 1) with t the
    vertical position of (beta + e_i, j): the nonzero entries of M_lambda."""
    n, m = sig.n, sig.m
    return tuple(tuple((i, flat_index(m, _add_e(beta, i), j), beta[i] + 1)
                       for i in range(n))
                 for beta in multi_indices(n, sig.k - 1) for j in range(m))


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
    terms = _terms(sig)
    tot = _mixed(terms, slots, x1, th2) - _mixed(terms, slots, x2, th1)
    return Fraction(tot, dl * d1 * d2) if tot else _ZERO


# -- flattened coordinates ---------------------------------------------------


def flatten(vec: ModelVector) -> list[Fraction]:
    return list(vec.x) + list(vec.theta.coeffs)


def unflatten(sig: JetSignature, coords) -> ModelVector:
    coords = [Fraction(c) for c in coords]
    if len(coords) != model_dim(sig):
        raise ValueError("coordinates do not fit this model fiber")
    theta = SymTensor(sig.n, sig.m, sig.k, tuple(coords[sig.n:]))
    return ModelVector.of(sig, coords[:sig.n], theta)


def span_matrix(vectors: list[ModelVector]) -> Matrix:
    if not vectors:
        raise ValueError("empty vector list")
    return Matrix.exact(list(zip(*(flatten(v) for v in vectors))))


def vectors_from_matrix(sig: JetSignature, mat: Matrix) -> list[ModelVector]:
    return [unflatten(sig, mat.col(j)) for j in range(mat.cols)]


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
    for terms in _terms(sig):
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


@dataclass(frozen=True)
class IntegralPlaneModel:
    """A subspace of the model fiber split into horizontal and vertical parts."""

    sig: JetSignature
    horizontal: Matrix
    vertical: tuple

    @property
    def dim(self) -> int:
        return self.horizontal.cols + len(self.vertical)

    def vectors(self) -> list[ModelVector]:
        out = [ModelVector.horizontal(self.sig, self.horizontal.col(j))
               for j in range(self.horizontal.cols)]
        out.extend(ModelVector.vertical(self.sig, th) for th in self.vertical)
        return out


def _linear_form_power_basis(sig: JetSignature, xi: Matrix) -> list[SymTensor]:
    """Products of k covectors from the columns of xi, expanded monomially."""
    n, m, k = sig.n, sig.m, sig.k
    out = []
    cols = [xi.col(j) for j in range(xi.cols)]
    for combo in combinations_with_replacement(range(len(cols)), k):
        poly = {(0,) * n: Fraction(1)}
        for idx in combo:
            nxt: dict = {}
            for alpha, cv in poly.items():
                for i in range(n):
                    if cols[idx][i] == 0:
                        continue
                    na = _add_e(alpha, i)
                    nxt[na] = nxt.get(na, Fraction(0)) + cv * cols[idx][i]
            poly = nxt
        for j in range(m):
            out.append(SymTensor(n, m, k, tuple(
                poly.get(a, Fraction(0)) if jj == j else Fraction(0)
                for a in multi_indices(n, k) for jj in range(m))))
    return out


def max_isotropic(sig: JetSignature, xi: Matrix) -> IntegralPlaneModel:
    """Maximal isotropic plane from a rank-p covector frame Xi.

    P = {X + theta : X in Ann(Xi), theta in S^k(Xi) tensor nu}; its
    dimension is m C(p+k-1, k) + n - p, verified on construction.
    """
    n, m, k = sig.n, sig.m, sig.k
    p = xi.cols
    if xi.rows != n:
        raise ValueError("covector frame must have n rows")
    if p and rank(xi) != p:
        raise ValueError("covector frame must have independent columns")
    ann = kernel_basis(xi.T) if p else Matrix.identity(n)
    vertical = tuple(_linear_form_power_basis(sig, xi)) if p else ()
    plane = IntegralPlaneModel(sig, ann, vertical)
    expected = m * comb(p + k - 1, k) + (n - p) if p else n
    vecs = plane.vectors()
    got = rank(span_matrix(vecs)) if vecs else 0
    if got != expected or plane.dim != expected:
        raise ValueError("isotropic plane failed its dimension audit")
    return plane
