"""Symmetric tensors with values in a fiber, and the delta complex.

A degree-d tensor is stored densely as a flat tuple of coefficients over
the monomial basis {x^alpha otimes e_j : |alpha| = d, 1 <= j <= m}, in the
one storage order of the jets package: (alpha, j) over
``multi_indices(n, d)`` x ``range(m)``, so x^alpha otimes e_j sits at
``flat_index(m, alpha, j)``.  The delta operator is polarization: slot i of
delta(t) has coefficients (beta_i + 1) t[beta + e_i, j], so delta followed
by exterior antisymmetrization squares to zero.  That rule is written once,
as the cached table ``_delta_terms``; ``delta_spencer``, the Spencer
matrices and the metasymplectic pairing all read it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from ..linalg import Matrix, Value, rank

SIZE_GUARD = 5000


class JetSignature(Value):
    """Base dimension n, fiber dimension m, order k."""

    _fields = ("n", "m", "k")

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.k < 1:
            raise ValueError("need n, m, k >= 1")
        if self.n * self.m * comb(self.n + self.k - 1, self.k) > SIZE_GUARD:
            raise ValueError("model size exceeds the desk-scale guard")


def jet_dim(sig: JetSignature) -> int:
    """Dimension of the order-k jet space of n-submanifolds with m fiber slots."""
    return sig.n + sig.m * comb(sig.n + sig.k, sig.k)


def symbol_layer_dim(sig: JetSignature) -> int:
    """Dimension of the top symbol layer S^k(T*) tensor nu."""
    return sig.m * comb(sig.n + sig.k - 1, sig.k)


def model_dim(sig: JetSignature) -> int:
    return sig.n + sig.m * comb(sig.n + sig.k - 1, sig.k)


def lambda_dim(sig: JetSignature) -> int:
    return sig.m * comb(sig.n + sig.k - 2, sig.k - 1)


@lru_cache(maxsize=None)
def multi_indices(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All n-part multi-indices of total degree d, lexicographically sorted."""
    if n == 1:
        return ((d,),)
    out = []
    for first in range(d + 1):
        for rest in multi_indices(n - 1, d - first):
            out.append((first,) + rest)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _monomial_positions(n: int, d: int) -> dict[tuple[int, ...], int]:
    return {alpha: t for t, alpha in enumerate(multi_indices(n, d))}


def flat_index(m: int, alpha: tuple[int, ...], j: int) -> int:
    """Storage position of x^alpha otimes e_j among m fiber slots."""
    return _monomial_positions(len(alpha), sum(alpha))[alpha] * m + j


class SymTensor(Value):
    """Element of S^degree(T*) tensor nu over Q; ``coeffs`` in storage order."""

    _fields = ("n", "m", "degree", "coeffs")

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if len(self.coeffs) != self.m * comb(self.n + self.degree - 1, self.degree):
            raise ValueError("coefficient count does not match the tensor shape")

    @staticmethod
    def zero(n: int, m: int, degree: int) -> "SymTensor":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return SymTensor(n, m, degree,
                         (Fraction(0),) * (m * comb(n + degree - 1, degree)))

    @staticmethod
    def unit(n: int, m: int, alpha: tuple[int, ...], j: int) -> "SymTensor":
        alpha = tuple(alpha)
        coeffs = list(SymTensor.zero(n, m, sum(alpha)).coeffs)
        coeffs[flat_index(m, alpha, j)] = Fraction(1)
        return SymTensor(n, m, sum(alpha), tuple(coeffs))

    def __add__(self, other: "SymTensor") -> "SymTensor":
        if (self.n, self.m, self.degree) != (other.n, other.m, other.degree):
            raise ValueError("tensor shape mismatch")
        return SymTensor(self.n, self.m, self.degree,
                         tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "SymTensor":
        c = Fraction(c)
        return SymTensor(self.n, self.m, self.degree,
                         tuple(c * v for v in self.coeffs))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs)


@lru_cache(maxsize=None)
def _delta_terms(n: int, m: int, d: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The polarization rule: per slot (beta, j) of degree d - 1, in storage
    order, the triples (i, position of (beta + e_i, j) in degree d,
    beta_i + 1) for i = 0 .. n - 1."""
    return tuple(tuple((i, flat_index(m, beta[:i] + (beta[i] + 1,) + beta[i + 1:], j),
                        beta[i] + 1) for i in range(n))
                 for beta in multi_indices(n, d - 1) for j in range(m))


def delta_spencer(t: SymTensor) -> dict[int, SymTensor]:
    """Polarization: slot i carries (beta_i + 1) t[beta + e_i, j]."""
    if t.degree < 1:
        raise ValueError("delta needs degree >= 1")
    terms = _delta_terms(t.n, t.m, t.degree)
    return {i: SymTensor(t.n, t.m, t.degree - 1, tuple(
        c * t.coeffs[pos] for _, pos, c in (row[i] for row in terms)))
        for i in range(t.n)}


def _spencer_matrix(n: int, m: int, p: int, deg: int) -> Matrix:
    """Matrix of delta: Lambda^p tensor S^deg -> Lambda^{p+1} tensor S^{deg-1}.

    Coordinates are wedge-major: block w holds S^deg tensor nu in storage
    order.  Index i outside w sends block w to block w + i with the wedge
    sign (-1)^#{x in w : x < i} and the polarization table inside."""
    terms = _delta_terms(n, m, deg)
    src_w = list(combinations(range(n), p))
    dst_w = {w: b for b, w in enumerate(combinations(range(n), p + 1))}
    size, dst_size = m * comb(n + deg - 1, deg), len(terms)
    rows = [[0] * (len(src_w) * size) for _ in range(len(dst_w) * dst_size)]
    for b, w in enumerate(src_w):
        for i in range(n):
            if i in w:
                continue
            dst = dst_w[tuple(sorted(w + (i,)))] * dst_size
            sign = (-1) ** sum(1 for x in w if x < i)
            for s, row in enumerate(terms):
                _, pos, c = row[i]
                rows[dst + s][b * size + pos] += sign * c
    return Matrix(len(rows), len(src_w) * size, tuple(map(tuple, rows)), 1)


def spencer_sequence_audit(sig: JetSignature) -> dict:
    """Rank audit of 0 -> S^k -> T* x S^{k-1} -> ... -> Lambda^p x S^{k-p} -> 0.

    Reports injectivity at the head, im = ker at interior nodes, and
    surjectivity at the tail; ``exact`` is the conjunction.
    """
    n, m, k = sig.n, sig.m, sig.k
    top = min(n, k)
    dims = [comb(n, p) * m * comb(n + k - p - 1, k - p) for p in range(top + 1)]
    ranks = [rank(_spencer_matrix(n, m, p, k - p)) for p in range(top)]
    # node p is exact iff the ranks of maps p - 1 and p (0 past the ends) fill it
    node_exact = [a + b == d for a, b, d in zip([0, *ranks], [*ranks, 0], dims)]
    return {
        "signature": {"n": n, "m": m, "k": k},
        "node_dims": dims,
        "map_ranks": ranks,
        "node_exact": node_exact,
        "exact": all(node_exact),
    }
