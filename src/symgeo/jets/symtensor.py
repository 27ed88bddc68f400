"""Symmetric tensors with values in a fiber, and the delta complex.

A degree-d tensor is stored densely as a flat tuple of coefficients over
the monomial basis {x^alpha otimes e_j : |alpha| = d, 1 <= j <= m}, in the
one storage order of the jets package: (alpha, j) over
``multi_indices(n, d)`` x ``range(m)``, so x^alpha otimes e_j sits at
``flat_index(m, alpha, j)``.  The delta operator is polarization: slot i of
delta(t) has coefficients (alpha_i + 1) t[alpha + e_i, j], so delta
followed by exterior antisymmetrization squares to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from ..linalg import Matrix, rank

SIZE_GUARD = 5000


@dataclass(frozen=True)
class JetSignature:
    """Base dimension n, fiber dimension m, order k."""

    n: int
    m: int
    k: int

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


def _add_e(alpha: tuple[int, ...], i: int) -> tuple[int, ...]:
    return alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]


@dataclass(frozen=True)
class SymTensor:
    """Element of S^degree(T*) tensor nu over Q; ``coeffs`` in storage order."""

    n: int
    m: int
    degree: int
    coeffs: tuple

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


def delta_spencer(t: SymTensor) -> dict[int, SymTensor]:
    """Polarization: slot i carries (alpha_i + 1) t[alpha + e_i, j]."""
    if t.degree < 1:
        raise ValueError("delta needs degree >= 1")
    return {i: SymTensor(t.n, t.m, t.degree - 1, tuple(
        (beta[i] + 1) * t.coeffs[flat_index(t.m, _add_e(beta, i), j)]
        for beta in multi_indices(t.n, t.degree - 1) for j in range(t.m)))
        for i in range(t.n)}


def _wedge_basis(n: int, p: int) -> list[tuple[int, ...]]:
    from itertools import combinations
    return [tuple(c) for c in combinations(range(n), p)]


def _spencer_matrix(n: int, m: int, p: int, deg: int) -> Matrix:
    """Matrix of delta: Lambda^p tensor S^deg -> Lambda^{p+1} tensor S^{deg-1}."""
    src_w = _wedge_basis(n, p)
    dst_w = _wedge_basis(n, p + 1)
    src_a = multi_indices(n, deg)
    dst_a = multi_indices(n, deg - 1)
    src_idx = {(w, a, j): t for t, (w, a, j) in enumerate(
        (w, a, j) for w in src_w for a in src_a for j in range(m))}
    dst_idx = {(w, a, j): t for t, (w, a, j) in enumerate(
        (w, a, j) for w in dst_w for a in dst_a for j in range(m))}
    rows = [[0] * len(src_idx) for _ in range(len(dst_idx))]
    for (w, a, j), col in src_idx.items():
        for i in range(n):
            if i in w:
                continue
            nw = tuple(sorted(w + (i,)))
            sign = (-1) ** sum(1 for x in w if x < i)
            for beta in dst_a:
                if _add_e(beta, i) == a:
                    rows[dst_idx[(nw, beta, j)]][col] += sign * (beta[i] + 1)
    return Matrix.exact(rows) if rows and rows[0] else Matrix.zeros(len(dst_idx), len(src_idx))


def spencer_sequence_audit(sig: JetSignature) -> dict:
    """Rank audit of 0 -> S^k -> T* x S^{k-1} -> ... -> Lambda^p x S^{k-p} -> 0.

    Reports injectivity at the head, im = ker at interior nodes, and
    surjectivity at the tail; ``exact`` is the conjunction.
    """
    n, m, k = sig.n, sig.m, sig.k
    top = min(n, k)
    dims = [comb(n, p) * m * comb(n + k - p - 1, k - p) for p in range(top + 1)]
    ranks = []
    for p in range(top):
        ranks.append(rank(_spencer_matrix(n, m, p, k - p)))
    node_exact = []
    for p in range(top + 1):
        incoming = ranks[p - 1] if p > 0 else 0
        outgoing = ranks[p] if p < top else 0
        if p == 0:
            ok = ranks[0] == dims[0] if top > 0 else True
        elif p == top:
            ok = incoming == dims[p]
        else:
            ok = incoming + outgoing == dims[p]
        node_exact.append(ok)
    return {
        "signature": {"n": n, "m": m, "k": k},
        "node_dims": dims,
        "map_ranks": ranks,
        "node_exact": node_exact,
        "exact": all(node_exact),
    }
