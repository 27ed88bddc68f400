"""Indices of Lagrangian tuples.

One pairing, three readings.  The pairing of a tuple (L_1, ..., L_r) with
frames F_i is the block-lower matrix P whose block (i, j), i > j, is
F_i^T Omega F_j, so x^T P y = q(x, y) = sum over i > j of omega(x_i, y_j)
(Lion-Vergne; Cappell-Lee-Miller).  ``symplectic._pairing`` assembles it;
the forms read it:

* ``kashiwara_index`` -- pos - neg of P + P^T, the symmetrized q on the
  direct sum L_1 + ... + L_r; no kernel or quotient is formed.  Exact mode
  pairs primitive integer frame columns through Omega's numerators
  (positive congruences) and hands P itself to the integer signature,
  which reads only the lower triangle; approx mode orthonormalizes each
  frame by QR and symmetrizes P, and only that branch imports numpy.
* ``kashiwara_space`` -- the Gram matrix R^T P R of q on the quotient
  T = ker(sum) / im(boundary), for representatives R of T built from
  consecutive intersections of the tuple; it has the same signature.  The
  CLI reports its dimension and signature, and the tests use it as the
  oracle for ``kashiwara_index``.
* ``wall_invariant``  -- signature of the symmetrized kernel form
  psi(x, y) = omega(x_2, y_1) on the same quotient (triples only): R^T P R
  with P cut to its block F_2^T Omega F_1.

Other routes to the same circle of invariants:

* ``arnold_index_triple`` -- closed angle formula on the Lagrangian
  Grassmannian, tau(L(theta)) = 1 - 2 theta / pi off the cycle.
* ``leray_m``         -- integer cochain on pairs of lifted lines (n = 1)
  whose cyclic sums reproduce the Kashiwara index of the projected tuple.

Calibration: the index of (L(0), L(pi/3), L(2pi/3)) is +1 and reversing a
tuple negates its index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import (APPROX, DEFAULT_TOL, EXACT, Matrix, integer_signature,
                     kernel_basis, rank, rref, sym_signature)
from .symplectic import (ANGLE_SNAP, LagrangianFrame, SymplecticSpace,
                         _pairing, _support, eigen_angles, line_lagrangian)
from .witt import witt_of_form_real


@dataclass(frozen=True)
class LagrangianTuple:
    """Lagrangians of one space in one scalar mode; ``of`` checks both."""

    members: tuple[LagrangianFrame, ...]

    @staticmethod
    def of(*lags: LagrangianFrame) -> "LagrangianTuple":
        if len(lags) < 2:
            raise ValueError("a Lagrangian tuple needs at least two members")
        first = lags[0]
        for lag in lags[1:]:
            if lag.space != first.space:
                raise ValueError("tuple members live in different spaces")
            if lag.frame.mode != first.frame.mode:
                raise ValueError("tuple members mix scalar modes")
        return LagrangianTuple(lags)

    @property
    def space(self) -> SymplecticSpace:
        return self.members[0].space

    def __len__(self) -> int:
        return len(self.members)


def _boundary_columns(tup: LagrangianTuple) -> Matrix:
    """Images of consecutive intersections under a -> (a at i, -a at i+1)."""
    r, n = len(tup), tup.space.n
    frames = [m.frame for m in tup.members]
    cols: list[list] = []
    for i in range(r):
        j = (i + 1) % r
        ker = kernel_basis(frames[i].hstack(frames[j].scale(-1)))
        for x in map(ker.col, range(ker.cols)):
            vec = [0] * (r * n)
            vec[i * n:i * n + n] = x[:n]
            vec[j * n:j * n + n] = [-v for v in x[n:]]
            cols.append(vec)
    mode, tol = frames[0].mode, frames[0].tol
    if not cols:
        return Matrix.zeros(r * n, 0, mode, tol)
    return Matrix.from_rows(list(zip(*cols)), mode, tol)


def _independent_over(base: Matrix, cands: Matrix) -> list[int]:
    """Indices of candidate columns independent modulo the base span, each
    taken greedily against the base and the candidates before it."""
    if base.mode == EXACT:
        _, pivots = rref(base.hstack(cands))
        return [c - base.cols for c in pivots if c >= base.cols]
    picked: list[int] = []
    cur = base
    cur_rank = rank(base)
    for j in range(cands.cols):
        trial = cur.hstack(cands.columns([j]))
        r = rank(trial)
        if r > cur_rank:
            picked.append(j)
            cur, cur_rank = trial, r
    return picked


def _quotient_gram(tup: LagrangianTuple,
                   block: tuple[int, int] | None = None) -> Matrix:
    """R^T P R for the pairing P (or one block of it) and representatives R
    of T: kernel columns of the sum map Sigma = (F_1 ... F_r) independent
    modulo the boundary; q(a, b) = a^T P b.  P pairs the numerators of
    Sigma and Omega."""
    sigma = tup.members[0].frame
    for m in tup.members[1:]:
        sigma = sigma.hstack(m.frame)
    ker = kernel_basis(sigma)
    reps = ker.columns(_independent_over(_boundary_columns(tup), ker))
    omega = tup.space.omega_as(sigma.mode)
    pair = Matrix.from_rows(_pairing(sigma.T.num, _support(omega.num),
                                     tup.space.n, block), sigma.mode, reps.tol)
    return reps.T @ pair.scale(Fraction(1, sigma.den ** 2 * omega.den)) @ reps


def kashiwara_space(tup: LagrangianTuple) -> Matrix:
    """Symmetric Gram matrix of the canonical quadratic space of a
    Lagrangian tuple.

    T = ker(sum map) / im(boundary), with the symmetric form
    q(a, b) = sum over i > j of omega(a_i, b_j); dim T is its row count.
    """
    g = _quotient_gram(tup)
    if g.mode == EXACT:
        if g.T != g:
            raise ValueError("kernel form failed to be symmetric")
    else:
        g = (g + g.T).scale(0.5)
    return g


def _primitive_column(col: Sequence[int]) -> list[int]:
    content = math.gcd(*col)
    return [x // content for x in col]


def kashiwara_index(tup: LagrangianTuple | Sequence[LagrangianFrame]) -> int:
    """Witt class (signature) of the canonical form of the tuple."""
    if not isinstance(tup, LagrangianTuple):
        tup = LagrangianTuple.of(*tup)
    space = tup.space
    if tup.members[0].frame.mode == EXACT:
        # positive scalings of columns and of Omega are congruences
        cols = [_primitive_column(c) for m in tup.members for c in m.frame.T.num]
        # P is strictly block-lower, so its lower triangle is that of P + P^T
        sig = integer_signature(_pairing(cols, space.omega_support, space.n))
    else:
        import numpy as np
        cols = [q for m in tup.members
                for q in np.linalg.qr(m.frame.to_numpy())[0].T.tolist()]
        support = _support(space.omega_as(APPROX).num)
        pair = Matrix.approx(_pairing(cols, support, space.n),
                             max(m.frame.tol for m in tup.members))
        sig = sym_signature(pair + pair.T)
    return sig.pos - sig.neg


def tuple_reduce(tup: LagrangianTuple) -> int:
    """Index via the triple reduction sum_{j=2}^{r-1} tau(L1, Lj, Lj+1)."""
    mem = tup.members
    return sum(kashiwara_index(LagrangianTuple.of(mem[0], mem[j], mem[j + 1]))
               for j in range(1, len(mem) - 1))


def wall_invariant(l1: LagrangianFrame, l2: LagrangianFrame,
                   l3: LagrangianFrame) -> int:
    """Signature of the symmetrized kernel form on
    W = {x1 + x2 + x3 = 0} / (pairwise intersections), psi(x, y) = omega(x_2, y_1).
    """
    g = _quotient_gram(LagrangianTuple.of(l1, l2, l3), block=(1, 0))
    half = Fraction(1, 2) if g.mode == EXACT else 0.5
    return witt_of_form_real((g + g.T).scale(half))


# -- Arnold angle formulas (eigen-angle route) -------------------------------


def _pair_value(t1: float, t2: float) -> float:
    if abs(t1 - t2) <= ANGLE_SNAP:
        return 0.0
    if t1 < t2:
        return 1.0 - 2.0 * (t2 - t1) / math.pi
    return -(1.0 - 2.0 * (t1 - t2) / math.pi)


def _arnold_index_pair(l1: LagrangianFrame, l2: LagrangianFrame) -> float:
    """Componentwise two-argument index; antisymmetric, diagonal inputs only."""
    a1, a2 = eigen_angles(l1), eigen_angles(l2)
    return sum(_pair_value(t1, t2) for t1, t2 in zip(a1, a2))


def arnold_index_triple(l1: LagrangianFrame, l2: LagrangianFrame,
                        l3: LagrangianFrame) -> int:
    """Cyclic sum of pair indices; integer-valued."""
    s = (_arnold_index_pair(l1, l2) + _arnold_index_pair(l2, l3)
         + _arnold_index_pair(l3, l1))
    out = round(s)
    if abs(s - out) > 1e-6:
        raise ValueError("triple index failed to be an integer")
    return int(out)


# -- Leray function on lifted lines (n = 1 only) -----------------------------


@dataclass(frozen=True)
class LerayLift:
    """A point of the universal cover of the line Grassmannian (n = 1).

    ``theta_tilde`` is the lifted angle in radians.  Exact variants: a
    Fraction means an exact multiple of pi; ``direction`` = (p, q, k)
    means angle-of-(p, q) + k pi with rational p, q (exact floors).
    """

    theta_tilde: float | Fraction
    direction: tuple[Fraction, Fraction, int] | None = None

    @staticmethod
    def from_direction(p, q, k: int = 0) -> "LerayLift":
        p, q = _upper_direction((p, q))
        ang = math.atan2(float(q), float(p)) + k * math.pi
        return LerayLift(ang, (p, q, k))

    def angle(self) -> float:
        if isinstance(self.theta_tilde, Fraction):
            return float(self.theta_tilde) * math.pi
        return float(self.theta_tilde)

    def line(self, space: SymplecticSpace) -> LagrangianFrame:
        if self.direction is not None:
            return line_lagrangian(space, (self.direction[0], self.direction[1]))
        th = self.angle() % math.pi
        return line_lagrangian(space, (math.cos(th), math.sin(th)))


def _line_angle_compare(d1, d2) -> int:
    """-1, 0, +1 ordering of two upper-half-plane directions by line angle."""
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    if cross == 0:
        return 0
    return -1 if cross > 0 else 1


def _upper_direction(d) -> tuple:
    p, q = Fraction(d[0]), Fraction(d[1])
    if p == 0 and q == 0:
        raise ValueError("direction must be nonzero")
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


def arnold_triple_lines(d1, d2, d3) -> int:
    """Triple index of three lines in the plane from rational directions.

    Exact: 0 when two of the lines coincide, otherwise the sign of the
    cyclic order of the three line angles, +1 for increasing angles.
    """
    a, b, c = (_upper_direction(d) for d in (d1, d2, d3))
    c12 = _line_angle_compare(a, b)
    c23 = _line_angle_compare(b, c)
    c13 = _line_angle_compare(a, c)
    if 0 in (c12, c23, c13):
        return 0
    return -c12 * c23 * c13


def leray_m(l1: LerayLift, l2: LerayLift, tol: float = DEFAULT_TOL):
    """Leray cochain m = -2 floor((t1 - t2)/pi) - 1, or -2 (t1 - t2)/pi on pi Z."""
    if l1.direction is not None and l2.direction is not None:
        (p1, q1, k1), (p2, q2, k2) = l1.direction, l2.direction
        cmp = _line_angle_compare((p1, q1), (p2, q2))
        if cmp == 0:
            return -2 * (k1 - k2)
        flr = (k1 - k2) + (0 if cmp > 0 else -1)
        return -2 * flr - 1
    t1, t2 = l1.theta_tilde, l2.theta_tilde
    if isinstance(t1, Fraction) and isinstance(t2, Fraction):
        d = t1 - t2
        if d.denominator == 1:
            return -2 * int(d)
        return -2 * math.floor(d) - 1
    x = (l1.angle() - l2.angle()) / math.pi
    nearest = round(x)
    if abs(x - nearest) <= tol:
        return -2 * nearest
    return -2 * math.floor(x) - 1


def leray_cyclic_sum(lifts: Sequence[LerayLift], tol: float = DEFAULT_TOL):
    """Sum of m over consecutive cyclic pairs; equals the projected index."""
    if len(lifts) < 2:
        raise ValueError("need at least two lifts")
    return sum(leray_m(lifts[i], lifts[(i + 1) % len(lifts)], tol)
               for i in range(len(lifts)))
