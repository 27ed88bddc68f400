"""Indices of Lagrangian tuples.

Routes to the same circle of invariants:

* ``kashiwara_index`` -- signature of the symmetric form
  q(x, y) = sum over i > j of omega(x_i, y_j), symmetrized, on the direct
  sum L_1 + ... + L_r (Lion-Vergne; Cappell-Lee-Miller).  Its Gram matrix
  has blocks F_i^T Omega F_j below the diagonal, their transposes above and
  zeros on it, so no kernel or quotient is formed.  Exact mode scales each
  frame column to a primitive integer vector and a rational Omega by the
  lcm of its denominators (positive congruences) and takes a fraction-free
  integer signature; approx mode orthonormalizes each frame by QR first.
* ``kashiwara_space`` -- the same form on the quotient
  T = ker(sum) / im(boundary), built from consecutive intersections of the
  tuple; it has the same signature.  The CLI reports its dimension and
  signature, and the tests use it as the oracle for ``kashiwara_index``.
* ``arnold_index_*``  -- closed angle formulas on the Lagrangian
  Grassmannian, tau(L(theta)) = 1 - 2 theta / pi off the cycle.
* ``wall_invariant``  -- signature of the symmetrized kernel form
  psi(x, y) = omega(x_2, y_1) on the same kernel space (triples only).
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

import numpy as np

from .linalg import (EXACT, Matrix, Signature, SymmetricForm,
                     clear_denominators, integer_signature, kernel_basis, rank,
                     sym_signature)
from .symplectic import (ANGLE_SNAP, LagrangianFrame, SymplecticSpace,
                         eigen_angles, line_lagrangian)
from .witt import WittReal, witt_of_signature


@dataclass(frozen=True)
class LagrangianTuple:
    space: SymplecticSpace
    members: tuple[LagrangianFrame, ...]

    @staticmethod
    def of(*lags: LagrangianFrame) -> "LagrangianTuple":
        if len(lags) < 2:
            raise ValueError("a Lagrangian tuple needs at least two members")
        space = lags[0].space
        mode = lags[0].frame.mode
        for lag in lags[1:]:
            if lag.space.omega.entries != space.omega.entries:
                raise ValueError("tuple members live in different spaces")
            if lag.frame.mode != mode:
                raise ValueError("tuple members mix scalar modes")
        return LagrangianTuple(space, tuple(lags))

    def __len__(self) -> int:
        return len(self.members)

    def rotated(self, k: int = 1) -> "LagrangianTuple":
        mem = self.members
        k %= len(mem)
        return LagrangianTuple(self.space, mem[k:] + mem[:k])


@dataclass(frozen=True)
class QuadraticSpace:
    dim: int
    form: SymmetricForm

    def signature(self) -> Signature:
        return sym_signature(self.form)


def _boundary_columns(tup: LagrangianTuple) -> Matrix:
    """Images of consecutive intersections under a -> (a at i, -a at i+1)."""
    r = len(tup)
    n = tup.space.n
    frames = [m.frame for m in tup.members]
    mode = frames[0].mode
    cols: list[list] = []
    zero = Fraction(0) if mode == EXACT else 0.0
    for i in range(r):
        j = (i + 1) % r
        ker = kernel_basis(frames[i].hstack(frames[j].scale(-1)))
        for c in range(ker.cols):
            vec = [zero] * (r * n)
            for a in range(n):
                vec[i * n + a] = ker[a, c]
                vec[j * n + a] = -ker[n + a, c]
            cols.append(vec)
    if not cols:
        return Matrix.zeros(r * n, 0, mode, frames[0].tol)
    ent = tuple(tuple(col[i] for col in cols) for i in range(r * n))
    return Matrix(r * n, len(cols), ent, mode, frames[0].tol)


def _independent_over(base: Matrix, cands: Matrix) -> list[int]:
    """Indices of candidate columns independent modulo the base span."""
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


def _kashiwara_reps(tup: LagrangianTuple) -> tuple[Matrix, Matrix]:
    """(representative columns of T, boundary columns) in tuple coordinates."""
    frames = [m.frame for m in tup.members]
    sigma = frames[0]
    for f in frames[1:]:
        sigma = sigma.hstack(f)
    ker = kernel_basis(sigma)
    bnd = _boundary_columns(tup)
    reps = ker.columns(_independent_over(bnd, ker))
    return reps, bnd


def _lower_blocks(tup: LagrangianTuple) -> list[list[Matrix]]:
    """blocks[i][j] = F_i^T Omega F_j for j < i, the blocks q reads."""
    frames = [m.frame for m in tup.members]
    omega = tup.space.omega_as(frames[0].mode)
    return [[f.T @ omega @ frames[j] for j in range(i)]
            for i, f in enumerate(frames)]


def _chunk(col: tuple, r: int, n: int) -> list[tuple]:
    return [col[i * n:(i + 1) * n] for i in range(r)]


def kashiwara_space(tup: LagrangianTuple) -> QuadraticSpace:
    """The canonical quadratic space of a Lagrangian tuple.

    T = ker(sum map) / im(boundary), with the symmetric form
    q(a, b) = sum over i > j of omega(a_i, b_j).
    """
    r, n = len(tup), tup.space.n
    reps, _ = _kashiwara_reps(tup)
    blocks = _lower_blocks(tup)
    dim = reps.cols
    cols = [_chunk(reps.col(c), r, n) for c in range(dim)]
    mode = reps.mode

    def q(u, v):
        tot = Fraction(0) if mode == EXACT else 0.0
        for i in range(r):
            for j in range(i):
                bij = blocks[i][j]
                tot += sum(u[i][a] * sum(bij[a, b] * v[j][b] for b in range(n))
                           for a in range(n))
        return tot

    gram = [[q(cols[a], cols[b]) for b in range(dim)] for a in range(dim)]
    if mode == EXACT:
        for a in range(dim):
            for b in range(dim):
                if gram[a][b] != gram[b][a]:
                    raise ValueError("kernel form failed to be symmetric")
    else:
        gram = [[(gram[a][b] + gram[b][a]) / 2.0 for b in range(dim)]
                for a in range(dim)]
    g = Matrix.from_rows(gram, mode, reps.tol) if dim else Matrix.zeros(0, 0, mode)
    return QuadraticSpace(dim, SymmetricForm(dim, g))


def _primitive_column(col: Sequence[Fraction]) -> list[int]:
    ints = clear_denominators([col])[0]
    content = math.gcd(*ints)
    return [x // content for x in ints]


def _direct_sum_gram_exact(tup: LagrangianTuple) -> list[list[int]]:
    """Integer Gram of q on the direct sum, after positive column scalings."""
    omega = clear_denominators(tup.space.omega.entries)
    cols = [_primitive_column(m.frame.col(c))
            for m in tup.members for c in range(m.frame.cols)]
    images = [[sum(o * v for o, v in zip(orow, col)) for orow in omega]
              for col in cols]
    n = tup.space.n
    size = len(cols)
    gram = [[0] * size for _ in range(size)]
    for x in range(size):
        for y in range(x - x % n):
            val = sum(a * b for a, b in zip(cols[x], images[y]))
            gram[x][y] = gram[y][x] = val
    return gram


def _direct_sum_gram_approx(tup: LagrangianTuple) -> Matrix:
    """Float Gram of q on the direct sum of QR-orthonormalized frames."""
    omega = tup.space.omega.to_numpy()
    qs = [np.linalg.qr(m.frame.to_numpy())[0] for m in tup.members]
    n = tup.space.n
    gram = np.zeros((len(qs) * n, len(qs) * n))
    for i, qi in enumerate(qs):
        for j in range(i):
            blk = qi.T @ omega @ qs[j]
            gram[i * n:(i + 1) * n, j * n:(j + 1) * n] = blk
            gram[j * n:(j + 1) * n, i * n:(i + 1) * n] = blk.T
    return Matrix.from_numpy(gram, max(m.frame.tol for m in tup.members))


def kashiwara_index(tup: LagrangianTuple | Sequence[LagrangianFrame]) -> WittReal:
    """Witt class (signature) of the canonical form of the tuple."""
    if not isinstance(tup, LagrangianTuple):
        tup = LagrangianTuple.of(*tup)
    if tup.members[0].frame.mode == EXACT:
        sig = integer_signature(_direct_sum_gram_exact(tup))
    else:
        sig = sym_signature(_direct_sum_gram_approx(tup))
    return witt_of_signature(sig)


def tuple_reduce(tup: LagrangianTuple) -> WittReal:
    """Index via the triple reduction sum_{j=2}^{r-1} tau(L1, Lj, Lj+1)."""
    total = 0
    mem = tup.members
    for j in range(1, len(mem) - 1):
        total += int(kashiwara_index(LagrangianTuple.of(mem[0], mem[j], mem[j + 1])))
    return WittReal(total)


def wall_invariant(l1: LagrangianFrame, l2: LagrangianFrame,
                   l3: LagrangianFrame) -> WittReal:
    """Signature of the symmetrized kernel form on
    W = {x1 + x2 + x3 = 0} / (pairwise intersections), psi(x, y) = omega(x_2, y_1).
    """
    tup = LagrangianTuple.of(l1, l2, l3)
    reps, _ = _kashiwara_reps(tup)
    n = tup.space.n
    f1, f2 = l1.frame, l2.frame
    omega = tup.space.omega_as(f1.mode)
    p21 = f2.T @ omega @ f1
    dim = reps.cols
    cols = [_chunk(reps.col(c), 3, n) for c in range(dim)]

    def psi(u, v):
        return sum(u[1][a] * sum(p21[a, b] * v[0][b] for b in range(n))
                   for a in range(n))

    half = Fraction(1, 2) if reps.mode == EXACT else 0.5
    gram = [[(psi(cols[a], cols[b]) + psi(cols[b], cols[a])) * half
             for b in range(dim)] for a in range(dim)]
    g = Matrix.from_rows(gram, reps.mode, reps.tol) if dim else Matrix.zeros(0, 0, reps.mode)
    return witt_of_signature(sym_signature(g))


# -- Arnold angle formulas (eigen-angle route) -------------------------------


def _pair_value(t1: float, t2: float, snap: float = ANGLE_SNAP) -> float:
    if abs(t1 - t2) <= snap:
        return 0.0
    if t1 < t2:
        return 1.0 - 2.0 * (t2 - t1) / math.pi
    return -(1.0 - 2.0 * (t1 - t2) / math.pi)


def arnold_index_pair(l1: LagrangianFrame, l2: LagrangianFrame) -> float:
    """Componentwise two-argument index; antisymmetric, diagonal inputs only."""
    a1, a2 = eigen_angles(l1), eigen_angles(l2)
    return sum(_pair_value(t1, t2) for t1, t2 in zip(a1, a2))


def arnold_index_triple(l1: LagrangianFrame, l2: LagrangianFrame,
                        l3: LagrangianFrame) -> int:
    """Cyclic sum of pair indices; integer-valued."""
    s = (arnold_index_pair(l1, l2) + arnold_index_pair(l2, l3)
         + arnold_index_pair(l3, l1))
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
        p, q = Fraction(p), Fraction(q)
        if p == 0 and q == 0:
            raise ValueError("direction must be nonzero")
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
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


def leray_m(l1: LerayLift, l2: LerayLift, tol: float = 1e-9):
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


def leray_cyclic_sum(lifts: Sequence[LerayLift], tol: float = 1e-9):
    """Sum of m over consecutive cyclic pairs; equals the projected index."""
    if len(lifts) < 2:
        raise ValueError("need at least two lifts")
    return sum(leray_m(lifts[i], lifts[(i + 1) % len(lifts)], tol)
               for i in range(len(lifts)))
