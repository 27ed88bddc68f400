"""Indices of Lagrangian tuples.

One pairing, three readings.  The pairing of a tuple (L_1, ..., L_r) with
frames F_i is the block-lower matrix P whose block (i, j), i > j, is
F_i^T Omega F_j, so x^T P y = q(x, y) = sum over i > j of omega(x_i, y_j)
(Lion-Vergne; Cappell-Lee-Miller).  ``symplectic._pairing`` assembles it;
the forms read it:

* ``kashiwara_index`` -- pos - neg of P + P^T, the symmetrized q on the
  direct sum L_1 + ... + L_r; no kernel or quotient is formed.  Exact mode
  pairs primitive integer frame columns through Omega's numerators
  (positive congruences) and sums ``_triple_index`` over (L_1, L_k, L_k+1)
  by the chain rule: an n x n Schur form, or the 3n Gram if det A = 0.
  Approx mode symmetrizes P of QR frames; only it imports numpy.
* ``kashiwara_space`` -- the Gram matrix R^T P R of q on the quotient
  T = ker(sum) / im(boundary), for representatives R of T built from
  consecutive intersections of the tuple; it has the same signature.  The
  CLI reports its dimension and signature, and the tests use it as the
  oracle for ``kashiwara_index``.
* ``wall_invariant``  -- signature of the symmetrized kernel form
  psi(x, y) = omega(x_2, y_1) on the same quotient (triples only): R^T P R
  with P cut to its block F_2^T Omega F_1.

Other routes to the same circle of invariants:

* ``arnold_index_triple`` -- sum over the planes span(e_j, e_{n+j}) of the
  cyclic sign of three diagonal line angles, as ``arnold_triple_lines``.
* ``leray_m``         -- integer cochain on pairs of lifted lines (n = 1)
  whose cyclic sums reproduce the Kashiwara index of the projected tuple.

Calibration: the index of (L(0), L(pi/3), L(2pi/3)) is +1 and reversing a
tuple negates its index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .linalg import (APPROX, DEFAULT_TOL, EXACT, Matrix, Value, _adjugate,
                     _set, integer_signature, kernel_basis, rank, rref,
                     sym_signature)
from .symplectic import (LagrangianFrame, SymplecticSpace, _pairing, _support,
                         line_lagrangian)
from .witt import witt_of_form_real

# float line angles closer than this, mod pi, are the same line
ANGLE_SNAP = 1e-9


class LagrangianTuple(Value):
    """Lagrangians of one space in one scalar mode; ``of`` checks both."""

    _fields = ("members",)

    def __init__(self, members: tuple[LagrangianFrame, ...]):
        _set(self, "members", members)

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


def _triple_index(a: list, b: list, c: list) -> int:
    """tau(L_1, L_2, L_3) from the blocks (2,1) = A, (3,1) = B and (3,2) = C
    of its integer pairing: -sgn(d) sig(W + W^T), W = B (d A^-1) C^T, from the
    Schur complement of the hyperbolic [[0, A^T], [A, 0]] if L_1, L_2 are
    transverse (Lion & Vergne 1980), else the signature of the whole 3n Gram.
    Positive factors on the blocks are member scalings, which tau ignores."""
    inv = _adjugate(a)
    if inv is None:   # the 3n Gram; integer_signature reads row k up to entry k
        zeros = [0] * len(a)
        sig = integer_signature([zeros] * len(a) + [r + zeros for r in a]
                                + [r + t + zeros for r, t in zip(b, c)])
        return sig.pos - sig.neg
    w = [[sum(map(mul, row, col)) for col in zip(*inv[1])] for row in b]
    w = [[sum(map(mul, row, crow)) for crow in c] for row in w]
    sig = integer_signature([[w[i][j] + w[j][i] for j in range(i + 1)]
                             for i in range(len(w))])
    return sig.neg - sig.pos if inv[0] > 0 else sig.pos - sig.neg


def kashiwara_index(tup: LagrangianTuple | Sequence[LagrangianFrame]) -> int:
    """Witt class (signature) of the canonical form of the tuple; exact mode
    sums tau(L_1, L_k, L_k+1) (chain rule; Cappell, Lee & Miller, CPAM 47
    (1994)), each by the transverse-pair formula or, if det A = 0, its 3n Gram."""
    if not isinstance(tup, LagrangianTuple):
        tup = LagrangianTuple.of(*tup)
    space = tup.space
    if tup.members[0].frame.mode == EXACT:
        # positive scalings of columns and of Omega are congruences
        cols = [[_primitive_column(c) for c in m.frame.T.num] for m in tup.members]
        images = [[[sum(o * c[j] for j, o in row) for row in space.omega_support]
                   for c in f] for f in cols[:-1]]
        # F_i^T Omega F_j for each i > 0 with j = 0 and j = i - 1 (once at i = 1)
        blocks = [[[[sum(map(mul, x, y)) for y in images[j]] for x in cols[i]]
                   for j in (0, i - 1)[:i]] for i in range(1, len(cols))]
        return sum(_triple_index(p[0], q[0], q[1]) for p, q in zip(blocks, blocks[1:]))
    import numpy as np
    cols = [q for m in tup.members
            for q in np.linalg.qr(m.frame.to_numpy())[0].T.tolist()]
    support = _support(space.omega_as(APPROX).num)
    pair = Matrix.approx(_pairing(cols, support, space.n),
                         max(m.frame.tol for m in tup.members))
    sig = sym_signature(pair + pair.T)
    return sig.pos - sig.neg


def tuple_reduce(tup: LagrangianTuple) -> int:
    """Index via the chain rule sum_{j=2}^{r-1} tau(L1, Lj, Lj+1), one call per
    triple: the transverse-pair Schur form, or the 3n Gram when det A = 0."""
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


# -- Arnold line-angle formulas ----------------------------------------------


def _cyclic_sign(c12: int, c23: int, c13: int) -> int:
    """Triple index of three lines from their pairwise angle comparisons:
    0 when two coincide, otherwise +1 for increasing cyclic order."""
    if 0 in (c12, c23, c13):
        return 0
    return -c12 * c23 * c13


def _angle_compare(t1: float, t2: float) -> int:
    """-1, 0, +1 ordering of two line angles in [0, pi]; angles within
    ANGLE_SNAP of each other mod pi (0 and pi included) are one line."""
    d = t1 - t2
    if min(abs(d), math.pi - abs(d)) <= ANGLE_SNAP:
        return 0
    return -1 if d < 0 else 1


def _diagonal_angles(lag: LagrangianFrame) -> list[float]:
    """theta_j = atan2(F[n+j][j], F[j][j]) mod pi of a diagonal frame F."""
    n, rows = lag.space.n, lag.frame.num
    if any(x for i, row in enumerate(rows) for j, x in enumerate(row)
           if i % n != j):
        raise ValueError("the angle index needs diagonal frames")
    return [math.atan2(rows[n + j][j], rows[j][j]) % math.pi for j in range(n)]


def arnold_index_triple(l1: LagrangianFrame, l2: LagrangianFrame,
                        l3: LagrangianFrame) -> int:
    """Triple index of diagonal frames of one standard space: the cyclic
    signs of their angles theta_j summed over the planes span(e_j, e_{n+j}),
    as the index is additive over symplectic sums (Cappell-Lee-Miller)."""
    if not l1.space.is_standard() or not (l1.space == l2.space == l3.space):
        raise ValueError("the angle index needs one standard space")
    return sum(_cyclic_sign(_angle_compare(a, b), _angle_compare(b, c),
                            _angle_compare(a, c))
               for a, b, c in zip(*map(_diagonal_angles, (l1, l2, l3))))


# -- Leray function on lifted lines (n = 1 only) -----------------------------


class LerayLift(Value):
    """A point of the universal cover of the line Grassmannian (n = 1).

    ``theta_tilde`` is the lifted angle in radians.  Exact variants: a
    Fraction means an exact multiple of pi; ``direction`` = (p, q, k)
    means angle-of-(p, q) + k pi with rational p, q (exact floors).
    """

    _fields = ("theta_tilde", "direction")

    def __init__(self, theta_tilde: float | Fraction,
                 direction: tuple[Fraction, Fraction, int] | None = None):
        _set(self, "theta_tilde", theta_tilde)
        _set(self, "direction", direction)

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
    return _cyclic_sign(_line_angle_compare(a, b), _line_angle_compare(b, c),
                        _line_angle_compare(a, c))


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
    exact = isinstance(t1, Fraction) and isinstance(t2, Fraction)
    # exact pi-multiples snap only on pi Z itself, float lifts within tol
    x = t1 - t2 if exact else (l1.angle() - l2.angle()) / math.pi
    nearest = round(x)
    if abs(x - nearest) <= (0 if exact else tol):
        return -2 * nearest
    return -2 * math.floor(x) - 1


def leray_cyclic_sum(lifts: Sequence[LerayLift], tol: float = DEFAULT_TOL):
    """Sum of m over consecutive cyclic pairs; equals the projected index."""
    if len(lifts) < 2:
        raise ValueError("need at least two lifts")
    return sum(leray_m(lifts[i], lifts[(i + 1) % len(lifts)], tol)
               for i in range(len(lifts)))
