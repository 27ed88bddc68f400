"""Indices of Lagrangian tuples.

One pairing, three readings.  The pairing of a tuple (L_1, ..., L_r) with
frames F_i is the block-lower matrix P whose block (i, j), i > j, is
F_i^T Omega F_j, so x^T P y = q(x, y) = sum over i > j of omega(x_i, y_j)
(Lion-Vergne; Cappell-Lee-Miller).  ``symplectic._pairing`` assembles it;
the forms read it:

* ``kashiwara_index`` -- pos - neg of P + P^T, the symmetrized q on the
  direct sum L_1 + ... + L_r; no kernel or quotient is formed.  It pairs
  primitive integer frame columns through Omega's numerators (positive
  congruences) and sums ``_triple_index`` over (L_1, L_k, L_k+1) by the
  chain rule: an n x n Schur form, or the 3n Gram if det A = 0.
* ``kashiwara_space`` -- the Gram matrix R^T P R of q on the quotient
  T = ker(sum) / im(boundary), for representatives R of T built from
  consecutive intersections of the tuple; it has the same signature.  The
  CLI reports its dimension and signature, and the tests use it as the
  oracle for ``kashiwara_index``.
* ``wall_invariant``  -- signature of the symmetrized kernel form
  psi(x, y) = omega(x_2, y_1) on the same quotient (triples only): R^T P R
  with P cut to its block F_2^T Omega F_1.

The float twins ``kashiwara_index_float``, ``kashiwara_signature_float``
and ``wall_invariant_float`` take (2n, n) float arrays as ``(space, frames,
tol)``, run ``check_lagrangian_frames`` first and cut at ``_float_cut``.

Other routes to the same circle of invariants:

* ``arnold_index_triple`` -- sum over the planes span(e_j, e_{n+j}) of the
  cyclic sign of three diagonal float line angles, as
  ``arnold_triple_lines``.
* ``leray_m``         -- integer cochain on pairs of lifted lines (n = 1)
  whose cyclic sums reproduce the Kashiwara index of the projected tuple.

Calibration: the index of (L(0), L(pi/3), L(2pi/3)) is +1 and reversing a
tuple negates its index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Sequence

# ``rank`` is unused here, but perfbench wraps ``maslov.rank``
from .linalg import (DEFAULT_TOL, Matrix, Signature, Value, _adjugate, _set,
                     integer_signature, kernel_basis, rank, rref)
from .symplectic import (LagrangianFrame, SymplecticSpace, _float_cut,
                         _float_rank, _pairing, _support,
                         check_lagrangian_frames, line_lagrangian)
from .witt import witt_of_form_real

if TYPE_CHECKING:
    import numpy as np

# float line angles closer than this, mod pi, are the same line
ANGLE_SNAP = 1e-9


class LagrangianTuple(Value):
    """Exact Lagrangians of one space; ``of`` checks both, and refuses a
    float frame among them as a mix of scalar modes."""

    _fields = ("members",)

    def __init__(self, members: tuple[LagrangianFrame, ...]):
        _set(self, "members", members)

    @staticmethod
    def of(*lags: LagrangianFrame) -> "LagrangianTuple":
        if len(lags) < 2:
            raise ValueError("a Lagrangian tuple needs at least two members")
        if not all(isinstance(lag, LagrangianFrame) for lag in lags):
            raise ValueError("tuple members mix scalar modes")
        if any(lag.space != lags[0].space for lag in lags[1:]):
            raise ValueError("tuple members live in different spaces")
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
    if not cols:
        return Matrix.zeros(r * n, 0)
    return Matrix.exact(list(zip(*cols)))


def _quotient_gram(tup: LagrangianTuple,
                   block: tuple[int, int] | None = None) -> Matrix:
    """R^T P R for the pairing P (or one block of it) and representatives R
    of T: kernel columns of the sum map Sigma = (F_1 ... F_r) independent
    modulo the boundary, each taken greedily against the boundary and the
    columns before it (the rref pivots past the boundary); q(a, b) =
    a^T P b.  P pairs the numerators of Sigma and Omega."""
    sigma = tup.members[0].frame
    for m in tup.members[1:]:
        sigma = sigma.hstack(m.frame)
    ker, base = kernel_basis(sigma), _boundary_columns(tup)
    _, pivots = rref(base.hstack(ker))
    reps = ker.columns(c - base.cols for c in pivots if c >= base.cols)
    space = tup.space
    pair = Matrix.exact(_pairing(sigma.T.num, space.omega_support, space.n, block))
    return reps.T @ pair.scale(Fraction(1, sigma.den ** 2 * space.omega.den)) @ reps


def kashiwara_space(tup: LagrangianTuple) -> Matrix:
    """Symmetric Gram matrix of the canonical quadratic space of a
    Lagrangian tuple.

    T = ker(sum map) / im(boundary), with the symmetric form
    q(a, b) = sum over i > j of omega(a_i, b_j); dim T is its row count.
    """
    g = _quotient_gram(tup)
    if g.T != g:
        raise ValueError("kernel form failed to be symmetric")
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
    """Witt class (signature) of the canonical form of the tuple: the sum of
    tau(L_1, L_k, L_k+1) (chain rule; Cappell, Lee & Miller, CPAM 47
    (1994)), each by the transverse-pair formula or, if det A = 0, its 3n Gram."""
    if not isinstance(tup, LagrangianTuple):
        tup = LagrangianTuple.of(*tup)
    support = tup.space.omega_support
    # positive scalings of columns and of Omega are congruences
    cols = [[_primitive_column(c) for c in m.frame.T.num] for m in tup.members]
    images = [[[sum(o * c[j] for j, o in row) for row in support] for c in f]
              for f in cols[:-1]]
    # F_i^T Omega F_j for each i > 0 with j = 0 and j = i - 1 (once at i = 1)
    blocks = [[[[sum(map(mul, x, y)) for y in images[j]] for x in cols[i]]
               for j in (0, i - 1)[:i]] for i in range(1, len(cols))]
    return sum(_triple_index(p[0], q[0], q[1]) for p, q in zip(blocks, blocks[1:]))


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
    return witt_of_form_real((g + g.T).scale(Fraction(1, 2)))


# -- float twins: Lagrangians as (2n, n) arrays ------------------------------


def _float_tuple(space: SymplecticSpace, frames, tol: float) -> np.ndarray:
    """The checked (r, 2n, n) stack of a float tuple of r >= 2 members."""
    frames = check_lagrangian_frames(space, frames, tol)
    if len(frames) < 2:
        raise ValueError("a Lagrangian tuple needs at least two members")
    return frames


def _float_kernel(a: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal columns spanning the right kernel of ``a``: the right
    singular vectors past the singular values above ``_float_cut``."""
    import numpy as np
    _, sv, vh = np.linalg.svd(a)
    return vh[int(np.sum(sv > _float_cut(a, tol))):].T


def _float_signature(g: np.ndarray, tol: float) -> Signature:
    """Signature of the symmetric float ``g``, its eigenvalues cut at
    plus and minus ``_float_cut``."""
    import numpy as np
    w, cut = np.linalg.eigvalsh(g), _float_cut(g, tol)
    pos, neg = int(np.sum(w > cut)), int(np.sum(w < -cut))
    return Signature(pos, len(g) - pos - neg, neg)


def _float_form(space: SymplecticSpace, frames, tol: float,
                block: tuple[int, int] | None = None) -> Signature:
    """The signature of the symmetrized ``_quotient_gram`` of float frames.
    The sum map's kernel and the boundary (each consecutive pair's kernel)
    come from ``_float_kernel``; a kernel column is taken when it raises the
    ``_float_rank`` of the boundary and the columns taken before it."""
    import numpy as np
    frames = _float_tuple(space, frames, tol)
    r, n = len(frames), space.n
    sigma = np.hstack(list(frames))
    base = np.zeros((r * n, 0))
    for i in range(r):
        j = (i + 1) % r
        meet = _float_kernel(np.hstack([frames[i], -frames[j]]), tol)
        cols = np.zeros((r * n, meet.shape[1]))
        cols[i * n:i * n + n], cols[j * n:j * n + n] = meet[:n], -meet[n:]
        base = np.hstack([base, cols])
    ker, picked, base_rank = _float_kernel(sigma, tol), [], _float_rank(base, tol)
    for k in range(ker.shape[1]):
        trial = np.hstack([base, ker[:, k:k + 1]])
        if (trial_rank := _float_rank(trial, tol)) > base_rank:
            picked.append(k)
            base, base_rank = trial, trial_rank
    reps = ker[:, picked]
    support = _support(space.omega.to_numpy().tolist())
    pair = np.array(_pairing(sigma.T.tolist(), support, n, block), dtype=float)
    g = reps.T @ pair @ reps
    return _float_signature(0.5 * (g + g.T), tol)


def kashiwara_index_float(space: SymplecticSpace, frames,
                          tol: float = DEFAULT_TOL) -> int:
    """``kashiwara_index`` of float Lagrangians: pos - neg of P + P^T, P
    paired from the orthonormal Q factors of the frames (raw frames with
    entries near 1e6 lose the signature to rounding)."""
    import numpy as np
    cols = [q for f in _float_tuple(space, frames, tol)
            for q in np.linalg.qr(f)[0].T.tolist()]
    support = _support(space.omega.to_numpy().tolist())
    pair = np.array(_pairing(cols, support, space.n), dtype=float)
    sig = _float_signature(pair + pair.T, tol)
    return sig.pos - sig.neg


def kashiwara_signature_float(space: SymplecticSpace, frames,
                              tol: float = DEFAULT_TOL) -> Signature:
    """The signature of ``kashiwara_space`` of float Lagrangians, q on
    T = ker(sum) / im(boundary); its ``dim`` is dim T."""
    return _float_form(space, frames, tol)


def wall_invariant_float(space: SymplecticSpace, frames,
                         tol: float = DEFAULT_TOL) -> int:
    """``wall_invariant`` of three float Lagrangians."""
    if len(frames) != 3:
        raise ValueError("the Wall invariant needs exactly three frames")
    sig = _float_form(space, frames, tol, block=(1, 0))
    return sig.pos - sig.neg


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


def _diagonal_angles(frame: np.ndarray) -> list[float]:
    """theta_j = atan2(F[n+j][j], F[j][j]) mod pi of a diagonal float frame F."""
    n, rows = frame.shape[1], frame.tolist()
    if any(x for i, row in enumerate(rows) for j, x in enumerate(row)
           if i % n != j):
        raise ValueError("the angle index needs diagonal frames")
    return [math.atan2(rows[n + j][j], rows[j][j]) % math.pi for j in range(n)]


def arnold_index_triple(space: SymplecticSpace, frames,
                        tol: float = DEFAULT_TOL) -> int:
    """Triple index of three diagonal float Lagrangians of the standard
    space: the cyclic signs of their angles theta_j summed over the planes
    span(e_j, e_{n+j}), as the index is additive over symplectic sums
    (Cappell-Lee-Miller)."""
    frames = check_lagrangian_frames(space, frames, tol)
    if not space.is_standard():
        raise ValueError("the angle index needs one standard space")
    if len(frames) != 3:
        raise ValueError("the triple index needs exactly three frames")
    return sum(_cyclic_sign(_angle_compare(a, b), _angle_compare(b, c),
                            _angle_compare(a, c))
               for a, b, c in zip(*map(_diagonal_angles, frames)))


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
        """The exact line of a direction lift; other lifts have none."""
        if self.direction is None:
            raise ValueError("only a direction lift has an exact line")
        return line_lagrangian(space, self.direction[:2])


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
