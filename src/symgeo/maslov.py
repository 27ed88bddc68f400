"""Indices of Lagrangian tuples.

One pairing.  The pairing of a tuple (L_1, ..., L_r) with frames F_i is
the block-lower matrix P whose block (i, j), i > j, is F_i^T Omega F_j, so
x^T P y = q(x, y) = sum over i > j of omega(x_i, y_j) (Lion-Vergne;
Cappell-Lee-Miller).

* ``kashiwara_index`` -- pos - neg of P + P^T, the symmetrized q on the
  direct sum L_1 + ... + L_r, as the sum of ``_triple_index`` over
  (L_1, L_k, L_k+1) (chain rule).  It builds only the blocks it needs from
  ``LagrangianFrame._integer_columns``, the primitive integer member columns
  and their Omega.num images (positive congruences) that each frame's
  isotropy check caches.  ``symplectic._pairing`` builds P for the float
  index, the quotient oracles and ``metaplectic.is_symplectic`` (block 1).
* ``kashiwara_signature`` -- the signature (p, 0, m) of q on the quotient
  T = ker(sum) / im(boundary), p - m the index and p + m = dim T counted
  from r + 1 ranks, with no quotient built.  The CLI reports it.

``kashiwara_index_float`` takes (2n, n) float arrays as ``(space, frames,
tol)``, runs ``check_lagrangian_frames`` first and cuts at ``_float_cut``.
It and ``kashiwara_signature`` make one float decision: each refuses an
eigenvalue or singular value within ``FLOAT_MARGIN`` of its cut.

Oracles, kept for the tests and the ``wall_kashiwara`` selftest suite:

* ``kashiwara_space`` -- the Gram matrix R^T P R of q on T, for
  representatives R of T built from consecutive intersections of the tuple.
* ``wall_invariant``  -- signature of the symmetrized kernel form
  psi(x, y) = omega(x_2, y_1) on the same quotient (triples only): R^T P R
  with P cut to its block F_2^T Omega F_1.
* ``tuple_reduce``    -- the chain rule, one ``kashiwara_index`` per triple.

Other routes to the same circle of invariants:

* ``arnold_triple_lines`` -- the cyclic sign of three rational lines
  (n = 1), an oracle for the ``arnold_kashiwara`` selftest suite; ``maslov
  arnold`` reads ``kashiwara_index`` and ``kashiwara_index_float``.
* ``leray_m``         -- integer cochain on pairs of lifted lines (n = 1)
  whose cyclic sums reproduce the Kashiwara index of the projected tuple.

Calibration: the index of (L(0), L(pi/3), L(2pi/3)) is +1 and reversing a
tuple negates its index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .linalg import (DEFAULT_TOL, Matrix, Signature, Value, _solve,
                     integer_signature, kernel_basis, rank, rref)
from .symplectic import (LagrangianFrame, SymplecticSpace, _float_cut,
                         _pairing, _support, check_lagrangian_frames,
                         line_lagrangian)
from .witt import witt_of_form_real

if TYPE_CHECKING:
    import numpy as np


class LagrangianTuple(Value):
    """Exact Lagrangians of one space; ``of`` checks both, and refuses a
    float frame among them as a mix of scalar modes."""

    _fields = ("members",)

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
    sigma = reduce(Matrix.hstack, (m.frame for m in tup.members))
    ker, base = kernel_basis(sigma), _boundary_columns(tup)
    _, pivots = rref(base.hstack(ker))
    reps = ker.columns(c - base.cols for c in pivots if c >= base.cols)
    space = tup.space
    pair = Matrix.exact(_pairing(sigma.T.num, space.omega_support, space.n, block))
    return reps.T @ pair.scale(Fraction(1, sigma.den ** 2 * space.omega.den)) @ reps


def kashiwara_space(tup: LagrangianTuple) -> Matrix:
    """Symmetric Gram matrix of the canonical quadratic space of a
    Lagrangian tuple; an oracle for ``kashiwara_signature``.

    T = ker(sum map) / im(boundary), with the symmetric form
    q(a, b) = sum over i > j of omega(a_i, b_j); dim T is its row count.
    """
    g = _quotient_gram(tup)
    if g.T != g:
        raise ValueError("kernel form failed to be symmetric")
    return g


def _triple_index(a: list, b: list, c: list) -> int:
    """tau(L_1, L_2, L_3) from the blocks (2,1) = A, (3,1) = B, (3,2) = C of
    its integer pairing: if L_1, L_2 are transverse, -sgn(d) sig(W) for the
    Schur complement W = B (d A^-1 C^T) of [[0, A^T], [A, 0]] (Lion & Vergne
    1980), from one ``_solve`` of [A | C^T]; else the signature of the 3n Gram.
    W is symmetric, so only its lower triangle is formed: if F_3 = F_1 P +
    F_2 Q, isotropic L_1, L_2 give B = Q^T A, C = -P^T A^T, W = -d Q^T A P,
    and isotropic L_3 gives Q^T A P = P^T A^T Q.  Positive factors on the
    blocks are member scalings, which tau ignores."""
    solved = _solve(a, list(zip(*c)))   # [A | C^T]
    if solved is None:   # the 3n Gram; integer_signature reads row k up to entry k
        zeros = [0] * len(a)
        sig = integer_signature([zeros] * len(a) + [r + zeros for r in a]
                                + [r + t + zeros for r, t in zip(b, c)])
        return sig.pos - sig.neg
    x = list(zip(*solved[1]))
    sig = integer_signature([[sum(map(mul, row, col)) for col in x[:i + 1]]
                             for i, row in enumerate(b)])
    return sig.neg - sig.pos if solved[0] > 0 else sig.pos - sig.neg


def kashiwara_index(tup: LagrangianTuple | Sequence[LagrangianFrame]) -> int:
    """Witt class (signature) of the canonical form of the tuple: the sum of
    tau(L_1, L_k, L_k+1) (chain rule; Cappell, Lee & Miller, CPAM 47
    (1994)), each by the transverse-pair formula or, if det A = 0, its 3n Gram."""
    if not isinstance(tup, LagrangianTuple):
        tup = LagrangianTuple.of(*tup)
    cols, images = zip(*(m._integer_columns for m in tup.members))
    # F_i^T Omega F_j for each i > 0 with j = 0 and j = i - 1 (once at i = 1)
    blocks = [[[[sum(map(mul, x, y)) for y in images[j]] for x in cols[i]]
               for j in (0, i - 1)[:i]] for i in range(1, len(cols))]
    return sum(_triple_index(p[0], q[0], q[1]) for p, q in zip(blocks, blocks[1:]))


def tuple_reduce(tup: LagrangianTuple) -> int:
    """Index via the chain rule sum_{j=2}^{r-1} tau(L1, Lj, Lj+1), one call per
    triple: the transverse-pair Schur form, or the 3n Gram when det A = 0.
    An oracle for the tests and perfbench."""
    mem = tup.members
    return sum(kashiwara_index(LagrangianTuple.of(mem[0], mem[j], mem[j + 1]))
               for j in range(1, len(mem) - 1))


def wall_invariant(l1: LagrangianFrame, l2: LagrangianFrame,
                   l3: LagrangianFrame) -> int:
    """Signature of the symmetrized kernel form on
    W = {x1 + x2 + x3 = 0} / (pairwise intersections), psi(x, y) = omega(x_2, y_1).
    An oracle: it equals tau(l1, l2, l3), which the CLI reports.
    """
    g = _quotient_gram(LagrangianTuple.of(l1, l2, l3), block=(1, 0))
    return witt_of_form_real((g + g.T).scale(Fraction(1, 2)))


# -- the float index, and the payload of both modes --------------------------

# a float eigenvalue or singular value within this factor of its cut is
# undecidable at tol: every float index and float rank refuses it
FLOAT_MARGIN = 10.0


def _float_spectrum(space: SymplecticSpace, frames, tol: float):
    """The orthonormal Q factors of r >= 2 float Lagrangians, checked by
    ``check_lagrangian_frames``, and the eigenvalues of P + P^T paired from
    them, with their ``_float_cut`` (raw frames with entries near 1e6 lose
    the signature to rounding)."""
    import numpy as np
    frames = check_lagrangian_frames(space, frames, tol)
    if len(frames) < 2:
        raise ValueError("a Lagrangian tuple needs at least two members")
    qs = np.linalg.qr(frames)[0]
    pair = np.array(_pairing([c for q in qs for c in q.T.tolist()],
                             _support(space.omega.to_numpy().tolist()),
                             space.n), dtype=float)
    return qs, np.linalg.eigvalsh(pair + pair.T), _float_cut(pair + pair.T, tol)


def _decided(values: np.ndarray, cut: float) -> int:
    """How many ``values`` exceed ``cut`` less how many lie below -``cut``;
    refused when one lies within a factor ``FLOAT_MARGIN`` of the cut."""
    size = abs(values)
    if ((size > cut / FLOAT_MARGIN) & (size < cut * FLOAT_MARGIN)).any():
        raise ValueError("undecidable at tol: a float eigenvalue or singular "
                         f"value lies within a factor {FLOAT_MARGIN:g} of its cut")
    return int((values > cut).sum() - (values < -cut).sum())


def kashiwara_index_float(space: SymplecticSpace, frames,
                          tol: float = DEFAULT_TOL) -> int:
    """``kashiwara_index`` of r >= 2 float Lagrangians: pos - neg of the
    ``_float_spectrum`` of P + P^T, ``_decided`` at its ``_float_cut``, so
    refused for an eigenvalue within ``FLOAT_MARGIN`` of the cut."""
    _, w, cut = _float_spectrum(space, frames, tol)
    return _decided(w, cut)


def kashiwara_signature(space: SymplecticSpace, frames,
                        tol: float = DEFAULT_TOL) -> Signature:
    """The signature (p, 0, m) of q on T = ker(sum) / im(boundary): tau =
    p - m by ``kashiwara_index`` (members of ``space``) or, with no exact
    frame, the float index, and t = p + m = dim T.  Refused for a float
    eigenvalue or singular value within ``FLOAT_MARGIN`` of its cut, and
    unless |tau| <= t and tau = t mod 2, which exact input always meets.

    q is nondegenerate on T (Kashiwara & Schapira, Sheaves on Manifolds,
    App. A.3): take x, y in ker(sum), b_k = y_1 + ... + y_k (b_0 = b_r = 0).
    As omega(x_k, y_k) = 0, 2 q(x, y) = sum_{k<r} omega(x_k + x_k+1, b_k).
    The admissible b (b_k - b_k-1 in L_k) have, each L_k being Lagrangian,
    the annihilator {(l_k - l_k+1)_k : l_k in L_k}, so x is in the radical
    iff x_k + x_k+1 = l_k - l_k+1 for some such l.  Then m_k = l_k - x_k =
    l_k+1 + x_k+1 is in L_k cap L_k+1 (k = r closes by sum x = 0) and
    x = boundary(-m/2); conversely boundary(mu) takes l_k = -mu_k - mu_k-1.
    So the radical is im(boundary).

    dim T: with I = L_1 cap ... cap L_r, the sum map's image is I^omega and
    the boundary's kernel the diagonal copy of I, so t = (r - 2)n + 2 dim I
    - sum_k dim(L_k cap L_k+1), each dimension 2n - rank of the stacked
    frames: ``linalg.rank``, or the singular values above ``_float_cut`` of
    the stacked orthonormal Q factors, since the cut on a raw pair grows
    with the larger frame and can swallow a singular value of the smaller
    one."""
    r, n = len(frames), space.n
    stacks = [range(r)] + [(k, (k + 1) % r) for k in range(r)]
    if any(isinstance(f, LagrangianFrame) for f in frames):
        tup = LagrangianTuple.of(*frames)
        if tup.space != space:
            raise ValueError("tuple members live in a different space")
        tau = kashiwara_index(tup)
        ranks = [rank(reduce(Matrix.hstack, (tup.members[k].frame for k in ks)))
                 for ks in stacks]
    else:
        import numpy as np
        qs, w, cut = _float_spectrum(space, frames, tol)
        tau, ranks = _decided(w, cut), []
        for a in (np.hstack([qs[k] for k in ks]) for ks in stacks):
            ranks.append(_decided(np.linalg.svd(a, compute_uv=False),
                                  _float_cut(a, tol)))
    dims = [2 * n - k for k in ranks]   # dim I, then each dim(L_k cap L_k+1)
    t = (r - 2) * n + 2 * dims[0] - sum(dims[1:])
    if abs(tau) > t or (t - tau) % 2:
        raise ValueError(f"index {tau} does not fit dim T = {t}: the tuple is "
                         "within tol of a degenerate one")
    return Signature((t + tau) // 2, 0, (t - tau) // 2)


# -- Leray function and Arnold sign on lines (n = 1 only) --------------------


class LerayLift(Value):
    """A point of the universal cover of the line Grassmannian (n = 1).

    ``theta_tilde`` is the lifted angle in radians.  Exact variants: a
    Fraction means an exact multiple of pi; ``direction`` = (p, q, k)
    means angle-of-(p, q) + k pi with rational p, q (exact floors).
    """

    _fields = ("theta_tilde", "direction")
    _defaults = {"direction": None}

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


def _line_order(d1, d2) -> int:
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


def _cyclic_sign(c12: int, c23: int, c13: int) -> int:
    """Triple index of three lines from their pairwise angle comparisons:
    0 when two coincide, otherwise +1 for increasing cyclic order."""
    if 0 in (c12, c23, c13):
        return 0
    return -c12 * c23 * c13


def arnold_triple_lines(d1, d2, d3) -> int:
    """Triple index of three lines in the plane from rational directions;
    an oracle for ``kashiwara_index`` (the ``arnold_kashiwara`` selftest
    suite and criterion 04).

    Exact: 0 when two of the lines coincide, otherwise the sign of the
    cyclic order of the three line angles, +1 for increasing angles.
    """
    a, b, c = (_upper_direction(d) for d in (d1, d2, d3))
    return _cyclic_sign(_line_order(a, b), _line_order(b, c), _line_order(a, c))


def leray_m(l1: LerayLift, l2: LerayLift, tol: float = DEFAULT_TOL):
    """Leray cochain m = -2 floor((t1 - t2)/pi) - 1, or -2 (t1 - t2)/pi on pi Z."""
    if l1.direction is not None and l2.direction is not None:
        (p1, q1, k1), (p2, q2, k2) = l1.direction, l2.direction
        cmp = _line_order((p1, q1), (p2, q2))
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
