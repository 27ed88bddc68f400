"""Symplectic vector spaces, their subspaces, and the Lagrangian Grassmannian.

A space is its Gram matrix Omega: ``SymplecticSpace(omega)`` checks that
Omega is exact, skew and nondegenerate, and two spaces are equal iff their
Omegas are (``Matrix`` equality compares values, not ``tol``).  The
standard space on R^{2n} uses coordinates (x_1..x_n, y_1..y_n) with
Gram matrix [[0, I], [-I, 0]], i.e. omega(x_i-axis, y_j-axis) = delta_ij;
for n = 1 this is omega(u, v) = u_x v_y - u_y v_x.  ``standard(n)`` is one
shared instance per n, so its checks and caches are built once.  Custom
rational Grams are used as given; angle, graph and unitary
parametrizations and random Lagrangians need the standard Gram.

Angle-parametrized Lagrangians follow L(theta) = span{(cos theta, sin theta)}
at n = 1; in general the frame of (theta_1..theta_n) has column j equal to
cos(theta_j) e_j + sin(theta_j) e_{n+j}.  det_squared is normalized so that
det2(L(theta)) = e^{2 i theta}: it is the squared determinant of any unitary
matrix mapping R^n onto L.

Approx frame checks, unitary representatives and loop winding run in numpy,
imported inside those functions only, so exact code never loads it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from random import Random
from typing import TYPE_CHECKING, Sequence

from .linalg import (APPROX, DEFAULT_TOL, EXACT, Matrix, _rand_fraction,
                     inverse, kernel_basis, rank, spans_equal)

if TYPE_CHECKING:
    import numpy as np

ANGLE_SNAP = 1e-9


@lru_cache(maxsize=None)
def standard_gram(n: int) -> Matrix:
    zero, one = Matrix.zeros(n, n), Matrix.identity(n)
    return zero.hstack(one).vstack((-one).hstack(zero))


@dataclass(frozen=True)
class SymplecticSpace:
    """R^{2n} with a fixed rational skew nondegenerate Gram matrix."""

    omega: Matrix

    def __post_init__(self):
        omega = self.omega
        if omega.mode != EXACT:
            raise ValueError("custom Gram matrices must be exact rationals")
        if omega.rows != omega.cols or omega.rows % 2:
            raise ValueError("Gram matrix must be square of even size")
        if omega.rows == 0:
            raise ValueError("Gram matrix must be nonempty")
        if not (omega + omega.T).is_zero():
            raise ValueError("Gram matrix must be skew-symmetric")
        if rank(omega) != omega.rows:
            raise ValueError("Gram matrix is degenerate")

    @staticmethod
    @lru_cache(maxsize=None)
    def standard(n: int) -> "SymplecticSpace":
        """The space of ``standard_gram(n)``, one shared instance per n."""
        if n < 1:
            raise ValueError("n must be positive")
        return SymplecticSpace(standard_gram(n))

    def is_standard(self) -> bool:
        return self == SymplecticSpace.standard(self.n)

    @property
    def n(self) -> int:
        return self.omega.rows // 2

    @property
    def dim(self) -> int:
        return self.omega.rows

    def omega_as(self, mode: str) -> Matrix:
        # at the default tol: equal spaces make equal approx decisions
        return self.omega if mode == EXACT else self.omega.to_approx(DEFAULT_TOL)

    @cached_property
    def omega_inverse(self) -> Matrix:
        """Omega^{-1}, computed once per space."""
        return inverse(self.omega)

    @cached_property
    def omega_support(self) -> tuple:
        """``_support`` of the numerators of Omega, computed once per space."""
        return _support(self.omega.num)


def _support(rows: Sequence[Sequence]) -> tuple:
    """Nonzero (column, entry) pairs per row; the standard Omega has 2n."""
    return tuple(tuple((j, o) for j, o in enumerate(row) if o) for row in rows)


def _pairing(cols: Sequence[Sequence], support: Sequence, n: int,
             block: tuple[int, int] | None = None) -> list[list]:
    """The block-lower P whose block (i, j), i > j, is F_i^T Omega F_j
    (Cappell, Lee & Miller, CPAM 47 (1994)), for columns ``cols``, n per
    member, and the ``_support`` of Omega; with ``block`` = (i, j) only that
    block is filled.  For n = 1, P[x][y] = omega(c_x, c_y) for all y < x."""
    size = len(cols)
    # each image entry sums over its row's nonzero (j, omega_ij) only
    images = [[sum(o * col[j] for j, o in row) for row in support]
              for col in cols[:size - n]]
    pair = [[0] * size for _ in range(size)]
    for x in range(n, size):
        i = x // n
        for y in range(i * n):
            if block is None or block == (i, y // n):
                pair[x][y] = sum(map(mul, cols[x], images[y]))
    return pair


@dataclass(frozen=True)
class Subspace:
    space: SymplecticSpace
    frame: Matrix

    def __post_init__(self):
        if self.frame.rows != self.space.dim:
            raise ValueError("frame rows must match the ambient dimension")
        if self.frame.cols and rank(self.frame) != self.frame.cols:
            raise ValueError("frame columns are linearly dependent")

    @property
    def dim(self) -> int:
        return self.frame.cols


def symplectic_complement(sub: Subspace) -> Subspace:
    """The omega-orthogonal E^perp; dim = 2n - dim E for any E."""
    f = sub.frame
    mat = f.T @ sub.space.omega_as(f.mode)
    return Subspace(sub.space, kernel_basis(mat))


def classify_subspace(sub: Subspace) -> str:
    """One of isotropic / coisotropic / lagrangian / symplectic / generic.

    With k = dim E and r = rank(F^T Omega F), E meet E^perp has dimension
    k - r and E^perp dimension 2n - k, so E is isotropic iff r = 0,
    coisotropic iff r = 2(k - n) and symplectic iff r = k."""
    f, k, n = sub.frame, sub.dim, sub.space.n
    r = rank(f.T @ sub.space.omega_as(f.mode) @ f)
    if r == 0:
        return "lagrangian" if k == n else "isotropic"
    if r == 2 * (k - n):
        return "coisotropic"
    return "symplectic" if r == k else "generic"


def intersect_frames(f: Matrix, g: Matrix) -> Matrix:
    """Frame of (col span f) intersect (col span g)."""
    if f.cols == 0 or g.cols == 0:
        return Matrix.zeros(f.rows, 0, f.mode, f.tol)
    stacked = f.hstack(g.scale(-1))
    ker = kernel_basis(stacked)
    if ker.cols == 0:
        return Matrix.zeros(f.rows, 0, f.mode, f.tol)
    coeffs = ker.block(0, f.cols, 0, ker.cols)
    # full-column-rank inputs make these images automatically independent
    return f @ coeffs


@dataclass(frozen=True)
class LagrangianFrame(Subspace):
    """A Lagrangian subspace given by a 2n x n frame."""

    def __post_init__(self):
        super().__post_init__()
        if self.frame.cols != self.space.n:
            raise ValueError("a Lagrangian frame needs exactly n columns")
        if self.frame.mode == EXACT:
            # omega(c_x, c_y) for y < x; a skew Omega has omega(c, c) = 0
            if any(map(any, _pairing(self.frame.T.num,
                                     self.space.omega_support, 1))):
                raise ValueError("frame is not isotropic")
        else:
            check_lagrangian_frames(self.space, self.frame.to_numpy()[None],
                                    self.frame.tol)


def check_lagrangian_frames(space: SymplecticSpace, frames: np.ndarray,
                            tol: float) -> None:
    """The approx ``LagrangianFrame`` checks in one pass over a (k, 2n, n)
    stack: rank by singular values > tol * max(max|F|, 1), isotropy by
    max|F^T Omega F| <= tol * max(max|F|^2, 1).  The first failing frame
    is refused, its rank checked before its size and isotropy."""
    import numpy as np
    big = np.abs(frames).max(axis=(1, 2))
    sv = np.linalg.svd(frames, compute_uv=False)
    dependent = sv[:, -1] <= tol * np.maximum(big, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(big ** 2, 1.0)
        gram = np.swapaxes(frames, 1, 2) @ space.omega_as(APPROX).to_numpy() @ frames
        skew = np.abs(gram).max(axis=(1, 2)) > tol * scale
    too_large = np.isinf(scale)
    failed = dependent | too_large | skew
    if failed.any():
        k = int(np.argmax(failed))
        raise ValueError(
            "frame columns are linearly dependent" if dependent[k] else
            "frame entries are too large for approx mode" if too_large[k] else
            "frame is not isotropic within tolerance")


def lagrangian_from_angles(space: SymplecticSpace, thetas: Sequence[float],
                           tol: float = DEFAULT_TOL) -> LagrangianFrame:
    """Diagonal-angle Lagrangian; requires the standard space.

    Column j is cos(theta_j) e_j + sin(theta_j) e_{n+j} with theta in [0, pi).
    """
    if not space.is_standard():
        raise ValueError("angle parametrization needs the standard space")
    if len(thetas) != space.n:
        raise ValueError("need one angle per dimension")
    n = space.n
    cols = []
    for j, th in enumerate(thetas):
        th = float(th)
        if not (0.0 <= th < math.pi):
            raise ValueError("angles must lie in [0, pi)")
        col = [0.0] * (2 * n)
        col[j] = math.cos(th)
        col[n + j] = math.sin(th)
        cols.append(col)
    frame = Matrix.approx([[c[i] for c in cols] for i in range(2 * n)], tol)
    return LagrangianFrame(space, frame)


def line_lagrangian(space: SymplecticSpace, direction: Sequence) -> LagrangianFrame:
    """n = 1 line through a nonzero (typically rational) direction vector."""
    if space.n != 1:
        raise ValueError("line_lagrangian is for n = 1")
    mode = APPROX if any(isinstance(x, float) for x in direction) else EXACT
    frame = Matrix.from_rows([[x] for x in direction], mode)
    return LagrangianFrame(space, frame)


def graph_lagrangian(space: SymplecticSpace, phi: Matrix) -> LagrangianFrame:
    """Graph {(x, phi x)}; Lagrangian iff phi is symmetric."""
    n = space.n
    if phi.rows != n or phi.cols != n:
        raise ValueError("phi must be n x n")
    if not space.is_standard():
        raise ValueError("graph parametrization needs the standard space")
    ident = Matrix.identity(n) if phi.mode == EXACT else Matrix.identity(n, APPROX, phi.tol)
    return LagrangianFrame(space, ident.vstack(phi))


# -- unitary representatives and the determinant-squared map ---------------


def _polar_unitaries(space: SymplecticSpace, frames: np.ndarray,
                     tol) -> np.ndarray:
    """Unitary polar factors of X + iY for a (k, 2n, n) stack of frames
    (X over Y); ``tol`` is one tolerance or one per frame."""
    import numpy as np
    if not space.is_standard():
        raise ValueError("unitary representatives need the standard space")
    n = space.n
    u, s, vh = np.linalg.svd(frames[:, :n, :] + 1j * frames[:, n:, :])
    if (s[:, -1] <= tol * np.maximum(s[:, 0], 1.0)).any():
        raise ValueError("polar factor ill-conditioned beyond tolerance")
    return u @ vh


def _polar_unitary(lag: LagrangianFrame) -> np.ndarray:
    return _polar_unitaries(lag.space, lag.frame.to_numpy()[None],
                            lag.frame.tol)[0]


def det_squared(lag: LagrangianFrame) -> complex:
    """Coset-invariant squared determinant; e^{2 i theta} on L(theta)."""
    import numpy as np
    zu = _polar_unitary(lag)
    d2 = np.linalg.det(zu) ** 2
    return complex(d2 / abs(d2))


def eigen_angles(lag: LagrangianFrame) -> tuple[float, ...]:
    """Angles theta_j in [0, pi) of L relative to the real axes (sorted)."""
    import numpy as np
    zu = _polar_unitary(lag)
    w = np.linalg.eigvals(zu @ zu.T)
    out = []
    for lam in w:
        a = cmath.phase(complex(lam))  # (-pi, pi]
        if a < 0:
            a += 2 * math.pi
        th = a / 2.0
        if th < ANGLE_SNAP or th > math.pi - ANGLE_SNAP:
            th = 0.0
        out.append(th)
    return tuple(sorted(out))


def loop_degree(path: Sequence[LagrangianFrame]) -> int:
    """Winding number of det-squared along a closed Lagrangian loop whose
    first and last members span the same subspace (``frames_loop_degree``
    on the stacked frames)."""
    if len(path) < 3:
        raise ValueError("a loop needs at least three samples")
    first, last = path[0].frame, path[-1].frame
    if not spans_equal(first.to_approx(), last.to_approx()):
        raise ValueError("path is not closed (first and last spans differ)")
    space = path[0].space
    if any(lag.space != space for lag in path):
        raise ValueError("loop members must share one space")
    import numpy as np
    return frames_loop_degree(space,
                              np.stack([lag.frame.to_numpy() for lag in path]),
                              np.array([lag.frame.tol for lag in path]))


def frames_loop_degree(space: SymplecticSpace, frames: np.ndarray, tol) -> int:
    """Winding number of det-squared along a (k, 2n, n) stack of Lagrangian
    frames whose last member closes the loop.  Each det2 argument jump must
    stay below pi/2 (sampling guard) and the jumps must close to whole turns.
    """
    import numpy as np
    d2 = np.linalg.det(_polar_unitaries(space, frames, tol)) ** 2
    d2 /= abs(d2)
    steps = np.angle(d2[1:] / d2[:-1])
    if (np.abs(steps) >= math.pi / 2).any():
        raise ValueError("undersampled loop: det2 jump of pi/2 or more")
    turns = float(steps.sum()) / (2 * math.pi)
    deg = round(turns)
    if abs(turns - deg) > 1e-6:
        raise ValueError("loop winding failed to close to an integer")
    return int(deg)


# -- seeded random generators ----------------------------------------------


def random_symplectic(space: SymplecticSpace, rng: Random,
                      transvections: int = 6) -> Matrix:
    """Product of random symplectic transvections v -> v + c omega(v, u) u.

    Each factor is I + c u (Omega u)^T, so the product is updated by the
    rank-one step g <- g + c (g u)(Omega u)^T.
    """
    g = Matrix.identity(space.dim)
    made = 0
    while made < transvections:
        u = [_rand_fraction(rng) for _ in range(space.dim)]
        if all(x == 0 for x in u):
            continue
        c = _rand_fraction(rng)
        if c == 0:
            continue
        col = Matrix.exact([[x] for x in u])
        g = g + (g @ col) @ (space.omega @ col).T.scale(c)
        made += 1
    return g


def random_lagrangian(space: SymplecticSpace, rng: Random,
                      twists: int = 3) -> LagrangianFrame:
    """Seeded random Lagrangian; twisting hits the non-graph strata too."""
    n = space.n
    if not space.is_standard():
        raise ValueError("random_lagrangian needs the standard space")
    upper = [[_rand_fraction(rng) if j >= i else 0 for j in range(n)]
             for i in range(n)]
    sym = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    frame = Matrix.identity(n).vstack(Matrix.exact(sym))
    g = random_symplectic(space, rng, transvections=twists)
    return LagrangianFrame(space, g @ frame)
