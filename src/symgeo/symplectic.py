"""Symplectic vector spaces, their subspaces, and the Lagrangian Grassmannian.

A space is its Gram matrix Omega: ``SymplecticSpace(omega)`` checks that
Omega is an exact ``Matrix``, skew and nondegenerate, and two spaces are
equal iff their Omegas are.  The standard space on R^{2n} uses coordinates
(x_1..x_n, y_1..y_n) with Gram matrix [[0, I], [-I, 0]], i.e.
omega(x_i-axis, y_j-axis) = delta_ij;
for n = 1 this is omega(u, v) = u_x v_y - u_y v_x.  ``standard(n)`` is one
shared instance per n, so its checks and caches are built once.  Custom
rational Grams are used as given; angle, graph and unitary
parametrizations and random Lagrangians need the standard Gram.

Angle-parametrized Lagrangians follow L(theta) = span{(cos theta, sin theta)}
at n = 1; in general the frame of (theta_1..theta_n) has column j equal to
cos(theta_j) e_j + sin(theta_j) e_{n+j}.  det_squared is normalized so that
det2(L(theta)) = e^{2 i theta}: it is the squared determinant of any unitary
matrix mapping R^n onto L.

Float Lagrangians are (2n, n) numpy arrays, passed as lists or (k, 2n, n)
stacks to the float routes (frame checks, angle frames, unitary
representatives and loop winding), which take one ``tol`` per call and
import numpy inside the function, so exact code never loads it.  Every
float frame refusal is ``check_lagrangian_frames``'s, every float rank cut
``_float_cut``, and ``loop_degree`` is the one winding route; ``_pairing``
pairs exact integer columns only.  The winding reads det2 of a frame
(X over Y) as the square of det Z / |det Z| for Z = X + iY, the
determinant of Z's unitary polar factor, taken from the sign of
``slogdet``; the guard against ill-conditioned Z compares its singular
values.  Every float singular value (the frame check's, the guard's and
the loop closure's, and ``scan.corank_profile``'s) comes from
``_singular_values``: closed form on the array for matrices with at most
two rows or columns, as the thin 2n x n frames of n <= 2 and their n x n
Z are, and LAPACK's SVD without U or V past that.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from operator import mul
from random import Random
from typing import TYPE_CHECKING, Sequence

from .linalg import (DEFAULT_TOL, Matrix, Value, _rand_fraction, _trusted,
                     inverse, kernel_basis, rank)

if TYPE_CHECKING:
    import numpy as np


@lru_cache(maxsize=None)
def standard_gram(n: int) -> Matrix:
    """Omega = [[0, I], [-I, 0]] of the standard 2n-space; library API."""
    zero, one = Matrix.zeros(n, n), Matrix.identity(n)
    return zero.hstack(one).vstack((-one).hstack(zero))


class SymplecticSpace(Value):
    """R^{2n} with a fixed rational skew nondegenerate Gram matrix."""

    _fields = ("omega",)

    def __post_init__(self):
        omega = self.omega
        if not isinstance(omega, Matrix):
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
        # J^T = -J and J^2 = -I: J is skew and nondegenerate, so no check runs
        return _trusted(SymplecticSpace, standard_gram(n))

    def is_standard(self) -> bool:
        return self == SymplecticSpace.standard(self.n)

    @property
    def n(self) -> int:
        return self.omega.rows // 2

    @property
    def dim(self) -> int:
        return self.omega.rows

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


class Subspace(Value):
    """The span of independent frame columns in ``space``; library API."""

    _fields = ("space", "frame")

    def __post_init__(self):
        if self.frame.rows != self.space.dim:
            raise ValueError("frame rows must match the ambient dimension")
        if self.frame.cols and rank(self.frame) != self.frame.cols:
            raise ValueError("frame columns are linearly dependent")

    @property
    def dim(self) -> int:
        return self.frame.cols


def classify_subspace(sub: Subspace) -> str:
    """Library API: one of isotropic / coisotropic / lagrangian /
    symplectic / generic.

    With k = dim E and r = rank(F^T Omega F), E meet E^perp has dimension
    k - r and E^perp dimension 2n - k, so E is isotropic iff r = 0,
    coisotropic iff r = 2(k - n) and symplectic iff r = k."""
    f, k, n = sub.frame, sub.dim, sub.space.n
    r = rank(f.T @ sub.space.omega @ f)
    if r == 0:
        return "lagrangian" if k == n else "isotropic"
    if r == 2 * (k - n):
        return "coisotropic"
    return "symplectic" if r == k else "generic"


def intersect_frames(f: Matrix, g: Matrix) -> Matrix:
    """Frame of (col span f) intersect (col span g)."""
    if f.cols == 0 or g.cols == 0:
        return Matrix.zeros(f.rows, 0)
    stacked = f.hstack(g.scale(-1))
    ker = kernel_basis(stacked)
    if ker.cols == 0:
        return Matrix.zeros(f.rows, 0)
    coeffs = ker.block(0, f.cols, 0, ker.cols)
    # full-column-rank inputs make these images automatically independent
    return f @ coeffs


def _primitive_column(col: Sequence[int]) -> list[int]:
    content = math.gcd(*col)
    return [x // content for x in col]


class LagrangianFrame(Subspace):
    """A Lagrangian subspace given by an exact 2n x n frame."""

    def __post_init__(self):
        super().__post_init__()
        if self.frame.cols != self.space.n:
            raise ValueError("a Lagrangian frame needs exactly n columns")
        # omega(c_x, c_y) for y < x; a skew Omega has omega(c, c) = 0
        cols, images = self._integer_columns
        if any(sum(map(mul, c, i)) for x, c in enumerate(cols) for i in images[:x]):
            raise ValueError("frame is not isotropic")

    @cached_property
    def _integer_columns(self) -> tuple[list, list]:
        """The primitive integer columns c and their images Omega.num c, kept
        outside the fields, so ``==``, ``hash``, copies and pickles skip them."""
        cols = [_primitive_column(c) for c in zip(*self.frame.num)]
        return cols, [[sum(o * c[j] for j, o in r) for r in self.space.omega_support]
                      for c in cols]


# -- float Lagrangians: (2n, n) arrays -------------------------------------


def _singular_values(stack) -> np.ndarray:
    """The descending singular values of a real or complex (..., r, c)
    stack, shaped as ``np.linalg.svd(stack, compute_uv=False)`` gives them.

    A transpose puts the short side last (A and A^T have the same singular
    values).  With one or two columns left it is closed form on the array,
    else (none, or more than two) that SVD.  Each matrix is scaled by 2^-e,
    e from ``frexp`` of its max |a| (exact, and the squares of its largest
    entries stay in range), and scaled back with ``ldexp``, which cannot
    overflow on the way as a factor 2^e can.  One column: sigma = ||p||.
    Two columns: column-pivoted Gram-Schmidt, p the longer column, gives
    R = [[r11, r12], [0, r22]] with r11 = ||p||, |r12| = |p^H q| / ||p||
    and r22 = ||q - (p^H q / ||p||^2) p||; then sigma_max +- sigma_min = sqrt((r11 +- r22)^2 + |r12|^2) and
    sigma_min = r11 r22 / sigma_max.  Both roots sum squares, so the
    difference keeps its digits where sigma_max and sigma_min are close
    (S - 2 D with S = ||F||_F^2 and D = r11 r22 would keep only sqrt(eps)
    of it).  The error is a few eps * sigma_max, as LAPACK's is."""
    import numpy as np
    a = np.asarray(stack)
    if a.shape[-1] > a.shape[-2]:
        a = np.swapaxes(a, -1, -2)
    cols = a.shape[-1]
    if cols not in (1, 2):
        return np.linalg.svd(a, compute_uv=False)
    # 2^-e with |e| <= 1021 is a normal float, so the scaling is exact
    e = np.clip(np.frexp(np.abs(a).max(axis=(-2, -1), initial=0.0))[1], -1021, 1021)
    a = a * np.ldexp(1.0, -e)[..., None, None]
    p = a[..., 0]
    pp = np.vecdot(p, p).real
    if cols == 1:
        values = np.sqrt(pp)[..., None]
    else:
        q = a[..., 1]
        qq = np.vecdot(q, q).real
        swap = (qq > pp)[..., None]
        p, q = np.where(swap, q, p), np.where(swap, p, q)
        pp = np.maximum(pp, qq)
        r11 = np.sqrt(pp)
        live = pp > 0.0   # p = 0 only for a zero matrix
        pq = np.vecdot(p, q)
        coef = np.divide(pq, pp, out=np.zeros_like(pq), where=live)
        res = q - coef[..., None] * p
        r22 = np.sqrt(np.vecdot(res, res).real)
        r12 = np.divide(np.abs(pq), r11, out=np.zeros_like(r11), where=live)
        hi = (np.hypot(r11 + r22, r12) + np.hypot(r11 - r22, r12)) / 2
        lo = np.divide(r11 * r22, hi, out=np.zeros_like(hi), where=live)
        values = np.stack([hi, lo], axis=-1)
    with np.errstate(over="ignore"):
        return np.ldexp(values, e[..., None])


def _float_cut(a: np.ndarray, tol: float, axis=None):
    """The zero cut of every float rank, kernel and signature decision:
    tol * max(max |a|, 1), the max taken over ``axis`` (all of ``a``)."""
    import numpy as np
    return tol * np.maximum(np.abs(a).max(axis=axis, initial=0.0), 1.0)


def float_lagrangian(space: SymplecticSpace, frame,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
    """``check_lagrangian_frames`` of one frame, returned as a (2n, n) array."""
    return check_lagrangian_frames(space, [frame], tol)[0]


def check_lagrangian_frames(space: SymplecticSpace, frames,
                            tol: float = DEFAULT_TOL) -> np.ndarray:
    """Every float Lagrangian refusal of a list or (k, 2n, c) stack of
    frames, returned as the stack.  The first failing frame is refused in
    ``LagrangianFrame``'s order: rows, dependent columns (fewer than c
    singular values above ``_float_cut``), n columns, entries too large,
    then isotropy by max|F^T Omega F| <= tol * max(max|F|^2, 1)."""
    import numpy as np
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 3 or frames.shape[1] != space.dim:
        raise ValueError("frame rows must match the ambient dimension")
    cols = frames.shape[2]
    sv = _singular_values(frames)
    dependent = (sv > _float_cut(frames, tol, (1, 2))[:, None]).sum(axis=1) != cols
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(np.abs(frames).max(axis=(1, 2), initial=0.0) ** 2, 1.0)
        gram = np.swapaxes(frames, 1, 2) @ space.omega.to_numpy() @ frames
        skew = np.abs(gram).max(axis=(1, 2), initial=0.0) > tol * scale
    too_large = np.isinf(scale)
    failed = dependent | (cols != space.n) | too_large | skew
    if failed.any():
        k = int(np.argmax(failed))
        raise ValueError(
            "frame columns are linearly dependent" if dependent[k] else
            "a Lagrangian frame needs exactly n columns" if cols != space.n else
            "frame entries are too large for approx mode" if too_large[k] else
            "frame is not isotropic within tolerance")
    return frames


def lagrangian_from_angles(space: SymplecticSpace, thetas: Sequence[float],
                           tol: float = DEFAULT_TOL) -> np.ndarray:
    """Diagonal-angle float Lagrangian, checked by ``float_lagrangian``;
    requires the standard space.

    Column j is cos(theta_j) e_j + sin(theta_j) e_{n+j} with theta in [0, pi).
    """
    if not space.is_standard():
        raise ValueError("angle parametrization needs the standard space")
    if len(thetas) != space.n:
        raise ValueError("need one angle per dimension")
    n = space.n
    rows = [[0.0] * n for _ in range(2 * n)]
    for j, th in enumerate(map(float, thetas)):
        if not (0.0 <= th < math.pi):
            raise ValueError("angles must lie in [0, pi)")
        rows[j][j], rows[n + j][j] = math.cos(th), math.sin(th)
    return float_lagrangian(space, rows, tol)


def line_lagrangian(space: SymplecticSpace, direction: Sequence) -> LagrangianFrame:
    """n = 1 line through a nonzero rational direction vector."""
    if space.n != 1:
        raise ValueError("line_lagrangian is for n = 1")
    return LagrangianFrame(space, Matrix.exact([[x] for x in direction]))


def graph_lagrangian(space: SymplecticSpace, phi: Matrix) -> LagrangianFrame:
    """Graph {(x, phi x)}; Lagrangian iff phi is symmetric."""
    n = space.n
    if phi.rows != n or phi.cols != n:
        raise ValueError("phi must be n x n")
    if not space.is_standard():
        raise ValueError("graph parametrization needs the standard space")
    return LagrangianFrame(space, Matrix.identity(n).vstack(phi))


# -- unitary representatives and the determinant-squared map ---------------


def _unit_determinants(space: SymplecticSpace, frames: np.ndarray,
                       tol: float) -> np.ndarray:
    """det Z / |det Z| for Z = X + iY of each frame of a (k, 2n, n) stack (X
    over Y): the determinant of Z's unitary polar factor U V^H, read from
    the sign of ``slogdet`` (det Z itself over- or underflows a float for
    entries near 1e+-150 at n = 3).  Z is refused when its smallest
    ``_singular_values`` entry is at most tol * max(largest, 1)."""
    import numpy as np
    if not space.is_standard():
        raise ValueError("unitary representatives need the standard space")
    n = space.n
    z = frames[:, :n, :] + 1j * frames[:, n:, :]
    s = _singular_values(z)
    if (s[:, -1] <= tol * np.maximum(s[:, 0], 1.0)).any():
        raise ValueError("polar factor ill-conditioned beyond tolerance")
    return np.linalg.slogdet(z)[0]


def det_squared(space: SymplecticSpace, frame,
                tol: float = DEFAULT_TOL) -> complex:
    """Coset-invariant squared determinant of a float (2n, n) Lagrangian;
    e^{2 i theta} on L(theta); library API."""
    frames = check_lagrangian_frames(space, [frame], tol)
    d2 = _unit_determinants(space, frames, tol)[0] ** 2
    return complex(d2 / abs(d2))


def loop_degree(space: SymplecticSpace, frames, tol: float = DEFAULT_TOL) -> int:
    """Winding number of det-squared along a closed loop of float
    Lagrangians, checked by ``check_lagrangian_frames``.  The first and last
    members must span the same subspace ([first | last] has n singular
    values above ``_float_cut``); the det2 argument jumps run over the closed
    chain, the step from last back to first included, so end members that
    differ within tol still close.  Each jump must stay below pi/2 (sampling
    guard) and the jumps must sum to whole turns."""
    import numpy as np
    frames = check_lagrangian_frames(space, frames, tol)
    if len(frames) < 3:
        raise ValueError("a loop needs at least three samples")
    ends = np.hstack([frames[0], frames[-1]])
    sv = _singular_values(ends)
    if (sv > _float_cut(ends, tol)).sum() != space.n:
        raise ValueError("path is not closed (first and last spans differ)")
    d2 = _unit_determinants(space, frames, tol) ** 2
    d2 /= abs(d2)
    steps = np.angle(np.roll(d2, -1) / d2)
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
