"""Dimension audits for the first-order systems cutting out Lagrangian
and Legendrian graphs.

Lagrangian side: a graph y = f(x) in a 2n-dimensional space carrying a
two-form with blocks omega (dx-dx), obar (dx-dy), ohat (dy-dy) is
Lagrangian iff its Jacobian Y satisfies the skew n x n condition

    F(x, Y) = omega(x) + obar(x) Y - (obar(x) Y)^T + Y^T ohat(x) Y = 0.

The audit evaluates closed dimension formulas for the solution locus,
its first prolongation, and the prolonged fiber, then confirms them
with exact Jacobian ranks at a random rational point constructed to lie
on the prolonged locus.  Coefficient blocks are affine in x; constant
blocks would hide the base compatibility conditions that appear for
n >= 3.

Legendrian side: graphs (y(x), z(x)) with z_beta = y_beta; the audit
builds the system and prolonged-system matrices explicitly and ranks
them.  The prolonged equations force the hidden symmetry of the first
derivatives of y, so the prolongation drops below the naive fiber
count by n(n-1)/2; both conventions are reported.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from random import Random

from ..linalg import Matrix, _rand_fraction, kernel_basis, rank
from .symtensor import SIZE_GUARD

_MAX_ATTEMPTS = 25


def _rand_block(rng: Random, n: int) -> Matrix:
    return Matrix.exact([[_rand_fraction(rng) for _ in range(n)]
                         for _ in range(n)])


def _rand_skew(rng: Random, n: int) -> Matrix:
    upper = Matrix.exact([[_rand_fraction(rng) if s > r else 0 for s in range(n)]
                          for r in range(n)])
    return upper - upper.T


def _sym_pairs(n: int) -> list[tuple[int, int]]:
    return [(b, g) for b in range(n) for g in range(b, n)]


def _upper(m: Matrix) -> list[Fraction]:
    """Entries strictly above the diagonal, row by row."""
    return [x for r in range(m.rows) for x in m.row(r)[r + 1:]]


# -- Lagrangian graphs --------------------------------------------------------


class _LagrangianInstance:
    """One random affine-coefficient instance with a point on the
    prolonged locus baked in."""

    def __init__(self, n: int, rng: Random):
        self.n = n
        self.a0 = _rand_skew(rng, n)
        self.a_lin = [_rand_skew(rng, n) for _ in range(n)]
        self.b0 = _rand_block(rng, n)
        self.b_lin = [_rand_block(rng, n) for _ in range(n)]
        self.c0 = _rand_skew(rng, n)
        self.c_lin = [_rand_skew(rng, n) for _ in range(n)]
        self.x0 = [_rand_fraction(rng) for _ in range(n)]
        self.y0 = _rand_block(rng, n)
        self.t0 = {(a, p): _rand_fraction(rng)
                   for a in range(n) for p in _sym_pairs(n)}
        # Absorb the residuals into the coefficient blocks so the point
        # satisfies the prolonged system exactly.  The affine parts are
        # corrected first: the constant block does not enter the total
        # x-derivatives, so fixing it afterwards cannot undo them.
        df = self._total_derivatives(self.x0, self.y0, self.t0)
        for k in range(n):
            self.a_lin[k] = self.a_lin[k] - df[k]
        self.a0 = self.a0 - self._f(self.x0, self.y0)

    @staticmethod
    def _at(const: Matrix, lin: list[Matrix], x) -> Matrix:
        for xl, m in zip(x, lin):
            const = const + m.scale(xl)
        return const

    def omega(self, x):
        return self._at(self.a0, self.a_lin, x)

    def obar(self, x):
        return self._at(self.b0, self.b_lin, x)

    def ohat(self, x):
        return self._at(self.c0, self.c_lin, x)

    @staticmethod
    def _f_from(om: Matrix, ob: Matrix, oh: Matrix, y: Matrix) -> Matrix:
        by = ob @ y
        return om + by - by.T + y.T @ oh @ y

    def _f(self, x, y: Matrix) -> Matrix:
        return self._f_from(self.omega(x), self.obar(x), self.ohat(x), y)

    def _total_derivatives(self, x, y: Matrix, t) -> list[Matrix]:
        """D_k F as skew matrices: coefficient x-derivative plus the
        linearization H Delta_k - (H Delta_k)^T, H = obar + Y^T ohat."""
        n = self.n
        h = self.h_matrix(x, y)
        out = []
        for k in range(n):
            base = self._f_from(self.a_lin[k], self.b_lin[k], self.c_lin[k], y)
            delta = Matrix.exact([[t[(a, (min(j, k), max(j, k)))]
                                   for j in range(n)] for a in range(n)])
            hd = h @ delta
            out.append(base + hd - hd.T)
        return out

    def assembled_gram(self, x) -> Matrix:
        ob = self.obar(x)
        return self.omega(x).hstack(ob).vstack((-ob.T).hstack(self.ohat(x)))

    def h_matrix(self, x, y: Matrix) -> Matrix:
        return self.obar(x) + y.T @ self.ohat(x)

    # flattened jet coordinates: x, y, first derivatives, second derivatives
    def point(self) -> list[Fraction]:
        n = self.n
        v = list(self.x0) + [0] * n
        v += [x for a in range(n) for x in self.y0.row(a)]
        v += [self.t0[(a, p)] for a in range(n) for p in _sym_pairs(n)]
        return v

    def equations(self, v: list[Fraction]) -> list[Fraction]:
        n = self.n
        x = v[:n]
        y = Matrix.exact([v[2 * n + a * n:2 * n + (a + 1) * n]
                          for a in range(n)])
        base = 2 * n + n * n
        pairs = _sym_pairs(n)
        t = {(a, p): v[base + a * len(pairs) + i]
             for a in range(n) for i, p in enumerate(pairs)}
        out = _upper(self._f(x, y))
        for dk in self._total_derivatives(x, y, t):
            out.extend(_upper(dk))
        return out


def _jacobian(eqs, point: list[Fraction]) -> Matrix:
    """Exact Jacobian by central differences with step 1.

    Every equation has degree at most two in each single coordinate, so
    (f(v + e) - f(v - e)) / 2 recovers the partial derivative exactly.
    """
    cols = []
    for c in range(len(point)):
        hi, lo = list(point), list(point)
        hi[c] += 1
        lo[c] -= 1
        cols.append([u - d for u, d in zip(eqs(hi), eqs(lo))])
    return Matrix.exact(cols).T.scale(Fraction(1, 2))


def lagrangian_pde_dims(n: int, seed: int = 0) -> dict:
    """Closed dimension formulas for the Lagrangian graph system with an
    exact rank verification at a random on-locus rational point.

    ``verified`` can hold only for n <= 7: the order-1 rows have no
    second-order entries, so the prolonged rank is at most the symbol rank
    plus ``dim_jet1``, which reaches eq1 + eq2 only while C(n, 2) + C(n, 3)
    <= n^2 + 2n.  At n = 8 that bound is 168 + 80 = 248 < 252 (rank 240),
    and the gap grows with n, so n >= 8 is refused before any rank."""
    if n < 1:
        raise ValueError("n must be positive")
    if n >= 8:
        raise ValueError("n must be at most 7: from n = 8 the prolonged rank "
                         "cannot reach equations_order1 + equations_order2")
    eq1 = n * (n - 1) // 2
    eq2 = n * eq1
    dim_jet1 = 2 * n + n * n
    t_vars = n * (n * (n + 1) // 2)
    dim_jet2 = dim_jet1 + t_vars
    dim_system = dim_jet1 - eq1
    dim_fiber = n * n
    dim_prolongation = dim_system + dim_fiber
    fiber_pointwise = comb(n + 2, 3)
    base_compat = comb(n, 3)

    rng = Random(seed)
    inst = None
    for _ in range(_MAX_ATTEMPTS):
        cand = _LagrangianInstance(n, rng)
        gram_ok = rank(cand.assembled_gram(cand.x0)) == 2 * n
        h_ok = rank(cand.h_matrix(cand.x0, cand.y0)) == n
        if gram_ok and h_ok:
            inst = cand
            break
    if inst is None:
        raise RuntimeError("no nondegenerate instance found")

    point = inst.point()
    residuals = inst.equations(point)
    if any(r != 0 for r in residuals):
        raise RuntimeError("constructed point left the locus")
    jac = _jacobian(inst.equations, point)
    rank_system = rank(jac.block(0, eq1, 0, jac.cols)) if eq1 else 0
    rank_total = rank(jac) if eq1 else 0
    rank_symbol = (rank(jac.block(eq1, eq1 + eq2, dim_jet1, jac.cols))
                   if eq2 else 0)

    verified = (
        rank_system == eq1
        and rank_total == eq1 + eq2
        and rank_symbol == t_vars - fiber_pointwise
        and fiber_pointwise - base_compat == dim_fiber
        and dim_jet2 - rank_total == dim_prolongation
    )
    return {
        "n": n,
        "seed": seed,
        "dim_jet1": dim_jet1,
        "dim_jet2": dim_jet2,
        "equations_order1": eq1,
        "equations_order2": eq2,
        "dim_system": dim_system,
        "dim_prolongation": dim_prolongation,
        "dim_prolongation_fiber": dim_fiber,
        "fiber_kernel_pointwise": fiber_pointwise,
        "base_compatibility_count": base_compat,
        "rank_system": rank_system,
        "rank_prolonged_total": rank_total,
        "rank_prolonged_symbol": rank_symbol,
        "sum_identity_ok": dim_system + dim_fiber == dim_prolongation,
        "verified": verified,
    }


# -- Legendrian graphs --------------------------------------------------------


def _legendrian_matrices(n: int):
    """System and prolonged-system matrices for z_beta = y_beta.

    First-order variables are ordered (y derivatives Y[a][al], z
    derivatives zeta[b]); jet variables ahead of them are (x, y, z).
    """
    nv0 = 2 * n + 1
    nv1 = n * n + n
    pairs = _sym_pairs(n)
    nv2 = (n + 1) * len(pairs)
    total = nv0 + nv1 + nv2

    sys_rows = []
    for b in range(n):
        row = [0] * total
        row[n + b] = -1                        # -y_b
        row[nv0 + n * n + b] = 1               # +zeta_b
        sys_rows.append(row)

    prol_rows = []
    for b in range(n):
        for g in range(n):
            row = [0] * total
            row[nv0 + b * n + g] = -1                              # -Y[b][g]
            p = pairs.index((min(b, g), max(b, g)))
            row[nv0 + nv1 + n * len(pairs) + p] = 1                # +z_{bg}
            prol_rows.append(row)

    return Matrix.exact(sys_rows), Matrix.exact(prol_rows), (nv0, nv1, nv2)


def _symbol_kernel(n: int) -> Matrix:
    """Basis of the first-order symbol: coefficient vectors over the
    first-derivative slots annihilated by the leading part of the system."""
    return kernel_basis(Matrix.zeros(n, n * n).hstack(Matrix.identity(n)))


def _cascade_dim(n: int, g1: Matrix, flag: list[list[Fraction]]) -> int:
    """dim of the symbol subspace annihilating the first i flag vectors.

    A symbol vector is an (n + 1) x n block matrix (the Y rows, then zeta);
    row o of ``apply`` pairs block row o with one flag vector v."""
    if not flag:
        return g1.cols
    apply = Matrix.exact([[v[k - o * n] if o * n <= k < o * n + n else 0
                           for k in range(n * n + n)]
                          for v in flag for o in range(n + 1)])
    return g1.cols - rank(apply @ g1)


def legendrian_pde_dims(n: int, seed: int = 0) -> dict:
    """Closed dimension formulas for the Legendrian graph system with
    exact rank verification and the symbol involutivity cascade; dense
    matrices with dim J^2 > ``SIZE_GUARD`` columns (n >= 21) are refused."""
    if n < 1:
        raise ValueError("n must be positive")
    dim_jet2 = (2 * n + 1) + (n * n + n) + (n + 1) * (n * (n + 1) // 2)
    if dim_jet2 > SIZE_GUARD:
        raise ValueError("model size exceeds the desk-scale guard")
    dim_system = (n + 1) ** 2
    dim_prolongation = (n + 1) * (n * n + 2 * n + 2) // 2
    hidden = n * (n - 1) // 2
    dim_symbol = n * n
    dim_symbol_prol = n * n * (n + 1) // 2

    sys_m, prol_m, (nv0, nv1, _) = _legendrian_matrices(n)
    dim_jet1 = nv0 + nv1
    rank_system = rank(sys_m)
    rank_prol = rank(prol_m)
    rank_prol_symbol = rank(prol_m.block(0, prol_m.rows, dim_jet1, prol_m.cols))

    g1 = _symbol_kernel(n)
    rng = Random(seed)
    flag = [[_rand_fraction(rng) for _ in range(n)] for _ in range(n)]
    while rank(Matrix.exact(flag)) != n:
        flag = [[_rand_fraction(rng) for _ in range(n)] for _ in range(n)]
    table = {}
    cascade_ok = True
    for i in range(n):
        got = _cascade_dim(n, g1, flag[:i])
        table[i] = got
        cascade_ok = cascade_ok and got == n * n - i * n

    strict = dim_jet2 - rank_system - rank_prol
    verified = (
        rank_system == n
        and rank_prol == n * n
        and rank_prol_symbol == n * (n + 1) // 2
        and g1.cols == dim_symbol
        and cascade_ok
        and sum(table.values()) == dim_symbol_prol
        and dim_jet1 - rank_system == dim_system
        and dim_jet2 - rank_system - rank_prol_symbol == dim_prolongation
        and strict == dim_prolongation - hidden
    )
    return {
        "n": n,
        "seed": seed,
        "dim_jet1": dim_jet1,
        "dim_jet2": dim_jet2,
        "dim_system": dim_system,
        "dim_prolongation": dim_prolongation,
        "dim_prolongation_strict": strict,
        "dim_symbol": dim_symbol,
        "dim_symbol_prolongation": dim_symbol_prol,
        "hidden_order1_constraints": hidden,
        "involutivity_table": table,
        "cascade_sum_ok": sum(table.values()) == dim_symbol_prol,
        "rank_system": rank_system,
        "rank_prolonged_total": rank_prol,
        "rank_prolonged_symbol": rank_prol_symbol,
        "sum_identity_ok": dim_system + dim_symbol_prol == dim_prolongation,
        "verified": verified,
    }
