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

_MAX_ATTEMPTS = 25


def _rand_block(rng: Random, n: int) -> list[list[Fraction]]:
    return [[_rand_fraction(rng) for _ in range(n)] for _ in range(n)]


def _rand_skew(rng: Random, n: int) -> list[list[Fraction]]:
    out = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        for s in range(r + 1, n):
            v = _rand_fraction(rng)
            out[r][s] = v
            out[s][r] = -v
    return out


def _mat(rows) -> Matrix:
    return Matrix.exact(rows)


def _sym_pairs(n: int) -> list[tuple[int, int]]:
    return [(b, g) for b in range(n) for g in range(b, n)]


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
            self.a_lin[k] = _sub(self.a_lin[k], df[k])
        self.a0 = _sub(self.a0, self._f(self.x0, self.y0))

    def _at(self, const, lin, x):
        n = self.n
        return [[const[r][s] + sum(x[l] * lin[l][r][s] for l in range(n))
                 for s in range(n)] for r in range(n)]

    def omega(self, x):
        return self._at(self.a0, self.a_lin, x)

    def obar(self, x):
        return self._at(self.b0, self.b_lin, x)

    def ohat(self, x):
        return self._at(self.c0, self.c_lin, x)

    def _f_from(self, om, ob, oh, y):
        n = self.n
        by = _mul(ob, y)
        yhy = _mul(_transpose(y), _mul(oh, y))
        return [[om[r][s] + by[r][s] - by[s][r] + yhy[r][s]
                 for s in range(n)] for r in range(n)]

    def _f(self, x, y):
        return self._f_from(self.omega(x), self.obar(x), self.ohat(x), y)

    def _total_derivatives(self, x, y, t):
        """D_k F as skew matrices: coefficient x-derivative plus the
        linearization H Delta_k - (H Delta_k)^T, H = obar + Y^T ohat."""
        n = self.n
        h = _add(self.obar(x), _mul(_transpose(y), self.ohat(x)))
        out = []
        for k in range(n):
            base = self._f_from(self.a_lin[k], self.b_lin[k], self.c_lin[k], y)
            delta = [[t[(a, (min(j, k), max(j, k)))] for j in range(n)]
                     for a in range(n)]
            hd = _mul(h, delta)
            out.append([[base[r][s] + hd[r][s] - hd[s][r] for s in range(n)]
                        for r in range(n)])
        return out

    def assembled_gram(self, x) -> Matrix:
        om, ob, oh = self.omega(x), self.obar(x), self.ohat(x)
        top = [om[r] + ob[r] for r in range(self.n)]
        bot = [[-ob[r][s] for r in range(self.n)] + oh[s]
               for s in range(self.n)]
        return _mat(top + bot)

    def h_matrix(self, x, y) -> Matrix:
        return _mat(_add(self.obar(x), _mul(_transpose(y), self.ohat(x))))

    # flattened jet coordinates: x, y, first derivatives, second derivatives
    def var_count(self) -> int:
        n = self.n
        return 2 * n + n * n + n * len(_sym_pairs(n))

    def point(self) -> list[Fraction]:
        n = self.n
        v = list(self.x0) + [Fraction(0)] * n
        v += [self.y0[a][al] for a in range(n) for al in range(n)]
        v += [self.t0[(a, p)] for a in range(n) for p in _sym_pairs(n)]
        return v

    def equations(self, v: list[Fraction]) -> list[Fraction]:
        n = self.n
        x = v[:n]
        y = [v[2 * n + a * n:2 * n + (a + 1) * n] for a in range(n)]
        base = 2 * n + n * n
        pairs = _sym_pairs(n)
        t = {(a, p): v[base + a * len(pairs) + i]
             for a in range(n) for i, p in enumerate(pairs)}
        f = self._f(x, y)
        out = [f[r][s] for r in range(n) for s in range(r + 1, n)]
        for dk in self._total_derivatives(x, y, t):
            out.extend(dk[r][s] for r in range(n) for s in range(r + 1, n))
        return out


def _transpose(m):
    return [list(col) for col in zip(*m)] if m else m


def _mul(a, b):
    bt = _transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _jacobian(eqs, point: list[Fraction]) -> Matrix:
    """Exact Jacobian by central differences with step 1.

    Every equation has degree at most two in each single coordinate, so
    (f(v + e) - f(v - e)) / 2 recovers the partial derivative exactly.
    """
    at = eqs(point)
    rows = [[Fraction(0)] * len(point) for _ in at]
    for c in range(len(point)):
        hi = list(point)
        lo = list(point)
        hi[c] += 1
        lo[c] -= 1
        up, dn = eqs(hi), eqs(lo)
        for r in range(len(at)):
            rows[r][c] = (up[r] - dn[r]) / 2
    return _mat(rows) if at else Matrix.zeros(0, len(point))


def lagrangian_pde_dims(n: int, seed: int = 0) -> dict:
    """Closed dimension formulas for the Lagrangian graph system with an
    exact rank verification at a random on-locus rational point."""
    if n < 1:
        raise ValueError("n must be positive")
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
    rank_system = rank(_mat([jac.row(i) for i in range(eq1)])) if eq1 else 0
    rank_total = rank(jac) if eq1 else 0
    t_cols = list(range(2 * n + n * n, inst.var_count()))
    if eq2:
        sym_rows = [[jac[(r, c)] for c in t_cols]
                    for r in range(eq1, eq1 + eq2)]
        rank_symbol = rank(_mat(sym_rows))
    else:
        rank_symbol = 0

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
        row = [Fraction(0)] * total
        row[n + b] = Fraction(-1)              # -y_b
        row[nv0 + n * n + b] = Fraction(1)     # +zeta_b
        sys_rows.append(row)

    prol_rows = []
    for b in range(n):
        for g in range(n):
            row = [Fraction(0)] * total
            row[nv0 + b * n + g] = Fraction(-1)                    # -Y[b][g]
            p = pairs.index((min(b, g), max(b, g)))
            row[nv0 + nv1 + n * len(pairs) + p] = Fraction(1)      # +z_{bg}
            prol_rows.append(row)

    return _mat(sys_rows), _mat(prol_rows), (nv0, nv1, nv2)


def _symbol_kernel(n: int) -> Matrix:
    """Basis of the first-order symbol: coefficient vectors over the
    first-derivative slots annihilated by the leading part of the system."""
    rows = []
    for b in range(n):
        row = [Fraction(0)] * (n * n + n)
        row[n * n + b] = Fraction(1)
        rows.append(row)
    return kernel_basis(_mat(rows))


def _cascade_dim(n: int, g1: Matrix, flag: list[list[Fraction]]) -> int:
    """dim of the symbol subspace annihilating the first i flag vectors."""
    if not flag:
        return g1.cols
    rows = []
    for v in flag:
        for out_row in range(n + 1):
            row = []
            for c in range(g1.cols):
                vec = g1.col(c)
                if out_row < n:
                    m_row = vec[out_row * n:(out_row + 1) * n]
                else:
                    m_row = vec[n * n:]
                row.append(sum(mv * xv for mv, xv in zip(m_row, v)))
            rows.append(row)
    return g1.cols - rank(_mat(rows))


def legendrian_pde_dims(n: int, seed: int = 0) -> dict:
    """Closed dimension formulas for the Legendrian graph system with
    exact rank verification and the symbol involutivity cascade."""
    if n < 1:
        raise ValueError("n must be positive")
    dim_system = (n + 1) ** 2
    dim_prolongation = (n + 1) * (n * n + 2 * n + 2) // 2
    hidden = n * (n - 1) // 2
    dim_symbol = n * n
    dim_symbol_prol = n * n * (n + 1) // 2

    sys_m, prol_m, (nv0, nv1, nv2) = _legendrian_matrices(n)
    dim_jet1 = nv0 + nv1
    dim_jet2 = dim_jet1 + nv2
    rank_system = rank(sys_m)
    rank_prol = rank(prol_m)
    second_cols = list(range(nv0 + nv1, nv0 + nv1 + nv2))
    rank_prol_symbol = rank(_mat([[prol_m[(r, c)] for c in second_cols]
                                  for r in range(prol_m.rows)]))

    g1 = _symbol_kernel(n)
    rng = Random(seed)
    flag = [[_rand_fraction(rng) for _ in range(n)] for _ in range(n)]
    while rank(_mat(_transpose(flag))) != n:
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
