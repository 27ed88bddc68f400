"""The metaplectic extension Mp1 = W x Sp with the Maslov cocycle.

Elements are pairs (w, g) with w an integer Witt class over R and g an
exact symplectic matrix; the product twists the Witt parts by the
Kashiwara index of (L, gL, gg'L) for a fixed base Lagrangian L.  The
extension is central: (w, id) commutes with everything.

The twist is read from blocks.  For the base frame F each element carries
X(g) = F^T g^T (Omega F), the pairing of gL with L (Lion & Vergne, The
Weil representation, Maslov index and theta series, 1980).
tau(L, g1 L, g1 g2 L) is ``maslov._triple_index`` of the blocks A = X(g1),
X(g1 g2) and (g1 g2 F)^T Omega (g1 F) = X(g2), as g1^T Omega g1 = Omega:
the transverse-pair formula, an n x n form (Rao's cocycle), or the 3n
Gram when det A = 0, as for g1 = id.  A product computes one new block,
its own, and keeps it for later products; it forms no image frame gL.

Each fact is proved once.  ``Mp1Element(...)``/``Mp1Element.of`` check
that w is an int and g^T Omega g = Omega, and ``LagrangianFrame`` checks
the base, for every caller.  The group operations build their results
with ``_trusted``, which skips those checks, where a theorem gives them:

* ``mp1_mul``     -- a product of symplectic matrices is symplectic;
* ``mp1_inverse`` -- g^-1 = Omega^-1 g^T Omega is symplectic, and the
  twist tau(L, gL, L) has a repeated member, so it is 0.

``Mp1Context`` refuses, once at construction, a base Lagrangian whose
Omega differs from the context's.

For n = 1 the subgroup cut out by the Leray function and the square of
the fundamental ideal (I^2 = 4Z) is exposed as ``mp2_member``; membership
depends on the chosen lifts and is invariant under 2 pi lift shifts.
"""

from __future__ import annotations

from functools import cached_property
from random import Random

from .linalg import Matrix, Value, _set, _trusted
from .maslov import LerayLift, _triple_index, leray_m
# unused here; perfbench's tracer test checks that this binding is wrapped
from .maslov import kashiwara_index  # noqa: F401
from .symplectic import (LagrangianFrame, SymplecticSpace, _pairing, _support,
                         random_symplectic)
from .witt import ideal_power_member_real


def is_symplectic(space: SymplecticSpace, g: Matrix) -> bool:
    """g^T Omega g = Omega for an exact g of the space's size.  Both sides
    are skew, so only the entries below the diagonal are compared, on the
    numerators: g.num^T Omega.num g.num = g.den^2 Omega.num."""
    if not g.rows == g.cols == space.dim:
        return False
    pair = _pairing(list(zip(*g.num)), space.omega_support, 1)
    scale = g.den * g.den
    return all(row[:x] == [scale * o for o in want[:x]]
               for x, (row, want) in enumerate(zip(pair, space.omega.num)))


class Mp1Context(Value):
    """A symplectic space with a fixed base Lagrangian for the cocycle."""

    _fields = ("space", "base")

    def __init__(self, space: SymplecticSpace, base: LagrangianFrame):
        _set(self, "space", space)
        _set(self, "base", base)
        self.__post_init__()

    def __post_init__(self):
        if self.base.space != self.space:
            raise ValueError("base Lagrangian lives in another space")

    @staticmethod
    def standard(n: int) -> "Mp1Context":
        """The standard space with the vertical base Lagrangian 0 + R^n."""
        space = SymplecticSpace.standard(n)
        frame = Matrix.zeros(n, n).vstack(Matrix.identity(n))
        return Mp1Context(space, LagrangianFrame(space, frame))

    @cached_property
    def _block_terms(self) -> tuple:
        """Terms (r, s, c = F[s][a] (Omega F)[r][b]) per block entry (a, b) over
        the nonzeros of the base's cached columns: X[a][b] = sum c g.num[r][s]."""
        cols, images = self.base._integer_columns
        return tuple(tuple(tuple((r, s, f * o) for s, f in fa for r, o in ob)
                           for ob in _support(images))
                     for fa in _support(cols))


def _frame_block(ctx: Mp1Context, g: Matrix) -> list[list[int]]:
    """X = F^T g.num^T (Omega.num F) on the primitive integer base frame F:
    X(g) times a positive factor, up to a positive column scaling of F
    shared by every element of ctx."""
    num = g.num
    return [[sum(c * num[r][s] for r, s, c in entry) for entry in row]
            for row in ctx._block_terms]


class Mp1Element(Value):
    _fields = ("ctx", "w", "g")

    def __init__(self, ctx: Mp1Context, w: int, g: Matrix):
        _set(self, "ctx", ctx)
        _set(self, "w", w)
        _set(self, "g", g)
        self.__post_init__()

    def __post_init__(self):
        if type(self.w) is not int:
            raise ValueError("the Witt part w must be an int")
        if not isinstance(self.g, Matrix):
            raise ValueError("group elements use exact matrices")
        if not is_symplectic(self.ctx.space, self.g):
            raise ValueError("matrix is not symplectic for this space")

    @staticmethod
    def of(ctx: Mp1Context, w: int, g: Matrix) -> "Mp1Element":
        """``Mp1Element(ctx, w, g)``; its last caller is perfbench's ``mp1_run``."""
        return Mp1Element(ctx, w, g)

    @cached_property
    def _block(self) -> list[list[int]]:
        """``_frame_block`` of g, kept outside the fields: ``==``, ``hash``
        and ``repr`` do not see it."""
        return _frame_block(self.ctx, self.g)


def mp1_mul(a: Mp1Element, b: Mp1Element) -> Mp1Element:
    """The product (w, g)(w', g') = (w + w' + tau(L, gL, gg'L), gg').

    Both factors need the same Omega and the same base frame L."""
    if a.ctx is not b.ctx:
        if a.ctx.space != b.ctx.space:
            raise ValueError("elements live over different spaces")
        if a.ctx.base != b.ctx.base:
            raise ValueError("elements use different base Lagrangians")
    g = a.g @ b.g
    x = _frame_block(a.ctx, g)
    tw = _triple_index(a._block, x, b._block)
    # a product of two symplectic matrices is symplectic
    out = _trusted(Mp1Element, a.ctx, a.w + b.w + tw, g)
    vars(out)["_block"] = x
    return out


def mp1_identity(ctx: Mp1Context) -> Mp1Element:
    return Mp1Element(ctx, 0, Matrix.identity(ctx.space.dim))


def mp1_inverse(a: Mp1Element) -> Mp1Element:
    """Solve (w, g)(w', g^{-1}) = (0, id) for w' in the Witt group.

    The twist tau(L, gL, L) has a repeated member, so it is 0 and w' = -w.
    g^T Omega g = Omega gives g^{-1} = Omega^{-1} g^T Omega; canonical exact
    forms make it field-equal to ``inverse(g)``.
    """
    space = a.ctx.space
    # the inverse of a symplectic matrix is symplectic
    return _trusted(Mp1Element, a.ctx, -a.w,
                    space.omega_inverse @ a.g.T @ space.omega)


def random_mp1(ctx: Mp1Context, rng: Random) -> Mp1Element:
    g = random_symplectic(ctx.space, rng, transvections=5)
    return Mp1Element(ctx, rng.randint(-3, 3), g)


def mp2_member(a: Mp1Element, base_lift: LerayLift, image_lift: LerayLift) -> bool:
    """Membership of an Mp1 element (n = 1) in the index-two subgroup;
    library API.

    Tests w - m(lift of gL, lift of L) against I^2 = 4Z.  The caller fixes
    both lifts; shifting a lift by 2 pi does not change the answer.
    """
    if a.ctx.space.n != 1:
        raise ValueError("the Leray route to Mp2 exists only for n = 1")
    m = leray_m(image_lift, base_lift)
    if m != round(m):
        raise ValueError("lifts sit off the integer locus of m")
    return ideal_power_member_real(a.w - int(round(m)), 2)
