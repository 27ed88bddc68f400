"""The metaplectic extension Mp1 = W x Sp with the Maslov cocycle.

Elements are pairs (w, g) with w an integer Witt class over R and g an
exact symplectic matrix; the product twists the Witt parts by the
Kashiwara index of (L, gL, gg'L) for a fixed base Lagrangian L.  The
extension is central: (w, id) commutes with everything.

For n = 1 the subgroup cut out by the Leray function and the square of
the fundamental ideal (I^2 = 4Z) is exposed as ``mp2_member``; membership
depends on the chosen lifts and is invariant under 2 pi lift shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .linalg import EXACT, Matrix, inverse
from .maslov import LagrangianTuple, LerayLift, kashiwara_index, leray_m
from .symplectic import LagrangianFrame, SymplecticSpace, random_symplectic
from .witt import ideal_power_member_real


def is_symplectic(space: SymplecticSpace, g: Matrix) -> bool:
    if g.rows != space.dim or g.cols != space.dim:
        return False
    omega = space.omega_as(g.mode)
    gram = g.T @ omega @ g
    if g.mode == EXACT:  # canonical forms: equal values have equal fields
        return (gram.num, gram.den) == (omega.num, omega.den)
    return (gram - omega).is_zero()


@dataclass(frozen=True)
class Mp1Context:
    """A symplectic space with a fixed base Lagrangian for the cocycle."""

    space: SymplecticSpace
    base: LagrangianFrame

    @staticmethod
    def standard(n: int) -> "Mp1Context":
        """The standard space with the vertical base Lagrangian 0 + R^n."""
        space = SymplecticSpace.standard(n)
        frame = Matrix.zeros(n, n).vstack(Matrix.identity(n))
        return Mp1Context(space, LagrangianFrame(space, frame))


@dataclass(frozen=True)
class Mp1Element:
    ctx: Mp1Context
    w: int
    g: Matrix

    def __post_init__(self):
        if self.g.mode != EXACT:
            raise ValueError("group elements use exact matrices")
        if not is_symplectic(self.ctx.space, self.g):
            raise ValueError("matrix is not symplectic for this space")

    @staticmethod
    def of(ctx: Mp1Context, w: int, g: Matrix) -> "Mp1Element":
        return Mp1Element(ctx, int(w), g)


def _cocycle(ctx: Mp1Context, g1: Matrix, g12: Matrix) -> int:
    """tau(L, g1 L, g1 g2 L) for the base L, given g1 and the product g1 g2."""
    lag = ctx.base
    l1 = LagrangianFrame(ctx.space, g1 @ lag.frame)
    l2 = LagrangianFrame(ctx.space, g12 @ lag.frame)
    return kashiwara_index(LagrangianTuple.of(lag, l1, l2))


def mp1_mul(a: Mp1Element, b: Mp1Element) -> Mp1Element:
    oa, ob = a.ctx.space.omega, b.ctx.space.omega
    if (oa.num, oa.den) != (ob.num, ob.den):
        raise ValueError("elements live over different spaces")
    g = a.g @ b.g
    tw = _cocycle(a.ctx, a.g, g)
    return Mp1Element(a.ctx, a.w + b.w + tw, g)


def mp1_identity(ctx: Mp1Context) -> Mp1Element:
    return Mp1Element(ctx, 0, Matrix.identity(ctx.space.dim))


def mp1_inverse(a: Mp1Element) -> Mp1Element:
    """Solve (w, g)(w', g^{-1}) = (0, id) for w' in the Witt group.

    The twist tau(L, gL, L) has a repeated member, so it is 0 and w' = -w.
    """
    return Mp1Element(a.ctx, -a.w, inverse(a.g))


def mp1_central_check(ctx: Mp1Context, w: int, others: list[Mp1Element]) -> bool:
    """True iff (w, id) commutes with every listed element."""
    c = Mp1Element.of(ctx, w, Matrix.identity(ctx.space.dim))
    for el in others:
        left = mp1_mul(c, el)
        right = mp1_mul(el, c)
        if left.w != right.w or left.g != right.g:
            return False
    return True


def random_mp1(ctx: Mp1Context, rng: Random) -> Mp1Element:
    g = random_symplectic(ctx.space, rng, transvections=5)
    return Mp1Element.of(ctx, rng.randint(-3, 3), g)


def mp2_member(a: Mp1Element, base_lift: LerayLift, image_lift: LerayLift) -> bool:
    """Membership of an Mp1 element (n = 1) in the index-two subgroup.

    Tests w - m(lift of gL, lift of L) against I^2 = 4Z.  The caller fixes
    both lifts; shifting a lift by 2 pi does not change the answer.
    """
    if a.ctx.space.n != 1:
        raise ValueError("the Leray route to Mp2 exists only for n = 1")
    m = leray_m(image_lift, base_lift)
    if m != round(m):
        raise ValueError("lifts sit off the integer locus of m")
    return ideal_power_member_real(a.w - int(round(m)), 2)
