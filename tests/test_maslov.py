"""Index calculators: Kashiwara, Wall, Arnold, Leray."""

import math
from fractions import Fraction as F
from operator import mul
from random import Random

import numpy as np
import pytest

from symgeo import maslov
from symgeo.linalg import (EXACT, Matrix, _rand_full_rank, _solve,
                           integer_signature, inverse, kernel_basis, rank,
                           sym_signature)
from symgeo.maslov import (LagrangianTuple, LerayLift, _boundary_columns,
                           _triple_index, arnold_index_triple,
                           arnold_triple_lines, kashiwara_index,
                           kashiwara_index_float, kashiwara_signature,
                           kashiwara_space, leray_cyclic_sum, leray_m,
                           tuple_reduce, wall_invariant)
from symgeo.metaplectic import (Mp1Context, Mp1Element, mp1_identity,
                                mp1_inverse, mp1_mul, random_mp1)
from symgeo.symplectic import (LagrangianFrame, SymplecticSpace, _pairing,
                               _primitive_column, graph_lagrangian,
                               lagrangian_from_angles, line_lagrangian,
                               random_lagrangian, random_symplectic,
                               standard_gram)
from symgeo.selftest import _rand_line_dir
from symgeo.witt import witt_of_form_complex, witt_of_form_real


def test_triple_anchor_exact_directions():
    sp = SymplecticSpace.standard(1)
    # lines at angles 0, pi/4, pi/2: increasing, so +1; reversed, -1
    ls = [line_lagrangian(sp, d) for d in ((1, 0), (1, 1), (0, 1))]
    assert kashiwara_index(ls) == 1
    assert kashiwara_index(list(reversed(ls))) == -1


def test_triple_anchor_angles():
    sp = SymplecticSpace.standard(1)
    ls = [lagrangian_from_angles(sp, [t])
          for t in (0.0, math.pi / 3, 2 * math.pi / 3)]
    assert kashiwara_index_float(sp, ls) == 1
    assert kashiwara_index_float(sp, list(reversed(ls))) == -1


def test_degenerate_triples_vanish():
    sp = SymplecticSpace.standard(1)
    a = line_lagrangian(sp, (1, 0))
    b = line_lagrangian(sp, (1, 1))
    assert kashiwara_index([a, a, b]) == 0
    assert kashiwara_index([a, b, b]) == 0
    assert kashiwara_index([a, b, a]) == 0


def test_dihedral_symmetry():
    rng = Random(0)
    for n in (1, 2):
        sp = SymplecticSpace.standard(n)
        for _ in range(10):
            ls = [random_lagrangian(sp, rng) for _ in range(4)]
            t = kashiwara_index(ls)
            rotated = ls[1:] + ls[:1]
            assert kashiwara_index(rotated) == t
            assert kashiwara_index(list(reversed(ls))) == -t


def test_cocycle_identity_seeded():
    rng = Random(1)
    for n in (1, 2):
        sp = SymplecticSpace.standard(n)
        for _ in range(20):
            ls = [random_lagrangian(sp, rng) for _ in range(4)]
            s = (kashiwara_index(ls[1:])
                 - kashiwara_index([ls[0], ls[2], ls[3]])
                 + kashiwara_index([ls[0], ls[1], ls[3]])
                 - kashiwara_index(ls[:3]))
            assert s == 0


def test_symplectic_invariance_seeded():
    rng = Random(2)
    for n in (1, 2):
        sp = SymplecticSpace.standard(n)
        for _ in range(8):
            ls = [random_lagrangian(sp, rng) for _ in range(3)]
            t = kashiwara_index(ls)
            g = random_symplectic(sp, rng)
            moved = [LagrangianFrame(sp, g @ l.frame) for l in ls]
            assert kashiwara_index(moved) == t


def test_tuple_reduce_matches_index():
    rng = Random(3)
    sp = SymplecticSpace.standard(2)
    for _ in range(15):
        ls = tuple(random_lagrangian(sp, rng) for _ in range(rng.randint(3, 6)))
        tup = LagrangianTuple(ls)
        assert tuple_reduce(tup) == kashiwara_index(tup)


def test_tuple_of_refuses_mixed_spaces_and_modes():
    sp = SymplecticSpace.standard(2)
    rng = Random("tuple-of")
    a, b = random_lagrangian(sp, rng), random_lagrangian(sp, rng)
    double = SymplecticSpace(standard_gram(2).scale(2))
    with pytest.raises(ValueError,
                       match="^tuple members live in different spaces$"):
        LagrangianTuple.of(a, b, LagrangianFrame(double, a.frame))
    with pytest.raises(ValueError, match="^tuple members mix scalar modes$"):
        LagrangianTuple.of(a, b.frame.to_numpy())
    tup = LagrangianTuple.of(a, b)
    assert tup.space is sp and len(tup) == 2


def test_kashiwara_space_signature_decomposes_index():
    """The quotient signature splits as the index, and ``kashiwara_signature``
    (tau and dim T from ranks, zero = 0) equals it, with Wall's invariant of
    the first three members their index: on seeded tuples, on tuples that
    repeat a member's span or share lines with an earlier member, and on
    the latter moved into a custom 2/3 A^T J A space."""
    rng = Random(4)
    sp = SymplecticSpace.standard(2)
    for _ in range(10):
        tup = LagrangianTuple(tuple(random_lagrangian(sp, rng)
                                    for _ in range(4)))
        gram = kashiwara_space(tup)
        sig = sym_signature(gram)
        assert sig.dim == gram.rows
        assert sig.pos - sig.neg == kashiwara_index(tup)
        assert kashiwara_signature(sp, tup.members) == sig
    for n in (1, 2, 3, 4):
        std = SymplecticSpace.standard(n)
        a = _rand_full_rank(rng, 2 * n, 2 * n)
        custom = SymplecticSpace((a.T @ standard_gram(n) @ a).scale(F(2, 3)))
        for r in (3, 4, 5, 6):
            ls = [random_lagrangian(std, rng) for _ in range(r)]
            src = rng.randrange(r - 1)
            dst = rng.randrange(src + 1, r)
            repeated, shared = list(ls), list(ls)
            repeated[dst] = LagrangianFrame(std, ls[src].frame @ _rand_full_rank(rng, n, n))
            shared[dst] = _sharing(rng, ls[src], rng.randint(1, n))
            moved = [LagrangianFrame(custom, inverse(a) @ l.frame) for l in shared]
            for space, members in ((std, repeated), (std, shared), (custom, moved)):
                sig = kashiwara_signature(space, members)
                assert sig.zero == 0
                assert sig == sym_signature(kashiwara_space(LagrangianTuple.of(*members)))
                triple = kashiwara_signature(space, members[:3])
                assert wall_invariant(*members[:3]) == triple.pos - triple.neg


def test_invariants_are_plain_ints():
    """Indices, Witt classes and Mp1 Witt parts are ints, and the quotient
    form of an exact tuple is its symmetric exact Gram matrix."""
    rng = Random("plain-ints")
    sp = SymplecticSpace.standard(2)
    ls = [random_lagrangian(sp, rng) for _ in range(4)]
    floats = [l.frame.to_numpy() for l in ls]
    tup = LagrangianTuple.of(*ls)
    form = Matrix.exact([[1, 2], [2, -1]])
    ctx = Mp1Context.standard(2)
    a, b = random_mp1(ctx, rng), random_mp1(ctx, rng)
    values = [kashiwara_index(tup), kashiwara_index_float(sp, floats),
              tuple_reduce(tup), wall_invariant(*ls[:3]),
              *kashiwara_signature(sp, ls).as_tuple(),
              *kashiwara_signature(sp, floats).as_tuple(),
              witt_of_form_real(form), witt_of_form_complex(form)]
    values += [el.w for el in (a, mp1_mul(a, b), mp1_inverse(a),
                               mp1_identity(ctx), Mp1Element.of(ctx, 2, a.g))]
    assert [type(v) for v in values] == [int] * len(values)
    gram = kashiwara_space(tup)
    assert type(gram) is Matrix and gram.mode == EXACT and gram.rows > 0
    assert gram.T.entries == gram.entries
    assert all(type(x) is F for row in gram.entries for x in row)


def _sharing(rng, lag, k):
    """A Lagrangian through the first k frame columns of ``lag``: a
    transvection along u in their omega-complement fixes them."""
    sp, f = lag.space, lag.frame
    perp = kernel_basis(f.columns(range(k)).T @ sp.omega)
    u = perp @ Matrix.exact([[rng.randint(-2, 2) or 1] for _ in range(perp.cols)])
    c = F(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice((1, -1))
    t = Matrix.identity(sp.dim) + (u @ (u.T @ sp.omega.T)).scale(c)
    return LagrangianFrame(sp, t @ f)


def _rand_tuple(rng, sp, r):
    """Random members; about a third of the tuples repeat a member's span
    under a new frame or share lines with an earlier member."""
    ls = [random_lagrangian(sp, rng, twists=rng.randint(2, 5)) for _ in range(r)]
    kind = rng.randrange(6)
    src, dst = rng.randrange(r - 1), rng.randrange(1, r)
    if kind == 0:
        mix = _rand_full_rank(rng, sp.n, sp.n)
        ls[dst] = LagrangianFrame(sp, ls[src].frame @ mix)
    elif kind == 1:
        ls[dst] = _sharing(rng, ls[src], rng.randint(1, sp.n))
    return ls


def _oracle(tup):
    sig = sym_signature(kashiwara_space(tup))
    return sig.pos - sig.neg


@pytest.mark.parametrize("n,r_max,count", [
    (1, 6, 14), (2, 6, 10), (3, 5, 6), (4, 6, 3), (5, 4, 2), (6, 3, 2), (6, 6, 1),
])
def test_direct_sum_index_matches_quotient_space(n, r_max, count):
    rng = Random(f"direct-sum:{n}")
    sp = SymplecticSpace.standard(n)
    for i in range(count):
        r = r_max if i == 0 else rng.randint(2, r_max)
        tup = LagrangianTuple.of(*_rand_tuple(rng, sp, r))
        assert kashiwara_index(tup) == _oracle(tup)


def test_direct_sum_index_on_a_rational_omega():
    rng = Random(20)
    for n in (1, 2, 3):
        a = _rand_full_rank(rng, 2 * n, 2 * n)
        omega = (a.T @ standard_gram(n) @ a).scale(F(2, 3))
        custom = SymplecticSpace(omega)
        # A^-1 maps standard Lagrangians to Omega-Lagrangians and pulls Omega
        # back to 2/3 J, a positive multiple, so the index is unchanged
        to_custom = inverse(a)
        std = SymplecticSpace.standard(n)
        for _ in range(4):
            ls = _rand_tuple(rng, std, rng.randint(3, 5))
            moved = LagrangianTuple.of(*(LagrangianFrame(custom, to_custom @ l.frame)
                                         for l in ls))
            want = kashiwara_index(ls)
            assert kashiwara_index(moved) == want
            assert _oracle(moved) == want


def full_gram_index(tup) -> int:
    """The exact index as one signature: pos - neg of P + P^T for the
    block-lower rn x rn pairing P of the primitive member columns, whose
    lower triangle is the one ``integer_signature`` reads.  No triple, no
    chain rule and no Schur form: the oracle of ``kashiwara_index``."""
    if not isinstance(tup, LagrangianTuple):
        tup = LagrangianTuple.of(*tup)
    space = tup.space
    cols = [_primitive_column(c) for m in tup.members for c in m.frame.T.num]
    sig = integer_signature(_pairing(cols, space.omega_support, space.n))
    return sig.pos - sig.neg


def block_gram_index(a, b, c) -> int:
    """The index of the 3n block-lower Gram with blocks (2,1) = a,
    (3,1) = b and (3,2) = c: the oracle of ``_triple_index``."""
    n = len(a)
    gram = [[0] * (3 * n) for _ in range(3 * n)]
    for (r0, c0), blk in (((n, 0), a), ((2 * n, 0), b), ((2 * n, n), c)):
        for i, row in enumerate(blk):
            gram[r0 + i][c0:c0 + n] = row
    sig = integer_signature(gram)
    return sig.pos - sig.neg


def _triple_blocks(l1, l2, l3) -> tuple:
    """Blocks (2,1), (3,1) and (3,2) of the triple's pairing."""
    n = l1.space.n
    cols = [_primitive_column(c) for m in (l1, l2, l3) for c in m.frame.T.num]
    p = _pairing(cols, l1.space.omega_support, n)
    return ([r[:n] for r in p[n:2 * n]], [r[:n] for r in p[2 * n:]],
            [r[n:2 * n] for r in p[2 * n:]])


def _pool_tuple(rng, sp, r, tie):
    """Seeded members as in the perfbench ``index`` pools: the last member
    is another frame of the first or shares the first member's lines, or
    neither; with ``tie`` a middle member does the same, so L_1 and that
    member meet and the chain reaches det A = 0."""
    ls = [random_lagrangian(sp, rng, twists=rng.randint(3, 6)) for _ in range(r)]
    dst = rng.randrange(1, r - 1) if tie else r - 1
    kind = rng.randrange(2 if tie else 3)
    if kind == 0:
        ls[dst] = LagrangianFrame(sp, ls[0].frame @ _rand_full_rank(rng, sp.n, sp.n))
    elif kind == 1:
        ls[dst] = _sharing(rng, ls[0], rng.randint(1, sp.n))
    return ls


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chain_rule_index_matches_full_gram_and_quotient(n, triple_branches):
    """``kashiwara_index`` and ``tuple_reduce`` against the full rn Gram and
    the quotient form, for r = 3..6, tied and untied tuples; both branches
    of ``_triple_index`` run at every n."""
    rng = Random(f"chain-rule:{n}")
    sp = SymplecticSpace.standard(n)
    for r in (3, 4, 5, 6):
        for tie in (False, True):
            tup = LagrangianTuple.of(*_pool_tuple(rng, sp, r, tie))
            want = full_gram_index(tup)
            assert kashiwara_index(tup) == want == tuple_reduce(tup)
            if r <= (6 if n < 5 else 4):
                assert _oracle(tup) == want
    assert triple_branches["schur"] and triple_branches["gram"]
    pair = LagrangianTuple.of(*_pool_tuple(rng, sp, 3, False)[:2])
    assert kashiwara_index(pair) == 0 == full_gram_index(pair)


def schur_product(a, b, c):
    """The whole n x n product B (d A^-1 C^T) of ``_triple_index``'s Schur
    branch for the blocks (2,1) = a, (3,1) = b, (3,2) = c, or None when
    det A = 0."""
    solved = _solve(a, list(zip(*c)))
    if solved is None:
        return None
    return [[sum(map(mul, row, col)) for col in zip(*solved[1])] for row in b]


def is_symmetric(w) -> bool:
    return all(w[i][j] == w[j][i] for i in range(len(w)) for j in range(i))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_schur_product_is_symmetric(n):
    """B (d A^-1 C^T) is symmetric, the theorem that lets ``_triple_index``
    form and read its lower triangle only: on every transverse triple
    (L_1, L_k, L_k+1) of seeded pool tuples, standard and moved into a
    custom 2/3 A^T J A space."""
    rng = Random(f"schur-symmetric:{n}")
    std = SymplecticSpace.standard(n)
    a = _rand_full_rank(rng, 2 * n, 2 * n)
    custom = SymplecticSpace((a.T @ standard_gram(n) @ a).scale(F(2, 3)))
    to_custom = inverse(a)
    transverse = 0
    for r in (3, 4, 5, 6):
        for tie in (False, True):
            ls = _pool_tuple(rng, std, r, tie)
            moved = [LagrangianFrame(custom, to_custom @ lag.frame) for lag in ls]
            for tup in (ls, moved):
                for k in range(1, r - 1):
                    w = schur_product(*_triple_blocks(tup[0], tup[k], tup[k + 1]))
                    if w is not None:
                        assert is_symmetric(w)
                        transverse += 1
    assert transverse >= 16


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_triple_index_matches_the_3n_gram(n, triple_branches):
    """``_triple_index`` on the blocks of seeded triples, tied or not,
    against the whole 3n Gram; positive factors on the blocks change
    nothing."""
    rng = Random(f"triple-blocks:{n}")
    sp = SymplecticSpace.standard(n)
    for i in range(12):
        blocks = _triple_blocks(*_pool_tuple(rng, sp, 3, tie=i % 3 == 0))
        want = block_gram_index(*blocks)
        assert _triple_index(*blocks) == want
        scaled = [[[k * x for x in row] for row in blk]
                  for k, blk in zip((rng.randint(1, 9) for _ in range(3)), blocks)]
        assert _triple_index(*scaled) == want
    assert triple_branches["schur"] and triple_branches["gram"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_meeting_pair_takes_the_3n_gram(n, triple_branches):
    """det A = 0 by construction: L_2 is L_1 (the same frame or another
    one) or shares k = 1..n lines with it.  Each such triple takes the
    3n branch and agrees with both oracles."""
    rng = Random(f"meeting-pair:{n}")
    sp = SymplecticSpace.standard(n)
    for k in range(n + 1):
        l1, l3 = (random_lagrangian(sp, rng, twists=4) for _ in range(2))
        if k == 0:
            l2s = [l1, LagrangianFrame(sp, l1.frame @ _rand_full_rank(rng, n, n))]
        else:
            l2s = [_sharing(rng, l1, k)]
        for l2 in l2s:
            tup = LagrangianTuple.of(l1, l2, l3)
            before = triple_branches["gram"]
            assert kashiwara_index(tup) == full_gram_index(tup) == _oracle(tup)
            assert triple_branches["gram"] == before + 1
            assert _triple_index(*_triple_blocks(l1, l2, l3)) == block_gram_index(
                *_triple_blocks(l1, l2, l3))
    assert triple_branches["schur"] == 0


def test_approx_index_matches_exact_on_converted_tuples():
    # float copies of these rational frames reach entries near 1.7e6; with
    # the raw frames in place of their QR factors, 32 of the 150 indices
    # come out wrong without any error.  The float payload (dim T from
    # float ranks, and its signature) matches the exact quotient form, and
    # the float index of the first three members their Wall invariant.
    rng = Random(21)
    for _ in range(150):
        sp = SymplecticSpace.standard(rng.randint(1, 4))
        ls = _rand_tuple(rng, sp, rng.randint(3, 6))
        floats = [l.frame.to_numpy() for l in ls]
        assert kashiwara_index_float(sp, floats) == kashiwara_index(ls)
        assert kashiwara_signature(sp, floats) == sym_signature(
            kashiwara_space(LagrangianTuple.of(*ls)))
        triple = kashiwara_signature(sp, floats[:3])
        assert triple.pos - triple.neg == wall_invariant(*ls[:3])


def test_float_payload_ranks_read_spans_not_frame_scales():
    """Lines at angles 0, about 1e-4 and pi/2 give index +1 on dim T = 1,
    as exact and as float frames.  The raw float pair [(1, 0) | (1e6, 100)]
    has its smallest singular value 1e-4 under its cut 1e-3, so the float
    ranks read the members' orthonormal Q factors."""
    sp = SymplecticSpace.standard(1)
    ls = [LagrangianFrame(sp, Matrix.exact([[p], [q]]))
          for p, q in ((1, 0), (1000000, 100), (0, 1))]
    floats = [l.frame.to_numpy() for l in ls]
    assert kashiwara_signature(sp, ls).as_tuple() == (1, 0, 0)
    assert kashiwara_signature(sp, floats).as_tuple() == (1, 0, 0)


def test_payload_refuses_float_decisions_near_their_cut(monkeypatch):
    """The n = 1 lines at pi - 4e-10, 0 and 4e-10 have exact index +1 as
    rational copies of their floats; the float index reads -1 (an eigenvalue
    -1.09e-9 against the 1e-9 cut) and the float ranks dim T = 0.  Those
    values lie within ``FLOAT_MARGIN`` of their cuts, so the float payload
    is refused.  Without the margin, |tau| <= t still refuses it.  Gaps of
    1e-5 and 1e-14 are decided: signed and zero."""
    sp = SymplecticSpace.standard(1)

    def lines(*angles):
        return [np.array([[math.cos(t)], [math.sin(t)]]) for t in angles]

    near = lines(math.pi - 4e-10, 0.0, 4e-10)
    exact = [LagrangianFrame(sp, Matrix.exact([[F(x)] for x in f[:, 0]]))
             for f in near]
    assert kashiwara_index(exact) == 1
    with pytest.raises(ValueError, match="^undecidable at tol: "):
        kashiwara_signature(sp, near)
    assert kashiwara_signature(sp, lines(0.0, 1e-5, 2.0)).as_tuple() == (1, 0, 0)
    assert kashiwara_signature(sp, lines(0.0, 1e-14, 2.0)).as_tuple() == (0, 0, 0)
    monkeypatch.setattr(maslov, "FLOAT_MARGIN", 1.0)
    with pytest.raises(ValueError, match="^index -1 does not fit dim T = 0"):
        kashiwara_signature(sp, near)


def test_payload_refuses_exact_members_of_another_space():
    ls = [line_lagrangian(SymplecticSpace.standard(1), d)
          for d in ((1, 0), (1, 1), (0, 1))]
    with pytest.raises(ValueError, match="^tuple members live in a different space$"):
        kashiwara_signature(SymplecticSpace.standard(2), ls)


def _reference_reps(tup):
    """Representatives of T, each candidate kernel column taken when a rank
    test shows it independent of the boundary and the columns before it."""
    frames = [m.frame for m in tup.members]
    sigma = frames[0]
    for f in frames[1:]:
        sigma = sigma.hstack(f)
    ker = kernel_basis(sigma)
    cur, picked = _boundary_columns(tup), []
    for j in range(ker.cols):
        trial = cur.hstack(ker.columns([j]))
        if rank(trial) > rank(cur):
            cur = trial
            picked.append(j)
    return ker.columns(picked)


def _reference_gram(tup, form):
    """Gram of form(u, v) on the representatives, u and v cut into members."""
    reps = _reference_reps(tup)
    r, n = len(tup), tup.space.n
    cols = [[reps.col(c)[i * n:(i + 1) * n] for i in range(r)]
            for c in range(reps.cols)]
    return [[form(u, v) for v in cols] for u in cols]


def _reference_q(tup):
    """q(u, v) = sum over i > j of u_i^T (F_i^T Omega F_j) v_j."""
    frames = [m.frame for m in tup.members]
    omega, n = tup.space.omega, tup.space.n
    blocks = [[f.T @ omega @ frames[j] for j in range(i)]
              for i, f in enumerate(frames)]

    def q(u, v):
        return sum(u[i][a] * blocks[i][j][a, b] * v[j][b]
                   for i in range(len(frames)) for j in range(i)
                   for a in range(n) for b in range(n))
    return q


def _reference_psi(tup):
    """psi(u, v) = u_2^T (F_2^T Omega F_1) v_1, symmetrized."""
    f1, f2 = tup.members[0].frame, tup.members[1].frame
    p21, n = f2.T @ tup.space.omega @ f1, tup.space.n

    def psi(u, v):
        return sum(u[1][a] * p21[a, b] * v[0][b]
                   for a in range(n) for b in range(n))
    return lambda u, v: (psi(u, v) + psi(v, u)) / 2


def _check_forms_against_references(tup):
    gram = kashiwara_space(tup)
    assert [list(row) for row in gram.entries] == \
        _reference_gram(tup, _reference_q(tup))
    triple = LagrangianTuple.of(*tup.members[:3])
    sig = sym_signature(Matrix.exact(_reference_gram(triple, _reference_psi(triple))))
    assert wall_invariant(*triple.members) == sig.pos - sig.neg


def test_quotient_forms_match_the_closure_references():
    rng = Random("closure-references")
    for n in (1, 2, 3):
        sp = SymplecticSpace.standard(n)
        for _ in range(8):
            _check_forms_against_references(
                LagrangianTuple.of(*_rand_tuple(rng, sp, rng.randint(3, 5))))


def test_quotient_forms_match_the_closure_references_on_a_rational_omega():
    rng = Random("closure-references:omega")
    for n in (1, 2):
        a = _rand_full_rank(rng, 2 * n, 2 * n)
        custom = SymplecticSpace((a.T @ standard_gram(n) @ a).scale(F(3, 5)))
        to_custom = inverse(a)
        std = SymplecticSpace.standard(n)
        for _ in range(4):
            ls = _rand_tuple(rng, std, rng.randint(3, 4))
            _check_forms_against_references(LagrangianTuple.of(
                *(LagrangianFrame(custom, to_custom @ l.frame) for l in ls)))


def test_wall_equals_kashiwara_seeded():
    rng = Random(5)
    for n in (1, 2, 3):
        sp = SymplecticSpace.standard(n)
        for _ in range(12):
            l1, l2, l3 = (random_lagrangian(sp, rng) for _ in range(3))
            assert wall_invariant(l1, l2, l3) == \
                kashiwara_index([l1, l2, l3])


def test_arnold_triple_lines_properties():
    rng = Random(6)
    sp = SymplecticSpace.standard(1)
    assert arnold_triple_lines((1, 0), (1, 1), (0, 1)) == 1
    assert arnold_triple_lines((1, 2), (-2, -4), (0, 1)) == 0
    for _ in range(60):
        ds = [_rand_line_dir(rng) for _ in range(3)]
        a = arnold_triple_lines(*ds)
        assert arnold_triple_lines(ds[1], ds[0], ds[2]) == -a
        assert arnold_triple_lines(ds[1], ds[2], ds[0]) == a
        frames = [line_lagrangian(sp, d) for d in ds]
        assert kashiwara_index(frames) == a
        # exact n = 1 frames read the same sign through their float angles
        assert arnold_index_triple(sp, [f.frame.to_numpy() for f in frames]) == a


def test_arnold_float_agrees_on_separated_angles():
    # seeded diagonal triples at n = 1..3: component j of every member lies
    # in the plane span(e_j, e_{n+j}), where the index adds up
    rng = Random(7)
    # lines within ANGLE_SNAP of 0 and pi are the line at 0
    near = [0.0, 1e-12, 3e-10, math.pi - 3e-10, math.pi - 1e-12]
    for n in (1, 2, 3):
        sp = SymplecticSpace.standard(n)
        for _ in range(110):
            members = []
            for _ in range(3):
                members.append([
                    rng.uniform(0, math.pi) if rng.random() < 0.5 else
                    rng.choice(near + [m[j] for m in members])  # repeats
                    for j in range(n)])
            rng.shuffle(members)
            frames = [lagrangian_from_angles(sp, t) for t in members]
            index = arnold_index_triple(sp, frames)
            assert index == kashiwara_index_float(sp, frames)
            perm = rng.sample(range(n), n)
            assert arnold_index_triple(sp, [
                lagrangian_from_angles(sp, [t[j] for j in perm])
                for t in members]) == index
    # plane 1 reads (0.1, 2.5, 1.0), sign -1; plane 2 (2.0, 0.5, 1.5), +1
    sp = SymplecticSpace.standard(2)
    frames = [lagrangian_from_angles(sp, t)
              for t in ((0.1, 2.0), (2.5, 0.5), (1.0, 1.5))]
    assert arnold_index_triple(sp, frames) == kashiwara_index_float(sp, frames) == 0


def test_arnold_refuses_non_diagonal_frames_and_custom_spaces():
    sp = SymplecticSpace.standard(2)
    diag = lagrangian_from_angles(sp, [0.5, 1.0])
    tilted = graph_lagrangian(sp, Matrix.exact([[1, 2], [2, 3]]))
    with pytest.raises(ValueError, match="^the angle index needs diagonal frames$"):
        arnold_index_triple(sp, [diag, diag, tilted.frame.to_numpy()])
    custom = SymplecticSpace(standard_gram(1).scale(2))
    lines = [line_lagrangian(custom, d) for d in ((1, 0), (1, 1), (0, 1))]
    with pytest.raises(ValueError, match="^the angle index needs one standard space$"):
        arnold_index_triple(custom, [line.frame.to_numpy() for line in lines])


def test_leray_m_antisymmetric():
    rng = Random(8)
    for _ in range(40):
        l1 = LerayLift.from_direction(*_rand_line_dir(rng), rng.randint(-2, 2))
        l2 = LerayLift.from_direction(*_rand_line_dir(rng), rng.randint(-2, 2))
        assert leray_m(l1, l2) + leray_m(l2, l1) == 0


def test_leray_m_anchors():
    up = LerayLift.from_direction(0, 1, 0)       # angle pi/2
    flat = LerayLift.from_direction(1, 0, 0)     # angle 0
    assert leray_m(up, flat) == -1
    assert leray_m(flat, up) == 1
    # same line, different winding
    assert leray_m(LerayLift.from_direction(1, 0, 1), flat) == -2


def test_leray_m_snaps_far_multiples_of_pi():
    # |nearest| >= 2: float lifts within tol of 2 pi, exact lifts on 3 pi
    zero = LerayLift(0.0)
    for t in (2 * math.pi + 1e-12, 2 * math.pi - 1e-12):
        assert leray_m(LerayLift(t), zero) == -4
        assert leray_m(zero, LerayLift(t)) == 4
    assert leray_m(LerayLift(F(3)), LerayLift(F(0))) == -6
    # exact lifts snap on pi Z only, not within tol of it
    assert leray_m(LerayLift(F(2) + F(1, 10 ** 12)), LerayLift(F(0))) == -5
    assert leray_m(LerayLift(F(-5, 2)), LerayLift(F(0))) == 5


def test_leray_sum_matches_index():
    rng = Random(9)
    sp = SymplecticSpace.standard(1)
    for _ in range(60):
        r = rng.randint(3, 6)
        lifts = [LerayLift.from_direction(*_rand_line_dir(rng), rng.randint(-2, 2))
                 for _ in range(r)]
        assert leray_cyclic_sum(lifts) == \
            kashiwara_index([lf.line(sp) for lf in lifts])


def test_leray_exact_fraction_lifts():
    lifts = [LerayLift(F(0)), LerayLift(F(1, 3)), LerayLift(F(2, 3))]
    assert leray_cyclic_sum(lifts) == 1


def test_tuple_needs_enough_members():
    sp = SymplecticSpace.standard(1)
    a = line_lagrangian(sp, (1, 0))
    b = line_lagrangian(sp, (0, 1))
    with pytest.raises(ValueError):
        LagrangianTuple.of(a)
    # a pair carries no index: the cyclic form telescopes away
    assert kashiwara_index([a, b]) == 0
