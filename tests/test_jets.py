"""Jet calculus: symmetric tensors, Spencer complexes, the metasymplectic
pairing, isotropic-plane construction, and the two PDE dimension audits."""

from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement
from math import comb
from random import Random

import numpy as np
import pytest

from symgeo.jets import (CovectorSlot, JetSignature, ModelVector, SymTensor,
                         delta_spencer, jet_dim, lagrangian_pde_dims,
                         lambda_basis, lambda_dim, legendrian_pde_dims,
                         max_isotropic, meta_orthogonal, metasymplectic_eval,
                         multi_indices, singularity_condition,
                         spencer_sequence_audit, symbol_layer_dim)
from symgeo.jets.metasymplectic import (flatten, meta_orthogonal_frame,
                                        model_dim, span_matrix, unflatten,
                                        vectors_from_matrix)
from symgeo.jets import pde_audit
from symgeo.jets.symtensor import _spencer_matrix
from symgeo.linalg import Matrix, kernel_basis, rank, spans_equal
from symgeo.symplectic import intersect_frames


def span_contains(big, small):
    """True if every column of ``small`` lies in the column span of ``big``."""
    return rank(big.hstack(small)) == rank(big)


def _model_vector(sig, x=(), theta=None):
    """(X, theta) through ``unflatten``; a missing part is zero."""
    coeffs = theta.coeffs if theta is not None else [0] * symbol_layer_dim(sig)
    return unflatten(sig, list(x or [0] * sig.n) + list(coeffs))


def _rand_tensor(rng, n, m, degree):
    t = SymTensor.zero(n, m, degree)
    for alpha in multi_indices(n, degree):
        for j in range(m):
            t = t + SymTensor.unit(n, m, alpha, j).scale(F(rng.randint(-3, 3)))
    return t


# -- symmetric tensors and Spencer ------------------------------------------------


def test_multi_index_counts():
    for n in (1, 2, 3):
        for d in (0, 1, 2, 3):
            assert len(multi_indices(n, d)) == comb(n + d - 1, d)


def test_dim_formulas():
    for n in (1, 2, 3):
        for m in (1, 2):
            for k in (1, 2, 3):
                sig = JetSignature(n, m, k)
                assert symbol_layer_dim(sig) == m * comb(n + k - 1, k)
                assert jet_dim(sig) == n + m * sum(
                    comb(n + d - 1, d) for d in range(k + 1))
                assert model_dim(sig) == n + m * comb(n + k - 1, k)
                assert lambda_dim(sig) == m * comb(n + k - 2, k - 1)


def test_delta_squared_vanishes():
    rng = Random(0)
    for n in (2, 3):
        for m in (1, 2):
            for degree in (2, 3):
                t = _rand_tensor(rng, n, m, degree)
                first = delta_spencer(t)
                for i, ti in first.items():
                    second = delta_spencer(ti)
                    for j, tij in second.items():
                        # mixed second polarizations commute, which is what
                        # makes the wedge-graded operator square to zero
                        assert tij == delta_spencer(first[j])[i]


def test_spencer_exactness_small_grid():
    for sig in ((1, 1, 2), (2, 1, 2), (1, 1, 3), (2, 2, 2)):
        audit = spencer_sequence_audit(JetSignature(*sig))
        assert audit["exact"], audit


def _add_e(alpha, i):
    return alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]


def _ref_spencer_matrix(n, m, p, deg):
    """delta on Lambda^p x S^deg by search: for each source (w, a, j) and
    each i outside w, the target monomial beta with beta + e_i = a."""
    src_w = list(combinations(range(n), p))
    dst_w = list(combinations(range(n), p + 1))
    src_a, dst_a = multi_indices(n, deg), multi_indices(n, deg - 1)
    src_idx = {key: t for t, key in enumerate(
        (w, a, j) for w in src_w for a in src_a for j in range(m))}
    dst_idx = {key: t for t, key in enumerate(
        (w, a, j) for w in dst_w for a in dst_a for j in range(m))}
    rows = [[0] * len(src_idx) for _ in range(len(dst_idx))]
    for (w, a, j), col in src_idx.items():
        for i in range(n):
            if i in w:
                continue
            nw = tuple(sorted(w + (i,)))
            sign = (-1) ** sum(1 for x in w if x < i)
            for beta in dst_a:
                if _add_e(beta, i) == a:
                    rows[dst_idx[(nw, beta, j)]][col] += sign * (beta[i] + 1)
    if rows and rows[0]:
        return Matrix.exact(rows)
    return Matrix.zeros(len(dst_idx), len(src_idx))


def test_spencer_matrix_matches_search_reference():
    # every map the audit builds for n <= 4, m <= 3, k <= 4
    cases = 0
    for n in range(1, 5):
        for m in range(1, 4):
            for k in range(1, 5):
                for p in range(min(n, k)):
                    # value equality: every field, num and den included
                    assert _spencer_matrix(n, m, p, k - p) == \
                        _ref_spencer_matrix(n, m, p, k - p)
                    cases += 1
    assert cases == 90


def test_spencer_audit_reports_node_data():
    audit = spencer_sequence_audit(JetSignature(2, 1, 2))
    assert audit["node_dims"][0] == 3
    assert len(audit["map_ranks"]) == len(audit["node_dims"]) - 1
    assert all(audit["node_exact"])


# -- metasymplectic pairing -------------------------------------------------------


def test_pairing_antisymmetric_bilinear():
    sig = JetSignature(2, 1, 2)
    rng = Random(1)
    lams = lambda_basis(sig)
    dim = model_dim(sig)

    def rand_vec():
        return unflatten(sig, [F(rng.randint(-3, 3)) for _ in range(dim)])

    for _ in range(15):
        u, v, w = rand_vec(), rand_vec(), rand_vec()
        for lam in lams:
            assert metasymplectic_eval(lam, u, v) == \
                -metasymplectic_eval(lam, v, u)
            assert metasymplectic_eval(lam, u, u) == 0
        vw = unflatten(sig, [a + b for a, b in zip(flatten(v), flatten(w))])
        for lam in lams:
            assert metasymplectic_eval(lam, u, vw) == \
                metasymplectic_eval(lam, u, v) + metasymplectic_eval(lam, u, w)


def test_pairing_rejects_signature_mismatch():
    sig = JetSignature(2, 1, 2)
    v1 = vectors_from_matrix(sig, Matrix.identity(model_dim(sig)))[0]
    lam = lambda_basis(JetSignature(1, 1, 2))[0]
    with pytest.raises(ValueError):
        metasymplectic_eval(lam, v1, v1)


def test_orthogonal_galois_facts_general_fiber():
    # multi-lambda fibers: only the Galois-connection laws are theorems
    rng = Random(2)
    for s in ((2, 1, 2), (1, 2, 2), (2, 2, 2)):
        sig = JetSignature(*s)
        dim = model_dim(sig)
        for _ in range(10):
            cols = rng.randint(1, dim - 1)
            p1 = _rand_frame(rng, dim, cols)
            p2 = _rand_frame(rng, dim, rng.randint(1, dim - 1))
            o1 = meta_orthogonal_frame(sig, p1)
            o2 = meta_orthogonal_frame(sig, p2)
            # (b) holds by definition
            assert spans_equal(intersect_frames(o1, o2),
                               meta_orthogonal_frame(sig, Matrix.hstack(p1, p2)))
            # containment half of (a)
            back = meta_orthogonal_frame(sig, o1)
            assert span_contains(back, p1)
            # triple perp collapses
            assert spans_equal(meta_orthogonal_frame(sig, back), o1)


def _rand_frame(rng, dim, cols):
    while True:
        m = Matrix.exact([[F(rng.randint(-2, 2)) for _ in range(cols)]
                          for _ in range(dim)])
        if rank(m) == cols:
            return m


def test_orthogonal_law_a_fails_in_multi_lambda_fiber():
    # frozen witness: a 2-plane whose double orthogonal is strictly larger
    sig = JetSignature(2, 1, 2)
    p = Matrix.exact([[1, 1], [-2, 0], [2, 1], [1, 0], [1, 0]])
    perp = meta_orthogonal_frame(sig, p)
    back = meta_orthogonal_frame(sig, perp)
    assert perp.cols == 1
    assert back.cols == 3
    assert span_contains(back, p)
    assert not spans_equal(back, p)


def test_orthogonal_laws_hold_in_single_lambda_fibers():
    rng = Random(3)
    for s in ((2, 1, 1), (3, 1, 1), (1, 1, 2), (1, 1, 3)):
        sig = JetSignature(*s)
        assert lambda_dim(sig) == 1
        dim = model_dim(sig)
        for _ in range(8):
            p1 = _rand_frame(rng, dim, rng.randint(1, dim - 1))
            p2 = _rand_frame(rng, dim, rng.randint(1, dim - 1))
            o1 = meta_orthogonal_frame(sig, p1)
            o2 = meta_orthogonal_frame(sig, p2)
            assert spans_equal(meta_orthogonal_frame(sig, o1), p1)
            assert spans_equal(intersect_frames(o1, o2),
                               meta_orthogonal_frame(sig, Matrix.hstack(p1, p2)))
            assert spans_equal(meta_orthogonal_frame(sig,
                                                     intersect_frames(p1, p2)),
                               Matrix.hstack(o1, o2))


def test_meta_orthogonal_vector_interface():
    sig = JetSignature(2, 1, 1)
    basis = vectors_from_matrix(sig, Matrix.identity(model_dim(sig)))
    out = meta_orthogonal(sig, [basis[0]])
    assert len(out) == model_dim(sig) - 1


# Reference: the pairing as written in the docstring, on dict-keyed tensors.
# Coordinates (alpha, j) run over multi_indices(n, k) x range(m) and the
# lambda slots (beta, j) over multi_indices(n, k - 1) x range(m).


def _ref_theta(sig, coords):
    keys = [(a, j) for a in multi_indices(sig.n, sig.k) for j in range(sig.m)]
    return dict(zip(keys, coords[sig.n:]))


def _ref_interior_delta(sig, x, theta):
    """X . delta(theta): entries sum_i X_i (beta_i + 1) theta[beta + e_i, j]."""
    out = {}
    for beta in multi_indices(sig.n, sig.k - 1):
        for j in range(sig.m):
            tot = F(0)
            for i in range(sig.n):
                src = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                tot += x[i] * (beta[i] + 1) * theta[(src, j)]
            out[(beta, j)] = tot
    return out


def _ref_eval(sig, key, c1, c2):
    """Omega(lambda)(z1, z2) for the unit slot lambda = (beta, j) = key."""
    s12 = _ref_interior_delta(sig, c1[:sig.n], _ref_theta(sig, c2))
    s21 = _ref_interior_delta(sig, c2[:sig.n], _ref_theta(sig, c1))
    return s12[key] - s21[key]


def _ref_orthogonal_frame(sig, frame):
    """Kernel of the rows Omega(lambda)(e_t, v) over unit vectors e_t."""
    dim = model_dim(sig)
    keys = [(b, j) for b in multi_indices(sig.n, sig.k - 1) for j in range(sig.m)]
    basis = [[F(int(s == t)) for s in range(dim)] for t in range(dim)]
    rows = [[_ref_eval(sig, key, e, frame.col(c)) for e in basis]
            for key in keys for c in range(frame.cols)]
    return kernel_basis(Matrix.exact(rows))


ORACLE_SIGNATURES = ((3, 1, 2), (2, 2, 2), (2, 1, 3), (3, 2, 2), (2, 2, 3),
                     (3, 1, 3), (3, 2, 3))


def _oracle_pairs(rng, sig):
    """Coordinate pairs of every shape the pairing branches on: general,
    denominators in both, horizontal or vertical only, zero."""
    dim, n = model_dim(sig), sig.n

    def rand(den):
        return [F(rng.randint(-3, 3), rng.randint(1, den)) for _ in range(dim)]

    def horizontal(c):
        return c[:n] + [F(0)] * (dim - n)

    def vertical(c):
        return [F(0)] * n + c[n:]

    a, b = rand(2), rand(1)
    c, d = rand(3), rand(4)
    return [(a, b), (c, d), (horizontal(c), vertical(d)),
            (vertical(c), horizontal(d)), (horizontal(c), horizontal(d)),
            (vertical(c), vertical(d)), (horizontal(a), d), (a, vertical(d)),
            ([F(0)] * dim, c)]


def _ref_eval_slot(sig, coeffs, c1, c2):
    """Omega(lambda)(z1, z2) for lambda = sum of coeffs times the unit slots."""
    keys = [(b, j) for b in multi_indices(sig.n, sig.k - 1) for j in range(sig.m)]
    s12 = _ref_interior_delta(sig, c1[:sig.n], _ref_theta(sig, c2))
    s21 = _ref_interior_delta(sig, c2[:sig.n], _ref_theta(sig, c1))
    return sum((lv * (s12[key] - s21[key]) for lv, key in zip(coeffs, keys)), F(0))


def test_pairing_matches_dict_reference():
    rng = Random(7)
    for s in ORACLE_SIGNATURES:
        sig = JetSignature(*s)
        dim = model_dim(sig)
        keys = [(b, j) for b in multi_indices(sig.n, sig.k - 1)
                for j in range(sig.m)]
        lams = lambda_basis(sig)
        assert len(lams) == len(keys) == lambda_dim(sig)
        for _ in range(4):
            c1 = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)]
            c2 = [F(rng.randint(-3, 3)) for _ in range(dim)]
            z1, z2 = unflatten(sig, c1), unflatten(sig, c2)
            assert flatten(z1) == c1
            for lam, key in zip(lams, keys):
                assert metasymplectic_eval(lam, z1, z2) == \
                    _ref_eval(sig, key, c1, c2)
        # unit, rational, zero and one-entry slots on every shape of pair
        ld = len(keys)
        slots = [lam.coeffs for lam in lams]
        slots += [tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(ld))
                  for _ in range(3)]
        slots += [(F(0),) * ld, (F(0),) * (ld - 1) + (F(-7, 3),)]
        for c1, c2 in _oracle_pairs(rng, sig):
            z1, z2 = unflatten(sig, c1), unflatten(sig, c2)
            for coeffs in slots:
                got = metasymplectic_eval(CovectorSlot(sig, coeffs), z1, z2)
                assert type(got) is F
                assert got == _ref_eval_slot(sig, coeffs, c1, c2)


def test_pairing_on_int_entries():
    # vectors and slots built directly, with plain ints and no Fraction
    rng = Random(10)
    for s in ORACLE_SIGNATURES:
        sig = JetSignature(*s)
        n, dim, ld = sig.n, model_dim(sig), lambda_dim(sig)
        for _ in range(4):
            c1 = [rng.randint(-3, 3) for _ in range(dim)]
            c2 = [rng.randint(-3, 3) for _ in range(dim)]
            coeffs = tuple(rng.randint(-2, 2) for _ in range(ld))
            z1, z2 = (ModelVector(sig, tuple(c[:n]),
                                  SymTensor(sig.n, sig.m, sig.k, tuple(c[n:])))
                      for c in (c1, c2))
            got = metasymplectic_eval(CovectorSlot(sig, coeffs), z1, z2)
            assert type(got) is F
            assert got == _ref_eval_slot(sig, coeffs, [F(c) for c in c1],
                                         [F(c) for c in c2])


def test_pairing_caches_leave_fields_equality_and_hash_alone():
    sig = JetSignature(2, 2, 2)
    dim = model_dim(sig)
    coords = [F(i - 3, 1 + i % 3) for i in range(dim)]
    coeffs = (F(1, 2), F(0), F(-3), F(2, 5))
    z, w = unflatten(sig, coords), unflatten(sig, coords[::-1])
    lam = CovectorSlot(sig, coeffs)
    twins = (unflatten(sig, coords), CovectorSlot(sig, coeffs))
    before = [(list(o._fields), hash(o), repr(o)) for o in (z, lam)]
    assert metasymplectic_eval(lam, z, w) == _ref_eval_slot(sig, coeffs, coords,
                                                             coords[::-1])
    after = [(list(o._fields), hash(o), repr(o)) for o in (z, lam)]
    assert before == after
    assert (z, lam) == twins and hash((z, lam)) == hash(twins)


def test_slot_and_vector_lengths_are_checked():
    sig = JetSignature(2, 1, 2)
    assert lambda_dim(sig) == 2 and symbol_layer_dim(sig) == 3
    for count in (0, 1, 3, 4):
        with pytest.raises(ValueError):
            CovectorSlot(sig, (F(1),) * count)
    for count in (2, 4):
        with pytest.raises(ValueError):
            ModelVector(sig, (F(1), F(0)), SymTensor(2, 1, 2, (F(1),) * count))
    theta = SymTensor.zero(2, 1, 2)
    for x in ((F(1),), (F(1), F(0), F(0))):
        with pytest.raises(ValueError):
            ModelVector(sig, x, theta)
    # slot beta = (0, 1) meets X = e_0 at theta = x^(1, 1) with weight 1
    theta = SymTensor.unit(2, 1, (1, 1), 0)
    assert metasymplectic_eval(CovectorSlot(sig, (F(1), F(0))),
                               _model_vector(sig, [1, 0]),
                               _model_vector(sig, theta=theta)) == 1


MIS_SIZED = "^coefficient count does not match the tensor shape$"


@pytest.mark.parametrize("count", [0, 1, 2, 4])
def test_sym_tensor_refuses_mis_sized_coeffs(count):
    """S^2 of R^2 with one fiber slot has 3 coefficients; a short tuple
    used to truncate a sum silently and end delta in IndexError."""
    full = SymTensor(2, 1, 2, (1, 2, 3))
    coeffs = tuple(range(1, count + 1))
    with pytest.raises(ValueError, match=MIS_SIZED):
        SymTensor(2, 1, 2, coeffs) + full
    with pytest.raises(ValueError, match=MIS_SIZED):
        full + SymTensor(2, 1, 2, coeffs)
    with pytest.raises(ValueError, match=MIS_SIZED):
        SymTensor(2, 1, 2, coeffs).scale(2)
    with pytest.raises(ValueError, match=MIS_SIZED):
        delta_spencer(SymTensor(2, 1, 2, coeffs))


def test_sym_tensor_operations_keep_the_size():
    full = SymTensor(2, 1, 2, (1, 2, 3))
    assert (full + full).coeffs == (2, 4, 6)
    assert full.scale(2).coeffs == (2, 4, 6)
    # slot i carries (beta_i + 1) t[beta + e_i] over beta = (0, 1), (1, 0)
    assert {i: t.coeffs for i, t in delta_spencer(full).items()} == {
        0: (2, 6), 1: (2, 2)}
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        SymTensor(2, 1, -1, ())


def test_orthogonal_frame_matches_basis_vector_reference():
    rng = Random(8)
    for s in ORACLE_SIGNATURES:
        sig = JetSignature(*s)
        dim = model_dim(sig)
        for cols in (1, 2, 3):
            frame = Matrix.exact([[F(rng.randint(-2, 2), rng.randint(1, 3))
                                   for _ in range(cols)] for _ in range(dim)])
            got = meta_orthogonal_frame(sig, frame)
            assert got.entries == _ref_orthogonal_frame(sig, frame).entries


# -- isotropic planes -------------------------------------------------------------


def test_max_isotropic_dimension_formula():
    rng = Random(4)
    for s in ((2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3)):
        sig = JetSignature(*s)
        for p in range(sig.n + 1):
            xi = _rand_frame(rng, sig.n, p) if p else Matrix.zeros(sig.n, 0)
            plane = max_isotropic(sig, xi)
            assert plane.dim == sig.m * comb(p + sig.k - 1, sig.k) + sig.n - p


def test_max_isotropic_is_isotropic():
    rng = Random(5)
    sig = JetSignature(2, 1, 2)
    for p in range(3):
        xi = _rand_frame(rng, 2, p) if p else Matrix.zeros(2, 0)
        plane = max_isotropic(sig, xi)
        vecs = plane.vectors()
        for lam in lambda_basis(sig):
            for i, v in enumerate(vecs):
                for w in vecs[i:]:
                    assert metasymplectic_eval(lam, v, w) == 0


def test_full_vertical_plane_is_self_dual():
    # p = n: the plane equals its own metasymplectic orthogonal
    sig = JetSignature(2, 1, 2)
    rng = Random(6)
    xi = _rand_frame(rng, 2, 2)
    plane = max_isotropic(sig, xi)
    frame = span_matrix(plane.vectors())
    assert spans_equal(meta_orthogonal_frame(sig, frame), frame)


def _ref_power_basis(sig, xi):
    """S^k(Xi) tensor nu: products of k columns of xi expanded as dicts of
    Fractions, one tensor per product and fiber slot."""
    n, m, k = sig.n, sig.m, sig.k
    out = []
    cols = [xi.col(j) for j in range(xi.cols)]
    for combo in combinations_with_replacement(range(len(cols)), k):
        poly = {(0,) * n: F(1)}
        for idx in combo:
            nxt = {}
            for alpha, cv in poly.items():
                for i in range(n):
                    if cols[idx][i]:
                        na = _add_e(alpha, i)
                        nxt[na] = nxt.get(na, F(0)) + cv * cols[idx][i]
            poly = nxt
        for j in range(m):
            out.append(SymTensor(n, m, k, tuple(
                poly.get(a, F(0)) if jj == j else F(0)
                for a in multi_indices(n, k) for jj in range(m))))
    return out


def test_max_isotropic_matches_fraction_reference_on_rational_xi():
    """Plane vectors equal Ann(Xi) then S^k(Xi) x nu built on Fractions.
    Rational Xi, so the one division by den(Xi)^k is checked."""
    rng = Random("jets:rational-xi")
    for s in ((1, 1, 2), (2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3),
              (3, 2, 2), (3, 1, 3)):
        sig = JetSignature(*s)
        for p in range(sig.n + 1):
            while True:
                xi = Matrix.exact([[F(rng.randint(-4, 4), rng.randint(1, 5))
                                    for _ in range(p)] for _ in range(sig.n)])
                if rank(xi) == p and (p == 0 or xi.den > 1):
                    break
            ann = kernel_basis(xi.T)
            want = [_model_vector(sig, ann.col(j)) for j in range(ann.cols)]
            want += [_model_vector(sig, theta=th)
                     for th in _ref_power_basis(sig, xi)]
            plane = max_isotropic(sig, xi)
            assert plane.vectors() == want
            assert plane.dim == len(want) == rank(span_matrix(want))


def test_max_isotropic_rejects_bad_xi():
    sig = JetSignature(2, 1, 2)
    dependent = "^covector frame must have independent columns$"
    with pytest.raises(ValueError, match=dependent):
        max_isotropic(sig, Matrix.exact([[1, 2], [2, 4]]))   # rank 1, p = 2
    with pytest.raises(ValueError, match=dependent):
        max_isotropic(sig, Matrix.exact([[1, 0, 1], [0, 1, 1]]))   # p = 3 > n
    with pytest.raises(ValueError, match="^covector frame must have n rows$"):
        max_isotropic(sig, Matrix.exact([[1], [0], [0]]))    # wrong row count


def test_vectors_from_matrix_refuses_approx_matrices():
    sig = JetSignature(2, 1, 1)
    with pytest.raises(ValueError, match="^model vectors are exact-mode only$"):
        vectors_from_matrix(sig, np.array([[1.0], [0.5], [0.25], [1.0]]))


def test_plane_vectors_integer_views_match_fresh_vectors():
    """Every plane over n <= 3, m <= 2, k <= 3 and every p: the pairing on
    ``plane.vectors()``, which carry the frame's integer columns as their
    views, equals the pairing on fresh copies that compute their own, for
    every unit slot and every pair.  Vectors of a rational frame off the
    plane join the pairs, so nonzero values are compared too.  The full
    frame's rank equals the dimension formula that the block audit
    checks."""
    rng = Random("jets:integer-views")
    nonzero = 0
    for n in (1, 2, 3):
        for m in (1, 2):
            for k in (1, 2, 3):
                sig = JetSignature(n, m, k)
                lams = lambda_basis(sig)
                off = Matrix.exact([[F(rng.randint(-3, 3), rng.randint(1, 4))
                                     for _ in range(2)]
                                    for _ in range(model_dim(sig))])
                for p in range(n + 1):
                    xi = _rand_frame(rng, n, p) if p else Matrix.zeros(n, 0)
                    plane = max_isotropic(sig, xi)
                    assert rank(plane.frame) == plane.dim == \
                        m * comb(p + k - 1, k) + n - p
                    vecs = plane.vectors() + vectors_from_matrix(sig, off)
                    fresh = [unflatten(sig, flatten(v)) for v in vecs]
                    assert fresh == vecs
                    for lam in lams:
                        for i in range(len(vecs)):
                            for j in range(i, len(vecs)):
                                got = metasymplectic_eval(lam, vecs[i], vecs[j])
                                assert got == metasymplectic_eval(
                                    lam, fresh[i], fresh[j])
                                nonzero += got != 0
    assert nonzero


def test_singularity_condition():
    # m C(p+k-1, k) >= n marks the singular range of the projection
    assert singularity_condition(JetSignature(2, 1, 2), 2)
    assert not singularity_condition(JetSignature(3, 1, 2), 1)
    assert singularity_condition(JetSignature(3, 3, 2), 1)


# -- PDE dimension audits ---------------------------------------------------------


def test_lagrangian_audit_closed_forms():
    rep = lagrangian_pde_dims(2, seed=0)
    assert rep["dim_system"] == 7
    assert rep["dim_prolongation"] == 11
    assert rep["dim_prolongation_fiber"] == 4
    assert rep["dim_system"] + rep["dim_prolongation_fiber"] == \
        rep["dim_prolongation"]
    assert rep["sum_identity_ok"] and rep["verified"]


def test_lagrangian_audit_formulas_hold_up_to_n3():
    for n in (1, 2, 3):
        rep = lagrangian_pde_dims(n, seed=3)
        assert rep["dim_system"] == 2 * n + n * n - n * (n - 1) // 2
        assert rep["dim_prolongation_fiber"] == n * n
        assert rep["fiber_kernel_pointwise"] == comb(n + 2, 3)
        assert rep["base_compatibility_count"] == comb(n, 3)
        assert rep["verified"]


def test_lagrangian_audit_seed_stable():
    for seed in (0, 1, 2, 3, 4):
        rep = lagrangian_pde_dims(2, seed=seed)
        assert rep["verified"]
        assert rep["dim_prolongation"] == 11


def test_legendrian_audit_closed_forms():
    rep = legendrian_pde_dims(2, seed=0)
    assert rep["dim_system"] == 9
    assert rep["dim_prolongation"] == 15
    assert rep["dim_symbol_prolongation"] == 6
    assert rep["dim_prolongation_strict"] == \
        rep["dim_prolongation"] - rep["hidden_order1_constraints"]
    assert rep["verified"] and rep["cascade_sum_ok"]


def test_legendrian_cascade_table():
    for n in (1, 2, 3, 4):
        rep = legendrian_pde_dims(n, seed=1)
        table = rep["involutivity_table"]
        assert {int(k): v for k, v in table.items()} == \
            {i: n * n - i * n for i in range(n)}
        assert sum(table.values()) == n * n * (n + 1) // 2
        assert rep["cascade_sum_ok"]


def test_legendrian_symbol_kernel_is_the_y_slots():
    """g1 = [I; 0]: the symbol is the Y slots, and the cascade ranks only
    the Y columns of its apply matrix on that fact."""
    for n in range(1, 7):
        g1 = pde_audit._symbol_kernel(n)
        assert g1 == Matrix.identity(n * n).vstack(Matrix.zeros(n, n * n))


def test_audits_reject_bad_n():
    with pytest.raises(ValueError):
        lagrangian_pde_dims(0)
    for n in (8, 9, 40):  # verified cannot hold there; refused before any rank
        with pytest.raises(ValueError, match="n must be at most 7"):
            lagrangian_pde_dims(n)
    with pytest.raises(ValueError):
        legendrian_pde_dims(-1)


def test_legendrian_audit_size_guard(monkeypatch):
    """dim J^2 = (2n + 1) + (n^2 + n) + (n + 1) n (n + 1) / 2 is 4871 at
    n = 20, under ``SIZE_GUARD`` = 5000, and 5506 at n = 21: n = 20 reaches
    the matrix builder (a stub here, so no rank runs), n = 21 and n = 40 are
    refused before it."""
    built = []

    def stub(n):
        built.append(n)
        raise RuntimeError("matrix builder reached")

    monkeypatch.setattr(pde_audit, "_legendrian_matrices", stub)
    with pytest.raises(RuntimeError, match="^matrix builder reached$"):
        legendrian_pde_dims(20)
    for n in (21, 40):
        with pytest.raises(ValueError, match="^model size exceeds the desk-scale guard$"):
            legendrian_pde_dims(n)
    assert built == [20]
