"""Built-in invariant suites with fixed seeds and deterministic reports.

Each suite exercises one structural identity end to end on freshly drawn
random instances.  The identities themselves are the oracles, so a pass
is meaningful for any seed; the per-suite generators are seeded from the
top-level seed by suite name, which keeps reports byte-identical for
identical (seed, quick) inputs.  Details deliberately carry integers
only, never timings.

Every suite is a generator that takes its counts and instance lists as
keyword parameters, yields once per case (a falsy value when the case
passes, the failure detail when it fails) and returns its closing detail.
``_run_suite`` alone turns a suite into ``{"cases", "passed", "detail"}``:
it stops at the first failing case, and ``cases`` is then that case's
0-based index, so the seed, the suite name and ``cases`` replay it.
``_SUITES`` holds the quick and full parameters, and the acceptance tests
run the same suites at their own through ``_run_suite``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from random import Random

from .bordism import split_check, weak_bordism_group
from .jets import (JetSignature, lagrangian_pde_dims, legendrian_pde_dims,
                   max_isotropic, metasymplectic_eval, lambda_basis,
                   spencer_sequence_audit)
from .jets.metasymplectic import meta_orthogonal_frame, model_dim
from .linalg import Matrix, _rand_full_rank, spans_equal
from .maslov import (LerayLift, arnold_triple_lines, kashiwara_index,
                     leray_cyclic_sum, wall_invariant)
from .metaplectic import (Mp1Context, mp1_identity, mp1_inverse, mp1_mul,
                          random_mp1)
from .scan import SampledImmersion, check_lagrangian, corank_profile, loop_maslov
from .symplectic import (LagrangianFrame, SymplecticSpace, intersect_frames,
                         lagrangian_from_angles, line_lagrangian, loop_degree,
                         random_lagrangian, random_symplectic)
from .witt import ideal_power_member_real, witt_of_form_real


def _suite_rng(seed: int, name: str) -> Random:
    # string seeding hashes the bytes, so this is process-independent
    return Random(f"{seed}:{name}")


def _rand_line_dir(rng: Random) -> tuple:
    while True:
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        if p or q:
            return Fraction(p), Fraction(q)


def _suite_kashiwara_cocycle(rng: Random, per_dim: int):
    for n in (1, 2, 3):
        sp = SymplecticSpace.standard(n)
        for _ in range(per_dim):
            ls = [random_lagrangian(sp, rng) for _ in range(4)]
            s = (kashiwara_index(ls[1:])
                 - kashiwara_index([ls[0], ls[2], ls[3]])
                 + kashiwara_index([ls[0], ls[1], ls[3]])
                 - kashiwara_index(ls[:3]))
            yield s != 0 and f"cocycle defect {s} in dim {2 * n}"
    return "alternating sum zero"


def _suite_wall_kashiwara(rng: Random, per_dim: int):
    for n in (1, 2, 3):
        sp = SymplecticSpace.standard(n)
        for _ in range(per_dim):
            l1, l2, l3 = (random_lagrangian(sp, rng) for _ in range(3))
            w = wall_invariant(l1, l2, l3)
            t = kashiwara_index([l1, l2, l3])
            yield w != t and f"wall {w} vs kashiwara {t} in dim {2 * n}"
    return "invariants agree"


def _suite_arnold_kashiwara(rng: Random, total: int):
    sp = SymplecticSpace.standard(1)
    for _ in range(total):
        ds = [_rand_line_dir(rng) for _ in range(3)]
        a = arnold_triple_lines(*ds)
        t = kashiwara_index([line_lagrangian(sp, d) for d in ds])
        yield a != t and f"arnold {a} vs kashiwara {t}"
    return "line triples agree"


def _suite_transvection_invariance(rng: Random, tuples: int, moves: int,
                                   dims=(1, 2)):
    for n in dims:
        sp = SymplecticSpace.standard(n)
        for _ in range(tuples):
            ls = [random_lagrangian(sp, rng) for _ in range(rng.randint(3, 5))]
            t0 = kashiwara_index(ls)
            for _ in range(moves):
                g = random_symplectic(sp, rng)
                t1 = kashiwara_index([LagrangianFrame(sp, g @ l.frame) for l in ls])
                yield t1 != t0 and f"index moved {t0} -> {t1}"
    return "index is invariant"


def _suite_leray_sum(rng: Random, total: int):
    sp = SymplecticSpace.standard(1)
    for _ in range(total):
        r = rng.randint(3, 6)
        lifts = [LerayLift.from_direction(*_rand_line_dir(rng), rng.randint(-2, 2))
                 for _ in range(r)]
        s = leray_cyclic_sum(lifts)
        t = kashiwara_index([lf.line(sp) for lf in lifts])
        yield s != t and f"cyclic sum {s} vs index {t} at r={r}"
    return "lift sums match indices"


def _suite_mp1_associativity(rng: Random, per_ctx: int):
    for n in (1, 2):
        ctx = Mp1Context.standard(n)
        identity = mp1_identity(ctx)
        for _ in range(per_ctx):
            a, b, c = (random_mp1(ctx, rng) for _ in range(3))
            # one case per triple: associativity, then the inverse of a
            yield (mp1_mul(mp1_mul(a, b), c) != mp1_mul(a, mp1_mul(b, c))
                   and f"associativity failed in Sp({n})"
                   or mp1_mul(a, mp1_inverse(a)) != identity
                   and f"inverse failed in Sp({n})")
    return "group laws hold"


def _suite_loop_degree(rng: Random):
    sp = SymplecticSpace.standard(1)
    m = 64
    path1 = [lagrangian_from_angles(sp, [(math.pi * i / m) % math.pi])
             for i in range(m + 1)]
    path2 = [lagrangian_from_angles(sp, [(2 * math.pi * i / m) % math.pi])
             for i in range(m + 1)]
    d1, d2 = loop_degree(path1), loop_degree(path2)
    detail = f"degrees {d1}, {d2}"
    yield d1 != 1 and detail
    yield d2 != 2 and detail
    return detail


def _suite_spencer_exact(rng: Random, sigs):
    for s in sigs:
        audit = spencer_sequence_audit(JetSignature(*s))
        yield not audit["exact"] and f"sequence not exact at {s}"
    return "all sequences exact"


def _suite_pde_dims(rng: Random, ns):
    # two cases per n, the Lagrangian audit and then the Legendrian one,
    # each failing on its audit or else on its closed-form anchor at n = 2
    for n in ns:
        seed = rng.randint(0, 10 ** 6)
        lag = lagrangian_pde_dims(n, seed=seed)
        yield (not lag["verified"] and f"dimension audit failed at n={n}"
               or n == 2 and (lag["dim_system"], lag["dim_prolongation"],
                              lag["dim_prolongation_fiber"]) != (7, 11, 4)
               and "closed-form anchor failed at n=2")
        leg = legendrian_pde_dims(n, seed=seed)
        yield (not (leg["verified"] and leg["cascade_sum_ok"])
               and f"dimension audit failed at n={n}"
               or n == 2 and (leg["dim_system"], leg["dim_prolongation"],
                              leg["dim_symbol_prolongation"]) != (9, 15, 6)
               and "contact anchor failed at n=2")
    return "audits verified"


def _suite_max_isotropic(rng: Random, sigs):
    for s in sigs:
        sig = JetSignature(*s)
        lams = lambda_basis(sig)
        for p in range(sig.n + 1):
            xi = _rand_full_rank(rng, sig.n, p) if p else Matrix.zeros(sig.n, 0)
            plane = max_isotropic(sig, xi)
            want = sig.m * comb(p + sig.k - 1, sig.k) + sig.n - p
            # one case per p: the dimension, then isotropy on every pair
            if plane.dim != want:
                yield f"dim {plane.dim} != {want} at {s}, p={p}"
                continue
            vecs = plane.vectors()
            yield (any(metasymplectic_eval(lam, v, w) != 0 for lam in lams
                       for i, v in enumerate(vecs) for w in vecs[i:])
                   and f"isotropy failed at {s}, p={p}")
    return "dimensions and isotropy"


def _rand_span(rng: Random, sig: JetSignature) -> Matrix:
    dim = model_dim(sig)
    cols = rng.randint(1, max(1, dim - 1))
    return _rand_full_rank(rng, dim, cols)


def _suite_orthogonal_laws(rng: Random, sigs, pairs: int):
    for s in sigs:
        sig = JetSignature(*s)
        for _ in range(pairs):
            p1, p2 = _rand_span(rng, sig), _rand_span(rng, sig)
            o1 = meta_orthogonal_frame(sig, p1)
            o2 = meta_orthogonal_frame(sig, p2)
            law_a = spans_equal(meta_orthogonal_frame(sig, o1), p1)
            law_b = spans_equal(intersect_frames(o1, o2),
                                meta_orthogonal_frame(sig, Matrix.hstack(p1, p2)))
            law_c = spans_equal(
                meta_orthogonal_frame(sig, intersect_frames(p1, p2)),
                Matrix.hstack(o1, o2))
            yield (not (law_a and law_b and law_c)
                   and f"law failed at {s}: a={law_a} b={law_b} c={law_c}")
    return "duality laws hold"


def _suite_witt_ring(rng: Random, total: int):
    for _ in range(total):
        diag1 = [rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 4))]
        diag2 = [rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 4))]
        w1 = witt_of_form_real(Matrix.diagonal(diag1))
        w2 = witt_of_form_real(Matrix.diagonal(diag2))
        w12 = witt_of_form_real(Matrix.diagonal(diag1 + diag2))
        # one case per pair: additivity, then the filtration of w1
        yield (w12 != w1 + w2 and "additivity failed"
               or next((f"ideal filtration failed at k={k}" for k in range(4)
                        if ideal_power_member_real(w1, k) != (w1 % 2 ** k == 0)),
                       None))
    return "ring laws hold"


def _suite_bordism_table(rng: Random, reps: int):
    for n, r in {1: 1, 2: 0, 3: 1, 4: 0}.items():
        got = weak_bordism_group([1], n)["rank"]
        yield got != r and f"contractible rank {got} != {r} at n={n}"
    for _ in range(reps):
        n = rng.randint(1, 4)
        b1 = [rng.randint(0, 3) for _ in range(n)]
        b2 = [rng.randint(0, 3) for _ in range(n)]
        lhs = weak_bordism_group([a + b for a, b in zip(b1, b2)], n)["rank"]
        rhs = (weak_bordism_group(b1, n)["rank"]
               + weak_bordism_group(b2, n)["rank"])
        yield lhs != rhs and "betti additivity failed"
    for args, want in (((0, 5, 5), True), ((2, 7, 5), True), ((1, 5, 5), False)):
        yield split_check(*args) != want and f"split check {args} is not {want}"
    return "table and additivity"


def _suite_scan_circle(rng: Random):
    sp = SymplecticSpace.standard(1)
    m = 64
    ts = [2 * math.pi * i / m for i in range(m)]
    circle = SampledImmersion(
        param_dim=1, ambient_dim=2, topology="loop",
        params=[(t,) for t in ts],
        points=[(math.cos(t), math.sin(t)) for t in ts])
    lag = check_lagrangian(circle, sp, tol=1e-6)
    yield not lag["pass"] and "circle not Lagrangian"
    deg = loop_maslov(circle, sp, tol=1e-6)
    yield deg != 2 and f"circle degree {deg} != 2"
    ts8 = [2 * math.pi * i / 8 for i in range(8)]
    analytic = SampledImmersion(
        param_dim=1, ambient_dim=2, topology="loop",
        params=[(t,) for t in ts8],
        points=[(math.cos(t), math.sin(t)) for t in ts8],
        frames=[[[-math.sin(t)], [math.cos(t)]] for t in ts8])
    strata = corank_profile(analytic, tol=1e-6)["strata"]
    yield strata != {"0": [0, 4]} and f"analytic strata {sorted(strata)}"
    graph = SampledImmersion(
        param_dim=1, ambient_dim=2, topology="line",
        params=[(i / 7.0,) for i in range(8)],
        points=[(i / 7.0, (i / 7.0) ** 2) for i in range(8)])
    yield any(corank_profile(graph, tol=1e-6)["coranks"]) and "graph has corank"
    return f"degree {deg}, strata {sorted(strata)}"


def _run_suite(suite, rng: Random, **params) -> dict:
    """Run one suite to its end or to its first failing case; ``cases`` is
    then the number of cases run, or the 0-based index of the failing one."""
    cases, index = suite(rng, **params), 0
    try:
        while not (failure := next(cases)):
            index += 1
    except StopIteration as done:
        return {"cases": index, "passed": True, "detail": done.value}
    return {"cases": index, "passed": False, "detail": failure}


# name -> (suite, quick parameters, full parameters), in report order
_SUITES = {
    "kashiwara_cocycle": (_suite_kashiwara_cocycle,
                          {"per_dim": 8}, {"per_dim": 40}),
    "wall_kashiwara": (_suite_wall_kashiwara, {"per_dim": 8}, {"per_dim": 30}),
    "arnold_kashiwara": (_suite_arnold_kashiwara, {"total": 10}, {"total": 40}),
    "transvection_invariance": (_suite_transvection_invariance,
                                {"tuples": 3, "moves": 3},
                                {"tuples": 6, "moves": 8}),
    "leray_sum": (_suite_leray_sum, {"total": 12}, {"total": 50}),
    "mp1_associativity": (_suite_mp1_associativity,
                          {"per_ctx": 5}, {"per_ctx": 15}),
    "loop_degree": (_suite_loop_degree, {}, {}),
    "spencer_exact": (_suite_spencer_exact,
                      {"sigs": [(2, 1, 2), (1, 1, 3)]},
                      {"sigs": [(1, 1, 2), (2, 1, 2), (1, 1, 3), (3, 1, 2),
                                (2, 2, 2)]}),
    "pde_dims": (_suite_pde_dims, {"ns": (2,)}, {"ns": (2, 3)}),
    "max_isotropic": (_suite_max_isotropic,
                      {"sigs": [(2, 1, 2)]},
                      {"sigs": [(2, 1, 2), (2, 2, 2), (3, 1, 2)]}),
    "orthogonal_laws": (_suite_orthogonal_laws,
                        {"sigs": [(2, 1, 1), (1, 1, 2)], "pairs": 4},
                        {"sigs": [(2, 1, 1), (3, 1, 1), (1, 1, 2), (1, 1, 3)],
                         "pairs": 10}),
    "witt_ring": (_suite_witt_ring, {"total": 8}, {"total": 25}),
    "bordism_table": (_suite_bordism_table, {"reps": 5}, {"reps": 20}),
    "scan_circle": (_suite_scan_circle, {}, {}),
}


def run_selftest(seed: int = 0, quick: bool = False) -> dict:
    """Run every suite; the report is a plain dict, stable under repetition."""
    suites = [{"name": name, **_run_suite(fn, _suite_rng(seed, name),
                                          **(fast if quick else full))}
              for name, (fn, fast, full) in _SUITES.items()]
    failures = [s["name"] for s in suites if not s["passed"]]
    return {
        "seed": seed,
        "quick": quick,
        "suites": suites,
        "failures": failures,
        "all_passed": not failures,
    }
