"""Acceptance gate: sixteen end-to-end criteria, one test and one printed
pass/fail line each (run with -s to see the lines).

Each criterion states its own sample counts, tolerances, and, where
bounded, wall-clock limits; randomized criteria use process-independent
string seeds so reruns are identical.  Criteria that share a workload with
a selftest suite run that suite on their own seed and counts.
"""

import math
import time
from random import Random

from symgeo.bordism import weak_bordism_group
from symgeo.jets import (JetSignature, lagrangian_pde_dims, lambda_dim,
                         legendrian_pde_dims)
from symgeo.jsonio import dumps
from symgeo.maslov import kashiwara_index
from symgeo.scan import SampledImmersion, check_lagrangian, corank_profile, \
    loop_maslov
from symgeo.selftest import (_suite_arnold_kashiwara,
                             _suite_kashiwara_cocycle, _suite_leray_sum,
                             _suite_loop_degree, _suite_max_isotropic,
                             _suite_mp1_associativity, _suite_orthogonal_laws,
                             _suite_spencer_exact,
                             _suite_transvection_invariance,
                             _suite_wall_kashiwara, _run_suite, run_selftest)
from symgeo.symplectic import SymplecticSpace, lagrangian_from_angles


def _report(num, name, ok, note=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({note})" if note else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{extra}")
    assert ok, f"criterion {num} ({name}) failed"


def _rng(num):
    return Random(f"acceptance:{num}")


def _timed_suite(num, suite, **params):
    """Run one selftest suite on criterion ``num``'s generator."""
    start = time.monotonic()
    out = _run_suite(suite, _rng(num), **params)
    return out, time.monotonic() - start


def test_criterion_01_triple_index_anchor():
    start = time.monotonic()
    sp = SymplecticSpace.standard(1)
    ls = [lagrangian_from_angles(sp, [a])
          for a in (0.0, math.pi / 3, 2 * math.pi / 3)]
    fwd = int(kashiwara_index(ls))
    rev = int(kashiwara_index(list(reversed(ls))))
    elapsed = time.monotonic() - start
    ok = fwd == 1 and rev == -1 and elapsed < 1.0
    _report(1, "triple index anchor", ok,
            f"forward {fwd}, reversed {rev}, {elapsed:.2f}s")


def test_criterion_02_cocycle_identity():
    out, elapsed = _timed_suite(2, _suite_kashiwara_cocycle, per_dim=350)
    ok = out["passed"] and out["cases"] >= 1000 and elapsed < 60.0
    _report(2, "cocycle identity", ok,
            f"{out['cases']} quadruples, {out['detail']}, {elapsed:.1f}s")


def test_criterion_03_wall_equals_kashiwara():
    out, elapsed = _timed_suite(3, _suite_wall_kashiwara, per_dim=170)
    ok = out["passed"] and out["cases"] >= 500 and elapsed < 60.0
    _report(3, "wall equals kashiwara", ok,
            f"{out['cases']} triples, {out['detail']}, {elapsed:.1f}s")


def test_criterion_04_arnold_equals_kashiwara():
    out, elapsed = _timed_suite(4, _suite_arnold_kashiwara, total=100)
    ok = out["passed"] and elapsed < 10.0
    _report(4, "arnold equals kashiwara", ok,
            f"{out['cases']} triples, {elapsed:.1f}s")


def test_criterion_05_symplectic_invariance():
    out, _ = _timed_suite(5, _suite_transvection_invariance, tuples=2,
                          moves=100, dims=(1, 2, 3))
    _report(5, "index invariance under transvection products", out["passed"],
            f"{out['cases']} transformed tuples")


def test_criterion_06_leray_lift_sums():
    out, _ = _timed_suite(6, _suite_leray_sum, total=10_000)
    _report(6, "leray lift sums", out["passed"],
            f"{out['cases']} lift tuples, r up to 6")


def test_criterion_07_mp1_associativity():
    out, _ = _timed_suite(7, _suite_mp1_associativity, per_ctx=250)
    ok = out["passed"] and out["cases"] >= 500
    _report(7, "metaplectic associativity", ok,
            f"{out['cases']} triples, {out['detail']}")


def test_criterion_08_loop_degree():
    out, _ = _timed_suite(8, _suite_loop_degree)
    _report(8, "loop degree", out["passed"], out["detail"])


def test_criterion_09_lagrangian_pde_dims():
    rep = lagrangian_pde_dims(2, seed=0)
    anchors = (rep["dim_system"], rep["dim_prolongation"],
               rep["dim_prolongation_fiber"]) == (7, 11, 4)
    sums = rep["dim_system"] + rep["dim_prolongation_fiber"] == \
        rep["dim_prolongation"]
    points = 0
    verified = True
    for n in (2, 3):
        for seed in range(10):
            verified = verified and lagrangian_pde_dims(n, seed=seed)["verified"]
            points += 1
    ok = anchors and sums and verified
    _report(9, "lagrangian pde dimensions", ok,
            f"anchor (7, 11, 4), {points} rank checks")


def test_criterion_10_legendrian_pde_dims():
    rep = legendrian_pde_dims(2, seed=0)
    anchors = (rep["dim_system"], rep["dim_prolongation"],
               rep["dim_symbol_prolongation"]) == (9, 15, 6)
    cascades = True
    for n in range(1, 6):
        r = legendrian_pde_dims(n, seed=0)
        cascades = cascades and r["verified"] and r["cascade_sum_ok"] and \
            sum(r["involutivity_table"].values()) == n * n * (n + 1) // 2
    ok = anchors and cascades
    _report(10, "legendrian pde dimensions", ok,
            "anchor (9, 15, 6), cascades n <= 5")


def test_criterion_11_max_isotropic_planes():
    sigs = [(n, m, k) for n in range(1, 5) for m in (1, 2) for k in (1, 2, 3)]
    out, _ = _timed_suite(11, _suite_max_isotropic, sigs=sigs)
    _report(11, "maximal isotropic planes", out["passed"],
            f"{out['cases']} planes, isotropy under every slot")


def test_criterion_12_orthogonal_duality_laws():
    sigs = [(2, 1, 1), (3, 1, 1), (1, 1, 2), (1, 1, 3)]
    assert all(lambda_dim(JetSignature(*s)) == 1 for s in sigs)
    out, _ = _timed_suite(12, _suite_orthogonal_laws, sigs=sigs, pairs=25)
    _report(12, "orthogonal duality laws", out["passed"],
            f"{out['cases']} subspace pairs")


def test_criterion_13_spencer_exactness():
    sigs = [(n, m, k) for n in (1, 2, 3) for m in (1, 2) for k in (1, 2, 3)]
    out, elapsed = _timed_suite(13, _suite_spencer_exact, sigs=sigs)
    ok = out["passed"] and elapsed < 120.0
    _report(13, "spencer exactness", ok,
            f"{out['cases']} signatures, {elapsed:.1f}s")


def test_criterion_14_contractible_bordism_ranks():
    got = tuple(weak_bordism_group([1], n)["rank"] for n in (1, 2, 3, 4))
    ok = got == (1, 0, 1, 0)
    _report(14, "contractible weak bordism ranks", ok, f"ranks {got}")


def test_criterion_15_circle_scan():
    sp = SymplecticSpace.standard(1)
    m = 64
    ts = [2 * math.pi * i / m for i in range(m)]
    circle = SampledImmersion(
        param_dim=1, ambient_dim=2, topology="loop",
        params=[(t,) for t in ts],
        points=[(math.cos(t), math.sin(t)) for t in ts])
    deg = loop_maslov(circle, sp)
    lag_pass = check_lagrangian(circle, sp)["pass"]

    ts8 = [2 * math.pi * i / 8 for i in range(8)]
    analytic = SampledImmersion(
        param_dim=1, ambient_dim=2, topology="loop",
        params=[(t,) for t in ts8],
        points=[(math.cos(t), math.sin(t)) for t in ts8],
        frames=[[[-math.sin(t)], [math.cos(t)]] for t in ts8])
    profile = corank_profile(analytic)
    loci = profile["strata"] == {"0": [0, 4]} and \
        [profile["coranks"][i] for i in (0, 4)] == [1, 1] and \
        sum(profile["coranks"]) == 2

    xs = [i / 8 for i in range(9)]
    graph = SampledImmersion(
        param_dim=1, ambient_dim=2, topology="line",
        params=[(x,) for x in xs],
        points=[(x, x * x) for x in xs])
    flat = all(c == 0 for c in corank_profile(graph)["coranks"])

    ok = deg == 2 and lag_pass and loci and flat
    _report(15, "circle scan", ok,
            f"degree {deg}, two corank-1 loci, graph regular")


def test_criterion_16_selftest_determinism(full_selftest_seed0):
    a = full_selftest_seed0
    b = run_selftest(seed=0, quick=False)
    identical = dumps(a).encode() == dumps(b).encode()
    ok = identical and a["all_passed"]
    _report(16, "selftest determinism", ok,
            f"{len(a['suites'])} suites, byte-identical reports")
