"""Built-in invariant suites: determinism, full-pass behavior, and the
report of a failing suite."""

import pytest

from symgeo import selftest
from symgeo.jets import spencer_sequence_audit
from symgeo.jsonio import dumps
from symgeo.selftest import run_selftest

EXPECTED_SUITES = [
    "kashiwara_cocycle", "wall_kashiwara", "arnold_kashiwara",
    "transvection_invariance", "leray_sum", "mp1_associativity",
    "loop_degree", "spencer_exact", "pde_dims", "max_isotropic",
    "orthogonal_laws", "witt_ring", "bordism_table", "scan_circle",
]


def test_quick_run_passes_and_is_deterministic():
    a = run_selftest(seed=0, quick=True)
    b = run_selftest(seed=0, quick=True)
    assert a == b
    assert dumps(a).encode() == dumps(b).encode()
    assert a["all_passed"] and a["failures"] == []
    assert a["quick"] is True and a["seed"] == 0


def test_suite_roster_is_stable():
    rep = run_selftest(seed=0, quick=True)
    assert [s["name"] for s in rep["suites"]] == EXPECTED_SUITES
    for s in rep["suites"]:
        assert s["passed"] and s["cases"] >= 1


def test_other_seeds_pass():
    rep = run_selftest(seed=7, quick=True)
    assert rep["all_passed"]
    assert rep["seed"] == 7


def test_seed_changes_case_material_not_outcome():
    # reports for different seeds agree on the roster, disagree on details
    a = run_selftest(seed=0, quick=True)
    b = run_selftest(seed=1, quick=True)
    assert [s["name"] for s in a["suites"]] == [s["name"] for s in b["suites"]]
    assert a != b


# -- failing suites: the report names the failing case by its 0-based index ------


def _suite_report(rep, name):
    return next(s for s in rep["suites"] if s["name"] == name)


def test_inexact_spencer_audit_fails_at_case_0(monkeypatch):
    monkeypatch.setattr(selftest, "spencer_sequence_audit",
                        lambda sig: dict(spencer_sequence_audit(sig), exact=False))
    rep = run_selftest(seed=0, quick=True)
    assert rep["failures"] == ["spencer_exact"]
    assert _suite_report(rep, "spencer_exact") == {
        "name": "spencer_exact", "cases": 0, "passed": False,
        "detail": "sequence not exact at (2, 1, 2)"}


def test_wrong_loop_degree_fails_at_case_0(monkeypatch):
    monkeypatch.setattr(selftest, "loop_degree", lambda space, frames: 0)
    rep = run_selftest(seed=0, quick=True)
    assert rep["failures"] == ["loop_degree"]
    assert _suite_report(rep, "loop_degree") == {
        "name": "loop_degree", "cases": 0, "passed": False,
        "detail": "degrees 0, 0"}


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("name, dep, calls_per_case", [
    ("kashiwara_cocycle", "kashiwara_index", 4),
    ("wall_kashiwara", "wall_invariant", 1),
    ("arnold_kashiwara", "arnold_triple_lines", 1),
])
def test_failing_case_index_replays_the_instance(monkeypatch, name, dep,
                                                 calls_per_case, k):
    real = getattr(selftest, dep)
    calls = []

    def off_by_one_in_case_k(*args):
        calls.append(args)
        out = real(*args)
        return out + 1 if len(calls) == calls_per_case * k + 1 else out

    monkeypatch.setattr(selftest, dep, off_by_one_in_case_k)
    suite, quick_params, _ = selftest._SUITES[name]
    out = selftest._run_suite(suite, selftest._suite_rng(3, name), **quick_params)
    assert not out["passed"] and out["cases"] == k
    failing = calls[calls_per_case * k]
    # replay from the seed and the suite name alone: k passing cases, then k
    monkeypatch.setattr(selftest, dep, lambda *args: calls.append(args) or real(*args))
    cases = suite(selftest._suite_rng(3, name), **quick_params)
    for _ in range(k):
        assert not next(cases)
    calls.clear()
    assert not next(cases)
    assert calls[0] == failing
