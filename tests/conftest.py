from collections import Counter

import pytest

from symgeo import maslov
from symgeo.selftest import run_selftest


@pytest.fixture(scope="session")
def full_selftest_seed0():
    """One full seed-0 selftest report, shared by the tests that read it."""
    return run_selftest(seed=0, quick=False)


@pytest.fixture
def triple_branches(monkeypatch):
    """Counts of the branches ``maslov._triple_index`` takes during a test:
    "schur" when its block A is invertible, "gram" when det A = 0."""
    counts = Counter()
    solve = maslov._solve

    def counted(a, b):
        out = solve(a, b)
        counts["gram" if out is None else "schur"] += 1
        return out

    monkeypatch.setattr(maslov, "_solve", counted)
    return counts
