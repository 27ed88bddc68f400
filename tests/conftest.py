import pytest

from symgeo.selftest import run_selftest


@pytest.fixture(scope="session")
def full_selftest_seed0():
    """One full seed-0 selftest report, shared by the tests that read it."""
    return run_selftest(seed=0, quick=False)
