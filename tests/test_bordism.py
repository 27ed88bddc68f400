"""Bordism rank arithmetic: unoriented ranks from Thom's theorem, the weak
bordism splitting, singular-locus lookups, and split exactness."""

import inspect
from random import Random

import pytest

from symgeo.bordism import (MAX_N, g_singular_bordism, split_check,
                            weak_bordism_group)
from symgeo.jsonio import ValidationError


def _omega(s: int) -> int:
    # a contractible base pairs H_0 with Omega_{n-1} alone
    return weak_bordism_group([1], s + 1)["rank"]


def _thom_series(top: int) -> list:
    """Coefficients of prod over i != 2^j - 1 of 1/(1 - x^i), to degree top,
    multiplying in one geometric series at a time."""
    skipped = {2 ** j - 1 for j in range(1, top.bit_length() + 2)}
    coeffs = [1] + [0] * top
    for i in range(1, top + 1):
        if i in skipped:
            continue
        series = [1 if d % i == 0 else 0 for d in range(top + 1)]
        coeffs = [sum(coeffs[a] * series[d - a] for a in range(d + 1))
                  for d in range(top + 1)]
    return coeffs


def test_omega_ranks_follow_thom():
    assert [_omega(s) for s in range(11)] == [1, 0, 1, 0, 2, 1, 3, 1, 5, 3, 8]
    assert [_omega(s) for s in range(31)] == _thom_series(30)


def test_group_presentation_is_uniform():
    # the trivial group keeps the (Z2)^rank form too
    assert weak_bordism_group([1], 4)["group"] == "(Z2)^0"
    assert weak_bordism_group([1], 3)["group"] == "(Z2)^1"
    assert g_singular_bordism([7], 0)["group"] == "(Z2)^7"


def test_contractible_base_matches_omega():
    # W contractible: only H_0 contributes, so the rank is Omega_{n-1}
    got = [weak_bordism_group([1], n)["rank"] for n in (1, 2, 3, 4)]
    assert got == [1, 0, 1, 0]


def test_point_and_circle_anchors():
    assert weak_bordism_group([1, 0, 0], 3)["rank"] == 1
    assert weak_bordism_group([1, 0, 0], 4)["rank"] == 0
    assert weak_bordism_group([1, 1], 3)["rank"] == 1


def test_rank_is_bilinear_in_betti():
    rng = Random(0)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = [rng.randint(0, 4) for _ in range(n)]
        b = [rng.randint(0, 4) for _ in range(n)]
        if not any(a) or not any(b):
            continue
        ab = [x + y for x, y in zip(a, b)]
        assert weak_bordism_group(ab, n)["rank"] == \
            weak_bordism_group(a, n)["rank"] + weak_bordism_group(b, n)["rank"]


def test_short_betti_vectors_pad_with_zero():
    assert weak_bordism_group([1], 4)["rank"] == 0
    assert weak_bordism_group([1], 4) == weak_bordism_group([1, 0, 0, 0], 4)


def test_high_degree_needs_explicit_rank():
    # n = 5 pairs H_0 with Omega_4 = (Z2)^2, a rank Thom's count supplies
    assert weak_bordism_group([1], 5)["rank"] == 2
    # a zero Betti number still reads the true rank in its derivation line
    d = weak_bordism_group([0, 1], 5)
    assert d["rank"] == 0
    assert d["derivation"][0] == "H_0(W; Z2) tensor Omega_4: 0 x 2 -> rank 0"
    assert MAX_N == 1001
    assert weak_bordism_group([1], MAX_N)["n"] == MAX_N
    with pytest.raises(ValidationError, match="n must be at most 1001"):
        weak_bordism_group([1], MAX_N + 1)


def test_betti_validation():
    for bad in ([], [1, -1], [1.5], [True]):
        with pytest.raises(ValidationError):
            weak_bordism_group(bad, 2)
    with pytest.raises(ValidationError):
        weak_bordism_group([1], 0)


def test_n_and_degree_must_be_integers():
    for bad in (2.5, 2.0, True, "3"):
        with pytest.raises(ValidationError, match="^n must be a positive integer$"):
            weak_bordism_group([1], bad)
    for bad in (1.0, True, "1"):
        with pytest.raises(ValidationError, match="^degree must be nonnegative$"):
            g_singular_bordism([1, 2], bad)


def test_labels():
    rep = weak_bordism_group([1, 1], 3, label="legendrian")
    assert rep["label"] == "legendrian"
    with pytest.raises(ValidationError):
        weak_bordism_group([1], 2, label="contact")


def test_weak_report_shape():
    d = weak_bordism_group([2, 1], 2)
    assert set(d) == {"rank", "group", "n", "label", "derivation",
                      "assumptions"}
    assert d["rank"] == 1 and d["group"] == "(Z2)^1"
    # one derivation line per r + s = n - 1 term, plus the total
    assert len(d["derivation"]) == d["n"] + 1
    assert d["derivation"][-1] == "total Z2-rank over r + s = 1: 1"
    assert len(d["assumptions"]) == 1


def test_singular_bordism_is_a_homology_lookup():
    d = g_singular_bordism([1, 2, 0, 3], 1)
    assert d["rank"] == 2 and d["group"] == "(Z2)^2"
    assert d["degree"] == 1
    assert set(d) == {"rank", "group", "degree", "derivation"}
    assert len(d["derivation"]) == 3
    assert g_singular_bordism([1, 2, 0, 3], 2)["rank"] == 0


def test_singular_bordism_degree_errors():
    with pytest.raises(ValidationError):
        g_singular_bordism([1, 2], 2)
    with pytest.raises(ValidationError):
        g_singular_bordism([1, 2], -1)
    with pytest.raises(ValidationError):
        g_singular_bordism([], 0)


def test_singular_bordism_coefficients_are_z2():
    assert "coefficients" not in inspect.signature(g_singular_bordism).parameters
    d = g_singular_bordism([1, 2], 1)
    assert d["derivation"][-1] == "hence the group in degree 1 is H_1(W; Z2) of rank 2"


def test_split_check():
    assert split_check(0, 5, 5)
    assert split_check(2, 7, 5)
    assert not split_check(1, 5, 5)
    with pytest.raises(ValidationError):
        split_check(-1, 0, 0)
    with pytest.raises(ValidationError):
        split_check(0, True, 1)
