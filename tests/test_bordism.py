"""Bordism rank arithmetic: the builtin unoriented table, the weak
bordism splitting, singular-locus lookups, and split exactness."""

from random import Random

import pytest

from symgeo.bordism import (BUILTIN_OMEGA_RANKS, g_singular_bordism,
                            omega_table, split_check, weak_bordism_group)
from symgeo.jsonio import ValidationError


def test_builtin_table_is_immutable():
    assert dict(BUILTIN_OMEGA_RANKS) == {0: 1, 1: 0, 2: 1, 3: 0}
    with pytest.raises(TypeError):
        BUILTIN_OMEGA_RANKS[4] = 5


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
    # n = 5 pairs H_0 with Omega_4, which is past the builtin table
    with pytest.raises(ValidationError):
        weak_bordism_group([1], 5)
    assert weak_bordism_group([1], 5, extra_ranks={4: 1})["rank"] == 1
    # a zero Betti number never touches the missing degree
    assert weak_bordism_group([0, 1], 5)["rank"] == 0


def test_builtin_entries_cannot_be_overridden():
    with pytest.raises(ValidationError):
        omega_table({2: 5})
    with pytest.raises(ValidationError):
        omega_table({4: -1})
    with pytest.raises(ValidationError):
        omega_table({4: True})
    table = omega_table({4: 1, 5: 0})
    assert table[4] == 1 and table[2] == 1


def test_betti_validation():
    for bad in ([], [1, -1], [1.5], [True]):
        with pytest.raises(ValidationError):
            weak_bordism_group(bad, 2)
    with pytest.raises(ValidationError):
        weak_bordism_group([1], 0)


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


def test_split_check():
    assert split_check(0, 5, 5)
    assert split_check(2, 7, 5)
    assert not split_check(1, 5, 5)
    with pytest.raises(ValidationError):
        split_check(-1, 0, 0)
    with pytest.raises(ValidationError):
        split_check(0, True, 1)
