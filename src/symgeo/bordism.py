"""Bordism-group arithmetic for weak Lagrangian/Legendrian bordism.

Every group in scope is an elementary abelian 2-group, so a group is just
its Z2-rank and Z2 is the one coefficient ring.  The weak bordism group of
immersions into a 2n-dimensional ambient space splits as the direct sum
over r + s = n - 1 of H_r(W; Z2) tensor Omega_s, with Omega_s the
unoriented smooth bordism group in degree s.  By Thom's theorem the
unoriented bordism ring is Z2[x_i : i != 2^j - 1], so rank Omega_s is the
number of partitions of s into parts not of the form 2^j - 1 (R. Thom,
Comment. Math. Helv. 28 (1954); R. E. Stong, Notes on Cobordism Theory,
1968).  The ranks for degrees 0..n-1 come from one coin-change pass per
top degree; n is bounded by ``MAX_N``.

The singular-bordism computation is a plain homology lookup: the bordism
group in a given degree is canonically isomorphic to the corresponding
homology group of the parameter space, and the report spells out the
reduction chain step by step.

Both computations return plain dicts.  ``weak_bordism_group`` gives
``rank``, ``group`` (``(Z2)^rank``, also for rank 0), ``n``, ``label``,
``derivation`` and ``assumptions``; ``g_singular_bordism`` gives ``rank``,
``group``, ``degree`` and ``derivation``.  The derivations and assumptions
are lists of text lines.
"""

from __future__ import annotations

from functools import lru_cache

from .jsonio import ValidationError, is_int

# the largest ambient half-dimension answered: Omega ranks up to degree 1000
MAX_N = 1001

_LABELS = ("lagrangian", "legendrian")


def _check_betti(betti) -> list:
    vals = list(betti)
    if not vals:
        raise ValidationError("betti vector must be nonempty")
    for b in vals:
        if not is_int(b) or b < 0:
            raise ValidationError("betti entries must be nonnegative integers")
    return vals


@lru_cache(maxsize=8)
def _omega_ranks(top: int) -> tuple:
    """Z2-ranks of Omega_0..Omega_top: partitions into parts != 2^j - 1."""
    ranks = [1] + [0] * top
    for part in range(1, top + 1):
        if part & (part + 1):  # part + 1 is not a power of two
            for s in range(part, top + 1):
                ranks[s] += ranks[s - part]
    return tuple(ranks)


def weak_bordism_group(betti, n: int, label: str = "lagrangian") -> dict:
    """Rank of the closed weak bordism group in ambient dimension 2n.

    betti lists the mod-2 Betti numbers of the base W starting at degree 0;
    degrees past the end of the list are taken as zero.  The Lagrangian and
    Legendrian formulas share this arithmetic; the label only tags the
    report.
    """
    vals = _check_betti(betti)
    if not is_int(n) or n < 1:
        raise ValidationError("n must be a positive integer")
    if n > MAX_N:
        raise ValidationError(f"n must be at most {MAX_N}")
    if label not in _LABELS:
        raise ValidationError(f"label must be one of {_LABELS}")
    omega = _omega_ranks(n - 1)
    lines = []
    rank = 0
    for r in range(n):
        s = n - 1 - r
        br = vals[r] if r < len(vals) else 0
        term = br * omega[s]
        rank += term
        lines.append(
            f"H_{r}(W; Z2) tensor Omega_{s}: {br} x {omega[s]} -> rank {term}")
    lines.append(f"total Z2-rank over r + s = {n - 1}: {rank}")
    return {
        "rank": rank,
        "group": f"(Z2)^{rank}",
        "n": n,
        "label": label,
        "derivation": lines,
        "assumptions": ["ambient dimension hypothesis (>= 2n+1 after "
                        "stabilization) assumed, not checkable from Betti input"],
    }


def g_singular_bordism(homology_ranks, degree: int) -> dict:
    """Singular bordism group over the singularity locus in one degree.

    homology_ranks lists rank H_d(W; Z2) for d = 0..len-1.  The computation
    is a lookup: the group is canonically isomorphic to that homology
    group, after retracting the completed locus onto the jet space of W.
    """
    ranks = _check_betti(homology_ranks)
    if not is_int(degree) or degree < 0:
        raise ValidationError("degree must be nonnegative")
    if degree >= len(ranks):
        raise ValidationError(
            f"degree {degree} beyond supplied homology (0..{len(ranks) - 1})")
    rank = ranks[degree]
    chain = [
        "bordism group over the completed singularity locus "
        "== reduced bar homology of that locus",
        "the completed locus strong-deformation retracts onto the second "
        "jet space of W, which is fibrewise contractible over W",
        f"hence the group in degree {degree} is H_{degree}(W; Z2) of rank {rank}",
    ]
    return {"rank": rank, "group": f"(Z2)^{rank}", "degree": degree,
            "derivation": chain}


def split_check(closed_rank: int, bor_rank: int, cyc_rank: int) -> bool:
    """Split-exactness arithmetic: bordism = closed part + cyclic part."""
    for v in (closed_rank, bor_rank, cyc_rank):
        if not is_int(v) or v < 0:
            raise ValidationError("ranks must be nonnegative integers")
    return bor_rank == closed_rank + cyc_rank
