"""Bordism-group arithmetic for weak Lagrangian/Legendrian bordism.

Every group in scope is an elementary abelian 2-group, so a group is just
its Z2-rank.  The weak bordism group of immersions into a 2n-dimensional
ambient space splits as the direct sum over r + s = n - 1 of
H_r(W; Z2) tensor Omega_s, with Omega_s the unoriented smooth bordism
group in degree s.  The built-in Omega table covers s <= 3; higher
degrees must be supplied by the caller, never guessed.

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

from types import MappingProxyType

from .jsonio import ValidationError, is_int

# unoriented smooth bordism Z2-ranks for degrees 0..3; immutable on purpose
BUILTIN_OMEGA_RANKS = MappingProxyType({0: 1, 1: 0, 2: 1, 3: 0})

_LABELS = ("lagrangian", "legendrian")


def _check_betti(betti) -> list:
    vals = list(betti)
    if not vals:
        raise ValidationError("betti vector must be nonempty")
    for b in vals:
        if not is_int(b) or b < 0:
            raise ValidationError("betti entries must be nonnegative integers")
    return vals


def omega_table(extra_ranks=None) -> dict:
    """Unoriented bordism ranks: the builtin table plus caller extensions.

    Extensions may only add degrees > 3; the builtin entries are fixed.
    """
    table = dict(BUILTIN_OMEGA_RANKS)
    if extra_ranks:
        for s, r in extra_ranks.items():
            s = int(s)
            if s in BUILTIN_OMEGA_RANKS:
                raise ValidationError(
                    f"builtin bordism rank for degree {s} cannot be overridden")
            if s < 0 or not is_int(r) or r < 0:
                raise ValidationError("extra ranks must map nonneg degree to "
                                      "nonneg integer rank")
            table[s] = r
    return table


def weak_bordism_group(betti, n: int, extra_ranks=None,
                       label: str = "lagrangian") -> dict:
    """Rank of the closed weak bordism group in ambient dimension 2n.

    betti lists the mod-2 Betti numbers of the base W starting at degree 0;
    degrees past the end of the list are taken as zero.  The Lagrangian and
    Legendrian formulas share this arithmetic; the label only tags the
    report.
    """
    vals = _check_betti(betti)
    if n < 1:
        raise ValidationError("n must be a positive integer")
    if label not in _LABELS:
        raise ValidationError(f"label must be one of {_LABELS}")
    table = omega_table(extra_ranks)
    lines = []
    rank = 0
    for r in range(n):
        s = n - 1 - r
        br = vals[r] if r < len(vals) else 0
        if br and s not in table:
            raise ValidationError(
                f"no bordism rank available for degree {s}; supply it explicitly")
        term = br * table.get(s, 0)
        rank += term
        lines.append(
            f"H_{r}(W; Z2) tensor Omega_{s}: {br} x {table.get(s, 0)} -> rank {term}")
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


def g_singular_bordism(homology_ranks, degree: int,
                       coefficients: str = "Z2") -> dict:
    """Singular bordism group over the singularity locus in one degree.

    homology_ranks lists rank H_d(W; G) for d = 0..len-1.  The computation
    is a lookup: the group is canonically isomorphic to that homology
    group, after retracting the completed locus onto the jet space of W.
    """
    ranks = _check_betti(homology_ranks)
    if degree < 0:
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
        f"hence the group in degree {degree} is "
        f"H_{degree}(W; {coefficients}) of rank {rank}",
    ]
    return {"rank": rank, "group": f"(Z2)^{rank}", "degree": degree,
            "derivation": chain}


def split_check(closed_rank: int, bor_rank: int, cyc_rank: int) -> bool:
    """Split-exactness arithmetic: bordism = closed part + cyclic part."""
    for v in (closed_rank, bor_rank, cyc_rank):
        if not is_int(v) or v < 0:
            raise ValidationError("ranks must be nonnegative integers")
    return bor_rank == closed_rank + cyc_rank
