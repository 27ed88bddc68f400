"""Witt classes of symmetric forms over the reals and complexes.

Over R the Witt group is infinite cyclic and a class is the integer
signature defect pos - neg (the radical never contributes).  Over C only
the parity of the anisotropic dimension survives, as the integer 0 or 1.
The fundamental-ideal filtration over R is I^k = 2^k Z in this model.
"""

from __future__ import annotations

from .linalg import Matrix, sym_signature


def witt_of_form_real(gram: Matrix) -> int:
    """Witt class of a real symmetric form: signature with the radical dropped."""
    sig = sym_signature(gram)
    return sig.pos - sig.neg


def witt_of_form_complex(gram: Matrix) -> int:
    """Witt class over C: the parity of the rank."""
    sig = sym_signature(gram)
    return (sig.pos + sig.neg) % 2


def ideal_power_member_real(w: int, k: int) -> bool:
    """Membership of a W(R) class in the k-th power of the fundamental ideal.

    The filtration is I^k = 2^k Z; k = 0 is the whole ring.  2^k divides w
    when w is 0 or its lowest set bit sits above bit k - 1, so 2^k is never
    built.
    """
    if k < 0:
        raise ValueError("ideal power must be nonnegative")
    return w == 0 or (w & -w).bit_length() > k
