"""Shifted-degree and Koszul sign conventions, implemented once.

All degrees are Z/2-valued.  The shifted degree is |x|' = |x| - 1 (mod 2),
so odd generators have shifted degree 0.  Every sign in the package is a
product of (-1)-powers computed through these helpers.
"""

from __future__ import annotations


def shifted(degree: int) -> int:
    """|x|' = |x| - 1 modulo 2."""
    return (degree - 1) % 2


def sign_pow(n: int) -> int:
    """(-1)^n."""
    return -1 if n % 2 else 1


def shifted_sum(degrees) -> int:
    """Sum of shifted degrees mod 2."""
    return sum(shifted(d) for d in degrees) % 2
