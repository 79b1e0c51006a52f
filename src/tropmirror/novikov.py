"""Exact finite sums in the Novikov field.

Elements are finite sums ``sum a_i * T^{A_i}`` with strictly increasing
rational exponents ``A_i`` and nonzero rational coefficients.  Every
operation is exact, so ``==`` on two series is exact equality, and only
monomials ``a * T^A`` are invertible.  These are the coefficients of the
tropical chart maps in :mod:`tropmirror.lpoly`.

Every exponent and coefficient is in the normal form of
:mod:`tropmirror.symbolic` (``symbolic._frac``): an ``int`` when integral,
otherwise a ``Fraction``, never a float.  A quotient is built as
``_frac(Fraction(a, b))``, since ``int / int`` would give a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .symbolic import _frac


def _as_rational(x, what: str) -> int | Fraction:
    """``x`` in normal form; anything but an int or a ``Fraction`` raises TypeError."""
    if isinstance(x, (int, Fraction)):
        return _frac(x)
    raise TypeError(f"{what} must be rational: {x!r}")


@dataclass(frozen=True)
class NovikovSeries:
    """Finite sum of (exponent, coefficient) terms, exponents strictly increasing."""

    terms: tuple  # ((exponent, coefficient), ...), each an int or a non-integral Fraction

    @staticmethod
    def from_terms(pairs: Iterable) -> "NovikovSeries":
        acc: dict = {}
        for e, c in pairs:
            e = _as_rational(e, "exponent")
            c = _as_rational(c, "coefficient")
            acc[e] = acc[e] + c if e in acc else c
        return NovikovSeries(tuple((e, _frac(acc[e])) for e in sorted(acc) if acc[e]))

    @staticmethod
    def monomial(exponent, coefficient=1) -> "NovikovSeries":
        return NovikovSeries.from_terms([(exponent, coefficient)])

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "NovikovSeries":
        return NovikovSeries.from_terms(self.terms + as_series(other).terms)

    __radd__ = __add__

    def __neg__(self) -> "NovikovSeries":
        return NovikovSeries(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other) -> "NovikovSeries":
        return self + (-as_series(other))

    def __mul__(self, other) -> "NovikovSeries":
        other = as_series(other)
        if len(self.terms) == 1 and len(other.terms) == 1:
            ((e1, c1),), ((e2, c2),) = self.terms, other.terms
            return NovikovSeries(((_frac(e1 + e2), _frac(c1 * c2)),))
        return NovikovSeries.from_terms(
            (e1 + e2, c1 * c2) for e1, c1 in self.terms for e2, c2 in other.terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "NovikovSeries":
        """Integer powers; a negative power needs a monomial (``inv``)."""
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return self.inv() ** -n
        if len(self.terms) == 1:
            ((e, c),) = self.terms
            return NovikovSeries(((_frac(e * n), _frac(c ** n)),))
        out = as_series(1)
        for _ in range(n):
            out = out * self
        return out

    def inv(self) -> "NovikovSeries":
        """(a * T^A)^{-1} = a^{-1} * T^{-A}; a sum of two or more terms raises ValueError."""
        if not self.terms:
            raise ZeroDivisionError("inverse of 0")
        if len(self.terms) > 1:
            raise ValueError(f"only monomials are invertible, not {self}")
        ((e, c),) = self.terms
        return NovikovSeries(((-e, _frac(Fraction(1, c))),))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"T^{e}")
            elif c == -1:
                parts.append(f"-T^{e}")
            else:
                parts.append(f"{c}*T^{e}")
        return " + ".join(parts).replace("+ -", "- ")


def as_series(x) -> NovikovSeries:
    if isinstance(x, NovikovSeries):
        return x
    c = _as_rational(x, "coefficient")
    return NovikovSeries(((0, c),) if c else ())


def T(exponent) -> NovikovSeries:
    """The formal generator T raised to a rational exponent."""
    return NovikovSeries.monomial(exponent)
