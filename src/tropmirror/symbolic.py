"""Symbolic Novikov coefficients: rational linear forms in named area symbols.

A model's structure constants are Novikov monomials whose T-exponents are
linear expressions in formal area symbols (with rational coefficients),
times a Laurent monomial in named chart/holonomy variables, times an exact
rational scalar.  This module provides that coefficient arithmetic plus
monomial substitution and instantiation of the areas at exact rationals
(a numeric area is a constant :class:`AreaExp`).

Every rational is in the normal form ``_frac`` returns: an ``int`` when
integral, otherwise a ``Fraction``, never a float.  A ``SymPoly``'s term dict
is canonical: each key is an ``(AreaExp, mono)`` pair whose ``AreaExp`` lists
its nonzero coefficients sorted by symbol and whose ``mono`` is a sorted tuple
of ``(variable, nonzero int exponent)``; every scalar is nonzero.  Equal
polynomials therefore have equal term dicts.  The arithmetic below builds such
dicts and hands them to the private ``SymPoly._of_clean``, which stores them
unchecked.  Nothing outside this module may call it.

No ``SymPoly`` or ``AreaExp`` is mutated after construction: every
operation returns a new value (or one of its operands unchanged), and the
only attribute ever set later is an ``AreaExp``'s cached hash.  That is what
lets one shared zero area (``AreaExp.constant(0)``) sit in every constant
term, and lets callers compare polynomials by their term dicts
(``dgcat.DgPiece.equal``) instead of subtracting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _frac(x):
    """``x`` in normal form: an ``int`` when integral, otherwise a ``Fraction``."""
    if type(x) is int:
        return x
    if not isinstance(x, (int, str, Fraction)):
        raise TypeError(f"not an exact rational: {x!r}")
    x = x if isinstance(x, Fraction) else Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class AreaExp:
    """Linear form const + sum coeff_i * symbol_i with rational coefficients."""

    coeffs: tuple  # sorted tuple of (symbol, rational), nonzero coefficients only
    const: int | Fraction = 0
    _hash = None  # not a field: set by the first __hash__

    @staticmethod
    def of(mapping=None, const=0) -> "AreaExp":
        mapping = mapping or {}
        items = []
        for sym, c in mapping.items():
            c = _frac(c)
            if c:
                items.append((sym, c))
        const = _frac(const)
        return AreaExp(tuple(sorted(items)), const) if items or const else _ZERO_AREA

    @staticmethod
    def sym(name, coeff=1) -> "AreaExp":
        return AreaExp.of({name: coeff})

    @staticmethod
    def constant(c) -> "AreaExp":
        c = _frac(c)
        return AreaExp((), c) if c else _ZERO_AREA

    def __hash__(self) -> int:
        # computed on first use: AreaExps are hashed as dict keys far more
        # often than they are built
        h = self._hash
        if h is None:
            h = hash((self.coeffs, self.const))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # a copy or unpickled AreaExp hashes afresh: string hashes differ
        # between processes
        return AreaExp, (self.coeffs, self.const)

    def __add__(self, other) -> "AreaExp":
        if not isinstance(other, AreaExp):
            other = AreaExp.constant(other)
        if not other.coeffs and not other.const:
            return self
        if not self.coeffs and not self.const:
            return other
        acc = dict(self.coeffs)
        for sym, c in other.coeffs:
            acc[sym] = acc.get(sym, 0) + c
        return AreaExp.of(acc, self.const + other.const)

    def __neg__(self) -> "AreaExp":
        return AreaExp(tuple((s, -c) for s, c in self.coeffs), -self.const)

    def __sub__(self, other) -> "AreaExp":
        if not isinstance(other, AreaExp):
            other = AreaExp.constant(other)
        return self + (-other)

    def scale(self, k) -> "AreaExp":
        k = _frac(k)
        if not k:
            return _ZERO_AREA
        return AreaExp(tuple((s, _frac(c * k)) for s, c in self.coeffs), _frac(self.const * k))

    def is_zero(self) -> bool:
        return not self.coeffs and not self.const

    def normalize(self, substitutions: dict) -> "AreaExp":
        """Eliminate constrained symbols via symbol -> AreaExp substitutions."""
        out = AreaExp.constant(self.const)
        for sym, c in self.coeffs:
            if sym in substitutions:
                out = out + substitutions[sym].normalize(substitutions).scale(c)
            else:
                out = out + AreaExp.sym(sym).scale(c)
        return out

    def evaluate(self, assignment: dict):
        total = self.const
        for sym, c in self.coeffs:
            total += c * _frac(assignment[sym])
        return total

    def __str__(self) -> str:
        parts = []
        if self.const:
            parts.append(str(self.const))
        for s, c in self.coeffs:
            if c == 1:
                parts.append(s)
            else:
                parts.append(f"{c}*{s}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# the area of every constant term; its hash is computed here, once
_ZERO_AREA = AreaExp((), 0)
hash(_ZERO_AREA)


def _mono_key(vars_dict: dict) -> tuple:
    return tuple(sorted((v, int(e)) for v, e in vars_dict.items() if e))


class SymPoly:
    """Finite sum of terms scalar * T^{AreaExp} * (Laurent monomial in named variables)."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms = {}

    @classmethod
    def _of_clean(cls, terms: dict) -> "SymPoly":
        """A SymPoly on ``terms``, which must already be in canonical form."""
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    @staticmethod
    def zero() -> "SymPoly":
        return SymPoly()

    @staticmethod
    def term(scalar, area=None, variables=None) -> "SymPoly":
        if not isinstance(area, AreaExp):
            area = AreaExp.constant(area) if area else _ZERO_AREA
        scalar = _frac(scalar)
        return SymPoly._of_clean({(area, _mono_key(variables or {})): scalar} if scalar else {})

    @staticmethod
    def scalar(c) -> "SymPoly":
        c = _frac(c)
        return SymPoly._of_clean({(_ZERO_AREA, ()): c} if c else {})

    @staticmethod
    def var(name, power=1) -> "SymPoly":
        return SymPoly.term(1, None, {name: power})

    @staticmethod
    def sum_of_products(terms) -> "SymPoly":
        """sum sign * p * q over the (sign, p, q) of ``terms``, sign 1 or -1."""
        acc: dict = {}
        for sign, p, q in terms:
            for (a1, m1), s1 in p.terms.items():
                s1 = s1 if sign > 0 else -s1
                for (a2, m2), s2 in q.terms.items():
                    if not m2:
                        mono = m1
                    elif not m1:
                        mono = m2
                    else:
                        merged = dict(m1)
                        for v, e in m2:
                            merged[v] = merged.get(v, 0) + e
                        mono = _mono_key(merged)
                    key = (a1 + a2, mono)
                    old = acc.get(key)
                    acc[key] = s1 * s2 if old is None else old + s1 * s2
        return SymPoly._of_clean({k: _frac(s) for k, s in acc.items() if s})

    def is_zero(self) -> bool:
        return not self.terms

    def single_term(self):
        """(scalar, AreaExp, vars tuple) of the unique term."""
        if len(self.terms) != 1:
            raise ValueError(f"not a monomial: {self}")
        (area, mono), scalar = next(iter(self.terms.items()))
        return scalar, area, mono

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "SymPoly":
        other = _as_sym(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for key, scalar in other.terms.items():
            old = out.get(key)
            if old is None:
                out[key] = scalar
            elif total := old + scalar:
                out[key] = _frac(total)
            else:
                del out[key]
        return SymPoly._of_clean(out)

    __radd__ = __add__

    def __neg__(self) -> "SymPoly":
        return SymPoly._of_clean({k: -s for k, s in self.terms.items()})

    def __sub__(self, other) -> "SymPoly":
        return self + (-_as_sym(other))

    def scale(self, k) -> "SymPoly":
        """k * self for an exact rational k."""
        k = _frac(k)
        if k == 1:
            return self
        if k == -1:
            return -self
        if not k:
            return SymPoly()
        return SymPoly._of_clean({key: _frac(s * k) for key, s in self.terms.items()})

    def __mul__(self, other) -> "SymPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return SymPoly.sum_of_products(((1, self, _as_sym(other)),))

    __rmul__ = __mul__

    def inv(self) -> "SymPoly":
        scalar, area, mono = self.single_term()
        return SymPoly.term(Fraction(1) / scalar, -area, {v: -e for v, e in mono})

    def __pow__(self, n: int) -> "SymPoly":
        if n < 0:
            return self.inv() ** (-n)
        result = SymPoly.scalar(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        # canonical term dicts: equal polynomials have equal dicts
        return self.terms == _as_sym(other).terms

    def __hash__(self):
        raise TypeError("SymPoly is not hashable")

    # -- structure ----------------------------------------------------------

    def normalize(self, substitutions: dict) -> "SymPoly":
        return self._map_areas(lambda area: area.normalize(substitutions))

    def instantiate(self, assignment: dict) -> "SymPoly":
        """Evaluate every area at the exact rationals of ``assignment``."""
        return self._map_areas(lambda area: AreaExp.constant(area.evaluate(assignment)))

    def _map_areas(self, image) -> "SymPoly":
        out = {}
        for (area, mono), scalar in self.terms.items():
            key = (image(area), mono)
            out[key] = out.get(key, 0) + scalar
        return SymPoly._of_clean({k: _frac(s) for k, s in out.items() if s})

    def substitute(self, images: dict) -> "SymPoly":
        """Replace variables by monomial SymPolys (unbound variables stay)."""
        out = SymPoly.zero()
        for (area, mono), scalar in self.terms.items():
            term = SymPoly.term(scalar, area)
            for v, e in mono:
                base = images[v] if v in images else SymPoly.var(v)
                term = term * (base ** e)
            out = out + term
        return out

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][1], kv[0][0].const, kv[0][0].coeffs),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (area, mono), scalar in self.sorted_terms():
            factors = []
            if scalar != 1 or (area.is_zero() and not mono):
                factors.append(str(scalar))
            if not area.is_zero():
                factors.append(f"T^({area})")
            for v, e in mono:
                factors.append(f"{v}^{e}" if e != 1 else v)
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"SymPoly({self})"


def _as_sym(x) -> SymPoly:
    if isinstance(x, SymPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return SymPoly.scalar(x)
    raise TypeError(f"cannot coerce {x!r} to SymPoly")
