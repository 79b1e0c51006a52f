"""Laurent polynomials over exact Novikov coefficients and monomial maps.

These are the tropical chart transitions of :mod:`tropmirror.tropical`:
a :class:`MonomialMap` sends each source variable to a Novikov unit times
a Laurent monomial in the target variables, and substitution along such a
map is a ring homomorphism.  A map is stored as its units and its integer
exponent rows, so composing two maps, pulling a polynomial back and
testing for the identity are integer row arithmetic and unit products;
no ``LaurentPoly`` product is expanded.  Only :mod:`tropmirror.tropical`
imports this module: its ``transition_map`` builds every chart map, and
its ``atlas`` holds each exact one in both orientations.  The A-infinity
models, matrix factorizations and dg layer compute with
:mod:`tropmirror.symbolic` instead.

Exponent vectors are tuples of ``int``; every rational inside a coefficient
is in the normal form of :mod:`tropmirror.symbolic` (an ``int`` when
integral, otherwise a ``Fraction``, never a float), which
:mod:`tropmirror.novikov` keeps.  Nothing here divides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .novikov import as_series


class LaurentPoly:
    """Laurent polynomial: map from integer exponent vectors to NovikovSeries."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.variables):
                raise ValueError("exponent vector length does not match variables")
            coeff = as_series(coeff)
            if coeff.is_zero():
                continue
            if exps in clean:
                s = clean[exps] + coeff
                if s.is_zero():
                    del clean[exps]
                else:
                    clean[exps] = s
            else:
                clean[exps] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables) -> "LaurentPoly":
        return LaurentPoly(variables, {})

    @staticmethod
    def constant(variables, coeff) -> "LaurentPoly":
        variables = tuple(variables)
        return LaurentPoly(variables, {(0,) * len(variables): as_series(coeff)})

    @staticmethod
    def monomial(variables, exps, coeff=1) -> "LaurentPoly":
        return LaurentPoly(variables, {tuple(exps): as_series(coeff)})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def single_term(self):
        if len(self.terms) != 1:
            raise ValueError("not a monomial")
        return next(iter(self.terms.items()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, as_series(0)) + coeff
        return LaurentPoly(self.variables, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, as_series(0)) + c1 * c2
        return LaurentPoly(self.variables, out)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            exps, coeff = self.single_term()
            return LaurentPoly(self.variables, {tuple(-e for e in exps): coeff.inv()}) ** (-n)
        result = LaurentPoly.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return LaurentPoly.constant(self.variables, other)
        if other.variables != self.variables:
            raise ValueError(f"variables differ: {self.variables} vs {other.variables}")
        return other

    def __eq__(self, other) -> bool:
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("LaurentPoly is not hashable")

    # -- display -----------------------------------------------------------------

    def sorted_terms(self):
        """Graded lexicographic order on exponent vectors (fixed for golden files)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e != 1 else v
                for v, e in zip(self.variables, exps)
                if e != 0
            )
            cs = str(coeff)
            if " " in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.variables}, {self})"


@dataclass(frozen=True)
class MonomialMap:
    """Substitution source_i -> units[i] * prod_j target_j^rows[i][j].

    A map is its units (nonzero Novikov series, one per source variable)
    and its integer exponent rows over the target variables, and it
    composes, substitutes and compares by arithmetic on those: composition
    sums rows and multiplies units, and a substituted term stays one
    monomial.  A negative power of a unit with two or more terms raises
    ``ValueError``.
    """

    source: tuple
    target: tuple
    units: tuple  # NovikovSeries, one per source variable
    rows: tuple  # tuple of int exponent tuples over target, one per source variable

    @staticmethod
    def build(source, target, table: dict) -> "MonomialMap":
        """From ``table``: source var -> (unit, dict target var -> int).

        A zero unit, or a nonzero exponent of a variable outside ``target``,
        raises ``ValueError``.
        """
        source = tuple(source)
        target = tuple(target)
        units, rows = [], []
        for v in source:
            unit, exps = table[v]
            unit = as_series(unit)
            if unit.is_zero():
                raise ValueError(f"zero unit for {v}")
            unknown = sorted(name for name, e in exps.items() if e and name not in target)
            if unknown:
                raise ValueError(f"unknown target variables {unknown}")
            units.append(unit)
            rows.append(tuple(int(exps.get(name, 0)) for name in target))
        return MonomialMap(source, target, tuple(units), tuple(rows))

    def image_of(self, var: str) -> LaurentPoly:
        if var not in self.source:
            raise KeyError(f"unbound variable {var}")
        i = self.source.index(var)
        return LaurentPoly.monomial(self.target, self.rows[i], self.units[i])

    def _pull(self, positions, coeff, exps):
        """coeff * prod_k image(source[positions[k]])^exps[k] as (coefficient, exponents)."""
        out = [0] * len(self.target)
        for i, e in zip(positions, exps):
            if e:
                coeff = coeff * self.units[i] ** e
                for j, r in enumerate(self.rows[i]):
                    out[j] += e * r
        return coeff, tuple(out)

    def substitute(self, p: LaurentPoly) -> LaurentPoly:
        missing = [v for v in p.variables if v not in self.source]
        if missing:
            raise KeyError(f"unbound variables {missing}")
        positions = [self.source.index(v) for v in p.variables]
        acc = {}
        for exps, coeff in p.terms.items():
            coeff, key = self._pull(positions, coeff, exps)
            acc[key] = acc[key] + coeff if key in acc else coeff
        return LaurentPoly(self.target, acc)

    def compose(self, inner: "MonomialMap") -> "MonomialMap":
        """self after inner: source of self, expressed in target of inner."""
        if set(self.target) - set(inner.source):
            raise ValueError("maps not composable: variable mismatch")
        positions = [inner.source.index(v) for v in self.target]
        images = [inner._pull(positions, unit, row) for unit, row in zip(self.units, self.rows)]
        return MonomialMap(self.source, inner.target,
                           tuple(unit for unit, _ in images), tuple(row for _, row in images))

    def is_identity(self) -> bool:
        if set(self.source) != set(self.target):
            return False
        one = as_series(1)
        return all(unit == one and row == tuple(int(t == v) for t in self.target)
                   for v, unit, row in zip(self.source, self.units, self.rows))

    def __str__(self) -> str:
        lines = []
        for v, unit, row in zip(self.source, self.units, self.rows):
            exps = sorted((n, p) for n, p in zip(self.target, row) if p)
            mono = "*".join(f"{n}^{p}" if p != 1 else n for n, p in exps) or "1"
            u = str(unit)
            prefix = "" if u == "1" else f"{u} * "
            lines.append(f"{v} <- {prefix}{mono}")
        return "\n".join(lines)
