"""Curated finite A-infinity local models and their Floer-theoretic algebra.

A local model lists two or three Lagrangian-type objects, the generators of
the Hom spaces between them, boundary deformations b per object, and a finite
table of structure-constant entries.  Each entry records one polygon count:
an ordered input sequence (real generators interleaved with deformation
generators), an output generator, a sign, a Novikov area (linear form in the
model's area symbols) and an optional holonomy monomial.

Operations: the deformed operations m_k^{b_0,...,b_k}, weak Maurer-Cartan
verification, solving for coordinate changes from the vanishing of m_1 of an
isomorphism candidate, and reduction to exact (T-free) models.  The
isomorphism equations themselves are verified in ``dgcat.iso_setup``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from importlib import resources

from .symbolic import AreaExp, SymPoly


@dataclass(frozen=True)
class Generator:
    name: str
    source: str
    target: str
    degree: int  # Z/2


@dataclass(frozen=True)
class Entry:
    inputs: tuple
    output: str
    coeff: SymPoly  # sign * T^{area} * holonomy monomial
    sign_unknown: bool = False


@dataclass
class AInfLocalModel:
    """A curated local model with its table of structure-constant entries.

    ``__post_init__`` checks every entry against the degree rule, so every
    way of building a model (``dataclasses.replace`` included) yields a
    valid table.  It then indexes the entries once by their real inputs (the
    input tokens with every deformation generator dropped), so ``entries``
    and ``deformations`` must not change after construction.
    """

    name: str
    objects: tuple
    generators: dict  # name -> Generator
    units: dict  # object -> tuple of unit-summand generator names
    variables: dict  # object -> tuple of deformation/holonomy variable names
    deformations: dict  # object -> {generator name: variable name}
    entries: list
    constraints: dict = field(default_factory=dict)  # symbol -> AreaExp elimination
    area_symbols: tuple = ()
    free_symbols: tuple = ()
    offsets: dict = field(default_factory=dict)  # generator -> AreaExp

    def __post_init__(self):
        for entry in self.entries:
            _check_entry_degrees(entry, self.generators, self.name)
        self._deformation_gens = frozenset(
            g for gens in self.deformations.values() for g in gens)
        self._entries_by_inputs: dict = {}
        for entry in self.entries:
            self._entries_by_inputs.setdefault(
                self._real_inputs(entry.inputs), []).append(entry)

    def _real_inputs(self, tokens) -> tuple:
        return tuple(t for t in tokens if t not in self._deformation_gens)

    # -- basic structure ----------------------------------------------------

    def unit_element(self, obj: str) -> dict:
        return {g: SymPoly.scalar(1) for g in self.units[obj]}

    def element(self, pairs) -> dict:
        """Formal sum from (generator, coefficient) pairs."""
        out = {}
        for g, c in pairs:
            if g not in self.generators:
                raise KeyError(f"unknown generator {g}")
            c = c if isinstance(c, SymPoly) else SymPoly.scalar(c)
            out[g] = out.get(g, SymPoly.zero()) + c
        return {g: c for g, c in out.items() if not c.is_zero()}

    def hom_pair(self, element: dict):
        """(source, target) shared by all generators of a formal sum."""
        if not element:
            raise ValueError("the zero element has no Hom pair")
        pairs = {(self.generators[g].source, self.generators[g].target) for g in element}
        if len(pairs) != 1:
            raise ValueError(f"element mixes Hom spaces: {sorted(pairs)}")
        return next(iter(pairs))

    def normalize(self, poly: SymPoly) -> SymPoly:
        return poly.normalize(self.constraints)

    # -- deformed operations ------------------------------------------------

    def _match_entry(self, entry: Entry, seq, slots):
        """All ways to read an entry as (b-insertions interleaved with seq).

        Returns a list of variable-name tuples, one per match, in depth-first
        order: a token read as the next input of ``seq`` comes before the
        same token read as a b-insertion.  The walk keeps its own stack, so
        a call leaves no reference cycle behind.
        """
        tokens = entry.inputs
        results = []
        stack = [(0, 0, ())]  # the sequence-input branch is pushed last, so popped first
        while stack:
            ti, si, acc = stack.pop()
            if ti == len(tokens):
                if si == len(seq):
                    results.append(acc)
                continue
            tok = tokens[ti]
            var = self.deformations.get(slots[si], {}).get(tok)
            if var is not None:
                stack.append((ti + 1, si, acc + (var,)))
            if si < len(seq) and tok == seq[si]:
                stack.append((ti + 1, si + 1, acc))
        return results

    def deformed_m(self, inputs, obj=None) -> dict:
        """m_k^{b_0,...,b_k} of formal sums, with all b-insertions.

        ``inputs`` is a list of formal sums (dicts generator -> SymPoly);
        for k = 0 pass an empty list and the object label, whose one basis
        sequence is the empty one with slots ``(obj,)``.

        Every input generator is looked up before anything is skipped, so
        an unknown one raises ``KeyError``.  Each basis sequence, taken in
        lexicographic order, is matched only against the entries indexed
        under its real inputs.  In any reading of an entry, the entry's
        tokens that are not deformation generators are exactly the
        sequence's generators that are not, in the same order; so dropping
        the deformation generators from both sides finds every entry that
        matches, also when the sequence passes a deformation generator as a
        real input.  The index, composability and the matches are read
        before any coefficient is multiplied, so a sequence that matches
        nothing costs no product.  A matched term is built in one fixed
        order, left to right: ``SymPoly.scalar(1)``, the input
        coefficients, the entry's coefficient, then each b-insertion's
        variable.  That fixes each output's generator and term order, and
        ``_solve_binomial`` reads the term order.
        """
        if inputs:
            factors = [[(g, c, self.generators[g]) for g, c in element.items()]
                       for element in inputs]
            sequences = itertools.product(*factors)
        elif obj is None:
            raise ValueError("m_0 needs the object label")
        else:
            sequences = [()]
        out: dict = {}
        for sequence in sequences:
            seq = tuple(g for g, _, _ in sequence)
            entries = self._entries_by_inputs.get(self._real_inputs(seq))
            if not entries:
                continue
            gens = [gen for _, _, gen in sequence]
            if any(a.target != b.source for a, b in zip(gens, gens[1:])):
                continue  # non-composable basis combination contributes nothing
            slots = (gens[0].source if gens else obj,) + tuple(gen.target for gen in gens)
            matches = [(entry, match) for entry in entries
                       for match in self._match_entry(entry, seq, slots)]
            if not matches:
                continue
            coeff = SymPoly.scalar(1)
            for _, c, _ in sequence:
                coeff = coeff * c
            for entry, match in matches:
                term = coeff * entry.coeff
                for var in match:
                    term = term * SymPoly.var(var)
                out[entry.output] = out.get(entry.output, SymPoly.zero()) + term
        return {
            g: c
            for g, c in ((g, self.normalize(c)) for g, c in out.items())
            if not c.is_zero()
        }

    def weak_mc_check(self, obj: str):
        """Return ("potential", W) or ("obstruction", generator, coefficient)."""
        m0 = self.deformed_m([], obj=obj)
        units = tuple(self.units[obj])
        for g, c in m0.items():
            if g not in units:
                return ("obstruction", g, c)
        if not m0:
            return ("potential", SymPoly.zero())
        w = m0.get(units[0], SymPoly.zero())
        for u in units[1:]:
            if m0.get(u, SymPoly.zero()) != w:
                return ("obstruction", u, m0.get(u, SymPoly.zero()))
        return ("potential", w)

    def potential(self, obj: str) -> SymPoly:
        kind, value = self.weak_mc_check(obj)
        if kind != "potential":
            raise ValueError(f"object {obj} is obstructed at {value}")
        return value


@dataclass
class CoordinateChange:
    """Solved variables as monomials in the remaining ones."""

    solved: dict  # variable -> SymPoly monomial
    constraints: dict

    def substitute(self, poly: SymPoly) -> SymPoly:
        return poly.substitute(self.solved).normalize(self.constraints)


def solve_isomorphism(model: AInfLocalModel, alpha: dict, unknowns) -> CoordinateChange:
    """Coordinate change making the candidate alpha a Floer cocycle.

    Collects m_1^{b,b'}(alpha) per output generator, equates the coefficients
    to zero and eliminates the unknown variables from binomial relations.
    Non-binomial or inconsistent systems are reported, not guessed at.
    """
    unknowns = tuple(unknowns)
    image = model.deformed_m([alpha])
    equations = [(g, c) for g, c in image.items()]
    solved: dict = {}

    def reduce(poly: SymPoly) -> SymPoly:
        return model.normalize(poly.substitute(solved))

    pending = list(equations)
    progress = True
    while pending and progress:
        progress = False
        remaining = []
        for g, poly in pending:
            cur = reduce(poly)
            if cur.is_zero():
                progress = True
                continue
            sol = _solve_binomial(cur, unknowns, solved)
            if sol is not None:
                var, expr = sol
                solved[var] = model.normalize(expr)
                progress = True
            else:
                remaining.append((g, poly))
        pending = remaining
    residuals = [(g, r) for g, p in pending if not (r := reduce(p)).is_zero()]
    if residuals:
        lines = ", ".join(f"{g}: {p}" for g, p in residuals)
        raise ValueError(f"isomorphism system not solvable by monomial relations ({lines})")
    return CoordinateChange(solved, model.constraints)


def _solve_binomial(poly: SymPoly, unknowns, solved):
    """From c1*M1 + c2*M2 = 0, isolate one unsolved unknown of exponent +-1."""
    if len(poly.terms) != 2:
        return None
    (k1, s1), (k2, s2) = poly.terms.items()
    for (area, mono), scalar, (oarea, omono), oscalar in (
        (k1, s1, k2, s2),
        (k2, s2, k1, s1),
    ):
        for var, exp in mono:
            if var not in unknowns or var in solved or exp not in (1, -1):
                continue
            others = [v for v, _ in mono if v != var and v in unknowns and v not in solved]
            if others or any(v in unknowns and v not in solved for v, _ in omono):
                continue
            rest = SymPoly.term(scalar, area, {v: e for v, e in mono if v != var})
            expr = SymPoly.term(-oscalar, oarea, dict(omono)) * rest.inv()
            return var, expr if exp == 1 else expr.inv()
    return None


def potential_invariance(model: AInfLocalModel, obj_from: str, obj_to: str, change: CoordinateChange) -> bool:
    """W_from == W_to after rewriting obj_to's variables via the change."""
    w_from = model.potential(obj_from)
    w_to = change.substitute(model.potential(obj_to))
    return model.normalize(w_from) == w_to


def variant_isomorphism(model: AInfLocalModel, a: int) -> CoordinateChange:
    """Coordinate change from the twisted candidate x^{a-1} P4 - Q4."""
    alpha = model.element([("P4", SymPoly.var("x", a - 1)), ("Q4", -1)])
    return solve_isomorphism(model, alpha, ("x'", "y'", "z'"))


def exact_reduce(model: AInfLocalModel) -> AInfLocalModel:
    """Rescale generators by their exact offsets, producing a T-free model.

    A generator g with offset f becomes g_ex = T^{f} g; an entry with inputs
    g_1..g_n, output h and area a acquires area a + f(g_1)+...+f(g_n) - f(h),
    which must vanish under the model's area constraints (the exactness
    certificate).  The reduced model's deformation variables are the exact
    variables x_ex = T^{-f} x.
    """
    if not model.offsets:
        raise ValueError(f"model {model.name} carries no exact offsets")

    def offset(g):
        return model.offsets.get(g, AreaExp.constant(0)).normalize(model.constraints)

    new_entries = []
    for entry in model.entries:
        scalar, area, mono = entry.coeff.single_term()
        shifted = area
        for g in entry.inputs:
            shifted = shifted + offset(g)
        shifted = (shifted - offset(entry.output)).normalize(model.constraints)
        if not shifted.is_zero():
            raise ValueError(
                f"entry {entry.inputs} -> {entry.output} is not exact: residual T^({shifted})"
            )
        new_entries.append(
            Entry(entry.inputs, entry.output, SymPoly.term(scalar, None, dict(mono)))
        )
    return replace(model, name=model.name + "_exact", entries=new_entries, offsets={})


# -- loading ----------------------------------------------------------------


def _area_from_json(spec) -> AreaExp:
    if spec is None:
        return AreaExp.constant(0)
    mapping = {k: Fraction(str(v)) for k, v in spec.items() if k != "_const"}
    const = Fraction(str(spec.get("_const", 0)))
    return AreaExp.of(mapping, const)


def load_model(name: str, spin: bool = True) -> AInfLocalModel:
    """Load a shipped model from the package data directory.

    ``spin=False`` drops the per-entry sign flips coming from the marked
    spin point, which exhibits the obstructed, trivial-spin case that the
    ``potential`` suite reports for ``seidel_pants``.
    """
    text = resources.files("tropmirror.data").joinpath(f"{name}.json").read_text()
    doc = json.loads(text)
    generators = {
        g["name"]: Generator(g["name"], g["source"], g["target"], int(g["degree"]))
        for g in doc["generators"]
    }
    entries = []
    for e in doc["entries"]:
        sign = int(e.get("sign", 1))
        if spin and e.get("spin_parity", 0) % 2:
            sign = -sign
        coeff = SymPoly.term(sign, _area_from_json(e.get("area")), e.get("vars", {}))
        entries.append(Entry(tuple(e["inputs"]), e["output"], coeff))
    constraints = {sym: _area_from_json(spec)
                   for sym, spec in doc.get("constraints", {}).items()}
    return AInfLocalModel(
        name=doc["name"],
        objects=tuple(doc["objects"]),
        generators=generators,
        units={k: tuple(v) for k, v in doc["units"].items()},
        variables={k: tuple(v) for k, v in doc.get("variables", {}).items()},
        deformations={k: dict(v) for k, v in doc["deformations"].items()},
        entries=entries,
        constraints=constraints,
        area_symbols=tuple(doc.get("area_symbols", ())),
        free_symbols=tuple(doc.get("free_symbols", ())),
        offsets={k: _area_from_json(v) for k, v in doc.get("offsets", {}).items()},
    )


def _check_entry_degrees(entry: Entry, generators: dict, model_name: str):
    """|output|' = 1 + sum |inputs|' over Z/2."""
    for g in entry.inputs + (entry.output,):
        if g not in generators:
            raise KeyError(f"{model_name}: unknown generator {g} in entry")
    degs = [generators[g].degree for g in entry.inputs]
    expected = (sum(degs) + 2 - len(degs)) % 2
    actual = generators[entry.output].degree % 2
    if expected != actual:
        raise ValueError(
            f"{model_name}: degree mismatch in entry {entry.inputs} -> {entry.output}"
        )


def random_area_assignment(model: AInfLocalModel, rng) -> dict:
    """Random positive rationals for the free symbols, extended to all symbols."""
    assignment = {
        s: Fraction(rng.randint(1, 40), rng.randint(1, 8)) for s in model.free_symbols
    }
    for sym in model.area_symbols:
        if sym in assignment:
            continue
        if sym in model.constraints:
            assignment[sym] = model.constraints[sym].normalize(model.constraints).evaluate(assignment)
        else:
            assignment[sym] = Fraction(rng.randint(1, 40), rng.randint(1, 8))
    return assignment
