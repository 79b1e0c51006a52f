"""Matrix factorizations from local strip data.

The localized mirror functor sends a Lagrangian path L to the pair
(Hom(L, reference object), -m_1^{0,b}); as the reference object runs over the
deformed immersed Lagrangians of a chart collection this produces matrix
factorizations of the chart potentials.  This module assembles those matrix
factorizations from curated strip tables (shipped as small A-infinity local
models whose module generators are the intersection points of L with the
reference object), takes cokernels in the singularity category by scripted
elementary moves, glues the factorizations across each finite edge of a
face of a tropical curve into a divisor line bundle (``glue_edge``: the
Prop "glueMF_12" chain map through the edge transition, and the section it
glues), and transforms morphisms between Lagrangian paths into morphisms of
matrix factorizations.  Those morphisms live in the dg category
``dgcat.mf_dg_piece`` of the factorizations: they are ``DgMorphism``s
between factorization names, and chain-map and composition checks use that
piece's ``d``, ``compose`` and ``equal``.

The cokernel routine is deliberately not a general Smith/Groebner engine: it
performs exactly the triangular basis changes the shipped presentations
admit (unit-coefficient elimination and reduction against monomial
relations) and reports any shape it cannot handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .ainf import AInfLocalModel, Entry, Generator
from .dgcat import DgMorphism, mf_dg_piece
from .symbolic import AreaExp, SymPoly
from .tropical import edge_exponents


# ---------------------------------------------------------------------------
# matrix factorizations
# ---------------------------------------------------------------------------


@dataclass
class MatrixFactorization:
    """Z/2-graded free module with an odd differential squaring to W * Id.

    ``delta`` maps each generator to its image as a formal sum
    {generator: SymPoly coefficient}; coefficients are Novikov monomial
    polynomials in the chart variables (exact mode is the special case of
    vanishing area forms).
    """

    name: str
    variables: tuple
    generators: tuple
    parity: dict  # generator -> 0 (even) or 1 (odd)
    delta: dict  # generator -> {generator: SymPoly}
    potential: SymPoly
    constraints: dict = field(default_factory=dict)

    def __post_init__(self):
        for g, col in self.delta.items():
            for h, c in col.items():
                if not c.is_zero() and self.parity[g] == self.parity[h]:
                    raise ValueError(f"delta does not swap parities at {g} -> {h}")

    @property
    def even(self) -> tuple:
        return tuple(g for g in self.generators if self.parity[g] == 0)

    @property
    def odd(self) -> tuple:
        return tuple(g for g in self.generators if self.parity[g] == 1)


def check_mf(mf: MatrixFactorization, assignment: dict = None):
    """delta^2 - W * Id, computed exactly; returns (ok, residual).

    delta^2 is a ``DgPiece.compose`` in the factorization's ``mf_dg_piece``.
    The comparison is symbolic under the model constraints.  With
    ``assignment`` every coefficient is first normalized and its areas are
    instantiated at those exact rationals, so the same check runs at one
    point of the area space.
    """
    if assignment is not None:
        def at_point(c):
            return c.normalize(mf.constraints).instantiate(assignment)
        mf = replace(
            mf, potential=at_point(mf.potential),
            delta={g: {h: at_point(c) for h, c in col.items()}
                   for g, col in mf.delta.items()})
    piece = mf_dg_piece([mf])
    delta = piece.object_d(mf.name)
    square = piece.compose(delta, delta).entries
    residual = {}
    w = mf.potential.normalize(mf.constraints)
    for g in mf.generators:
        sq = square.get(g, {})
        keys = set(sq) | {g}
        for k in keys:
            want = w if k == g else SymPoly.zero()
            r = (sq.get(k, SymPoly.zero()) - want).normalize(mf.constraints)
            if not r.is_zero():
                residual[(g, k)] = r
    return (not residual, residual)


def transform_object(model: AInfLocalModel, lag: str, deformation: str) -> MatrixFactorization:
    """Mirror matrix factorization of a Lagrangian path: delta = -m_1^{0,b}.

    ``lag`` names the module object (the Lagrangian path L) in the model;
    ``deformation`` names the deformed reference object whose chart the
    factorization lives on.  The strip entries of the model supply m_1 with
    all boundary insertions; the result is checked against the reference
    object's disc potential.
    """
    gens = [g for g in model.generators.values() if g.source == lag and g.target == deformation]
    if not gens:
        raise ValueError(f"model {model.name} has no Hom generators {lag} -> {deformation}")
    names = {g.name for g in gens}
    delta = {}
    for g in gens:
        image = model.deformed_m([{g.name: SymPoly.scalar(1)}])
        if set(image) - names:
            raise ValueError(f"strips carry {g.name} outside the module: {sorted(set(image) - names)}")
        delta[g.name] = {h: -c for h, c in image.items()}
    mf = MatrixFactorization(
        name=f"{model.name}:{lag}",
        variables=tuple(model.variables[deformation]),
        generators=tuple(g.name for g in gens),
        parity={g.name: g.degree % 2 for g in gens},
        delta=delta,
        potential=model.potential(deformation),
        constraints=dict(model.constraints),
    )
    ok, residual = check_mf(mf)
    if not ok:
        lines = ", ".join(f"{g}->{k}: {r}" for (g, k), r in residual.items())
        raise ValueError(f"model data inconsistency, delta^2 != W*Id ({lines})")
    return mf


# ---------------------------------------------------------------------------
# cokernels in the singularity category
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Summand:
    generator: str
    ideal: tuple  # canonical monomial strings
    trivial: bool


@dataclass(frozen=True)
class DSingClass:
    variables: tuple
    summands: tuple


def _is_unit(poly: SymPoly) -> bool:
    if len(poly.terms) != 1:
        return False
    (_, mono), _ = next(iter(poly.terms.items()))
    return not mono


def _mono_exponents(poly: SymPoly):
    """Variable exponents of a single-term coefficient, else None."""
    if len(poly.terms) != 1:
        return None
    (_, mono), _ = next(iter(poly.terms.items()))
    return dict(mono)


def _divides(small: dict, big: dict) -> bool:
    return all(big.get(v, 0) >= e for v, e in small.items())


def _canonical_monomial(poly: SymPoly) -> str:
    exps = _mono_exponents(poly)
    if exps is None:
        raise ValueError(f"not a monomial: {poly}")
    if not exps:
        return "1"
    return "*".join(f"{v}^{e}" if e != 1 else v for v, e in sorted(exps.items()))


def _expand(element: dict, subs: dict, drop=frozenset()) -> dict:
    """Rewrite a formal sum through the substitutions of eliminated generators.

    Generators in ``drop`` are projected away.  Substitutions may chain;
    more than 10,000 steps means they cycle.
    """
    out: dict = {}
    queue = list(element.items())
    steps = 0
    while queue:
        g, c = queue.pop()
        steps += 1
        if steps > 10000:
            raise ValueError("cokernel substitution does not terminate")
        if g in subs:
            queue.extend((h, c * d) for h, d in subs[g].items())
        elif g not in drop:
            out[g] = out.get(g, SymPoly.zero()) + c
    return {g: c for g, c in out.items() if not c.is_zero()}


def _reduce_presentation(mf: MatrixFactorization):
    """Scripted reduction of coker(delta: odd -> even).

    Moves: (a) eliminate a generator appearing in a relation with a unit
    coefficient, substituting into the other relations; (b) drop a term of a
    relation that is a monomial multiple of an established single-term
    monomial relation on the same generator.  Returns (live generators,
    monomial relations, substitutions for eliminated generators, trivial
    generator set).
    """
    relations = [
        {h: c for h, c in mf.delta.get(g, {}).items() if not c.is_zero()}
        for g in mf.odd
    ]
    relations = [r for r in relations if r]
    live = list(mf.even)
    subs: dict = {}
    changed = True
    while changed:
        changed = False
        # (a) unit eliminations
        for idx, rel in enumerate(relations):
            hit = next((g for g, c in rel.items() if _is_unit(c)), None)
            if hit is None:
                continue
            inv = rel[hit].inv()
            subs[hit] = {h: -(inv * c) for h, c in rel.items() if h != hit}
            live.remove(hit)
            del relations[idx]
            relations = [_expand(r, subs) for r in relations]
            relations = [r for r in relations if r]
            changed = True
            break
        if changed:
            continue
        # (b) reduction against monomial relations
        mono_rels = {}
        for rel in relations:
            if len(rel) == 1:
                (g, c), = rel.items()
                exps = _mono_exponents(c)
                if exps is not None and g not in mono_rels:
                    mono_rels[g] = exps
        for rel in relations:
            if len(rel) == 1 and _mono_exponents(next(iter(rel.values()))) is not None:
                continue
            for g in list(rel):
                small = mono_rels.get(g)
                if small is None:
                    continue
                kept = SymPoly.zero()
                dropped = False
                for (area, mono), scalar in rel[g].terms.items():
                    if _divides(small, dict(mono)):
                        dropped = True
                    else:
                        kept = kept + SymPoly.term(scalar, area, dict(mono))
                if dropped:
                    if kept.is_zero():
                        del rel[g]
                    else:
                        rel[g] = kept
                    changed = True
        relations = [r for r in relations if r]

    mono_rels: dict = {}
    for rel in relations:
        if len(rel) != 1:
            raise ValueError(
                f"cokernel presentation not reducible by the scripted moves: {rel}")
        (g, c), = rel.items()
        exps = _mono_exponents(c)
        if exps is None:
            raise ValueError(f"non-monomial relation survives reduction: {g}: {c}")
        if g in mono_rels and mono_rels[g] != exps:
            raise ValueError(f"generator {g} carries two distinct monomial relations")
        mono_rels[g] = exps
    full = {v: 1 for v in mf.variables}
    trivial = {g for g, exps in mono_rels.items() if exps == full}
    return live, mono_rels, subs, trivial


def cokernel_dsing(mf: MatrixFactorization) -> DSingClass:
    """Cokernel of delta from the odd to the even part, as cyclic summands.

    A summand R/I is flagged trivial exactly when its monomial ideal is
    generated by the full product of the chart variables.
    """
    live, mono_rels, _, trivial = _reduce_presentation(mf)
    summands = []
    for g in live:
        exps = mono_rels.get(g)
        ideal = ()
        if exps is not None:
            ideal = (_canonical_monomial(SymPoly.term(1, None, exps)),)
        summands.append(Summand(g, ideal, g in trivial))
    return DSingClass(tuple(mf.variables), tuple(summands))


# ---------------------------------------------------------------------------
# shipped strip models
# ---------------------------------------------------------------------------

# Floer products and Hom generators are shipped for indices up to DEPTH.
DEPTH = 3


def _chart_model(name, paths, strips, *, area=None, suffix="", units=None) -> AInfLocalModel:
    """Lagrangian paths against the vertex chart S<suffix>.

    The chart supplies the unit e, the corners X, Y, Z deformed by the chart
    variables x, y, z, and the W entry X Y Z -> e with T^{area}; the
    ``paths`` generators and their ``strips`` follow.  The area and free
    symbols are those of ``area``.  A path object has no unit unless
    ``units`` names one.
    """
    chart = "S" + suffix
    corners = tuple(c + suffix for c in "XYZ")
    gens = [Generator("e" + suffix, chart, chart, 0)]
    gens += [Generator(c, chart, chart, 1) for c in corners] + paths
    objects = tuple(dict.fromkeys(g.source for g in gens))
    symbols = tuple(s for s, _ in area.coeffs) if area is not None else ()
    units = {chart: ("e" + suffix,), **{obj: () for obj in objects[1:]}, **(units or {})}
    return AInfLocalModel(
        name=name,
        objects=objects,
        generators={g.name: g for g in gens},
        units=units,
        variables={chart: tuple(c.lower() for c in corners)},
        deformations={chart: {c: c.lower() for c in corners}},
        entries=[Entry(corners, "e" + suffix, SymPoly.term(1, area))] + strips,
        area_symbols=symbols,
        free_symbols=symbols,
    )


def _z_face_path(prime=""):
    """Generators and strips of the path L<prime> around the z-face of S.

    The generators are A<prime> (odd) and B<prime> (even); the strips give
    delta: A -> z B, B -> xy A.
    """
    obj, a, b = "L" + prime, "A" + prime, "B" + prime
    return ([Generator(a, obj, "S", 1), Generator(b, obj, "S", 0)],
            [Entry((a, "Z"), b, SymPoly.scalar(-1)),
             Entry((b, "X", "Y"), a, SymPoly.scalar(-1))])


def pants_strip_model() -> AInfLocalModel:
    """L around a face with no finite edge, against the vertex chart.

    The two strips cut the reference triangle in two: the z-corner piece and
    the xy piece, giving delta: A -> z B, B -> xy A.
    """
    return _chart_model("pants_strip", *_z_face_path())


def nonadjacent_strip_model() -> AInfLocalModel:
    """L against a chart whose vertex is not adjacent to the face of L.

    The strips either involve no corner or all three corners once, so the
    cokernel is a single trivial summand.
    """
    return _chart_model(
        "nonadjacent_strip",
        [Generator("A", "L", "S", 1), Generator("B", "L", "S", 0)],
        [Entry(("A", "X", "Y", "Z"), "B", SymPoly.scalar(-1)),
         Entry(("B",), "A", SymPoly.scalar(-1))])


def winding_strip_model(m: int, exact: bool = False) -> AInfLocalModel:
    """L winding m times around a finite edge, against the stretched chart S1.

    Generators pair off as C_i (odd), D_i (even) for i = 0..2m; the strip
    table is the local-factorization family of the stretched chart, whose
    reference triangle has area A (zero in exact mode).
    """
    if m < 0:
        raise ValueError("winding strip data is shipped for m >= 0")
    area = None if exact else AreaExp.sym("A")
    gens = []
    for i in range(2 * m + 1):
        gens.append(Generator(f"C{i}", "L", "S1", 1))
        gens.append(Generator(f"D{i}", "L", "S1", 0))
    entries = []

    def strip(inputs, output, sign, with_area=False):
        entries.append(Entry(tuple(inputs), output, SymPoly.term(-sign, area if with_area else None)))

    strip(("C0", "Z1"), "D0", 1)
    strip(("D0", "X1", "Y1"), "C0", 1, with_area=True)
    if m >= 1:
        strip(("C1",), "D1", 1, with_area=True)
        strip(("C1",), "D0", -1)
        strip(("D1", "X1", "Y1", "Z1"), "C1", 1)
        strip(("D1", "X1", "Y1"), "C0", 1)
    for k in range(1, m + 1):
        strip((f"C{2*k}", "X1", "Y1", "Z1"), f"D{2*k}", -1)
        strip((f"C{2*k}", "X1", "Z1"), f"D{2*k-1}", 1)
        strip((f"D{2*k}",), f"C{2*k}", -1, with_area=True)
        strip((f"D{2*k}", "X1", "Z1"), f"C{2*k-1}", 1)
        strip((f"D{2*k}", "X1"), f"C{2*k-2}", 1)
    for k in range(1, m):
        strip((f"C{2*k+1}",), f"D{2*k+1}", 1, with_area=True)
        strip((f"C{2*k+1}", "X1", "Y1"), f"D{2*k}", 1)
        strip((f"C{2*k+1}", "X1"), f"D{2*k-1}", -1)
        strip((f"D{2*k+1}", "X1", "Y1", "Z1"), f"C{2*k+1}", 1)
        strip((f"D{2*k+1}", "X1", "Y1"), f"C{2*k}", 1)
    return _chart_model(f"winding_strip_m{m}" + ("_exact" if exact else ""),
                        gens, entries, area=area, suffix="1")


def infinite_edge_model() -> AInfLocalModel:
    """Endomorphisms of L at the infinite edges of a non-compact face.

    P_i (i in Z) are the wrapped endomorphism generators; the strip counts
    send P_0 to the identity, P_i to multiplication by x^i for i > 0 and by
    y^{|i|} for i <= 0.  Floer products m_2(P_i, P_j) = P_{i+j} are shipped
    for |i|, |j| <= DEPTH.  Exact convention: all strip areas vanish.
    """
    top = 2 * DEPTH
    gens, entries = _z_face_path()
    gens += [Generator(f"P{i}", "L", "L", 0) for i in range(-top, top + 1)]
    for i in range(-top, top + 1):
        insert = ("X",) * i if i > 0 else ("Y",) * (-i)
        for psi in ("A", "B"):
            entries.append(Entry((f"P{i}", psi) + insert, psi, SymPoly.scalar(1)))
    for i in range(-DEPTH, DEPTH + 1):
        for j in range(-DEPTH, DEPTH + 1):
            entries.append(Entry((f"P{i}", f"P{j}"), f"P{i+j}", SymPoly.scalar(1)))
    return _chart_model(f"infinite_edge_d{DEPTH}", gens, entries, units={"L": ("P0",)})


def same_face_hom_model() -> AInfLocalModel:
    """H_i between paths around the same face, differing windings m' > m.

    Both paths meet the vertex chart at two points; the strip counts send
    H_i to A' -> x^{i-1} A, B' -> x^{i-1} B for i = 1..DEPTH.
    """
    gens, entries = _z_face_path()
    gens_p, strips_p = _z_face_path("p")
    gens += gens_p + [Generator(f"H{i}", "L", "Lp", 0) for i in range(1, DEPTH + 1)]
    entries += strips_p
    for i in range(1, DEPTH + 1):
        insert = ("X",) * (i - 1)
        entries.append(Entry((f"H{i}", "Ap") + insert, "A", SymPoly.scalar(1)))
        entries.append(Entry((f"H{i}", "Bp") + insert, "B", SymPoly.scalar(1)))
    return _chart_model(f"same_face_hom_d{DEPTH}", gens, entries)


def different_face_hom_model() -> AInfLocalModel:
    """H_i between paths around the two faces adjacent to a finite edge.

    L circulates the z-face and Lp the y-face of the shared vertex chart, so
    the Lp factorization is A' -> -xz B', B' -> -y A' (parities swapped); the
    strip counts send H_i to A' -> x^i A, B' -> x^{i-1} B.  The signs of the
    Lp differential are forced: flipping either breaks delta^2 = W.
    """
    gens, entries = _z_face_path()
    gens += [Generator("Ap", "Lp", "S", 0), Generator("Bp", "Lp", "S", 1)]
    gens += [Generator(f"H{i}", "L", "Lp", 1) for i in range(1, DEPTH + 1)]
    entries += [Entry(("Ap", "X", "Z"), "Bp", SymPoly.scalar(1)),
                Entry(("Bp", "Y"), "Ap", SymPoly.scalar(1))]
    for i in range(1, DEPTH + 1):
        entries.append(Entry((f"H{i}", "Ap") + ("X",) * i, "A", SymPoly.scalar(1)))
        entries.append(Entry((f"H{i}", "Bp") + ("X",) * (i - 1), "B", SymPoly.scalar(1)))
    return _chart_model(f"different_face_hom_d{DEPTH}", gens, entries)


def infinite_edge_q_model() -> AInfLocalModel:
    """Q_0 between paths around the two faces adjacent to an infinite edge.

    L circulates the z-face and Lp the y-face; the strips send A to B' and B
    to -x A', the sign forced by the chain-map condition.
    """
    gens, entries = _z_face_path()
    gens += [Generator("Ap", "Lp", "S", 1), Generator("Bp", "Lp", "S", 0),
             Generator("Q0", "Lp", "L", 1)]
    entries += [
        Entry(("Ap", "Y"), "Bp", SymPoly.scalar(-1)),
        Entry(("Bp", "X", "Z"), "Ap", SymPoly.scalar(-1)),
        Entry(("Q0", "A"), "Bp", SymPoly.scalar(1)),
        Entry(("Q0", "B", "X"), "Ap", SymPoly.scalar(-1)),
    ]
    return _chart_model("infinite_edge_q", gens, entries)


# ---------------------------------------------------------------------------
# gluing into divisor line bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisorLineBundle:
    """Divisor sum_e coefficient_e * {z_e = 0} on the face divisor."""

    face: tuple
    coefficients: dict  # finite edge id -> integer a2 + m

    @property
    def is_structure_sheaf(self) -> bool:
        return all(c == 0 for c in self.coefficients.values())

    def to_dict(self) -> dict:
        return {
            "face": [str(c) for c in self.face],
            "edges": dict(sorted(self.coefficients.items())),
            "structure_sheaf": self.is_structure_sheaf,
        }


def finite_edge_column(x: str, y: str, m: int, a2: int) -> dict:
    """B's column of the finite-edge gluing: B -> -x^{a2} x (-y D_{2m} + D_{2m-1}).

    For m = 0 both factorizations are two-by-two and the column is
    B -> -x^{a2} D0.  The -1 is the sign relative to A's column that the
    chain map of ``glue_edge`` pins.
    """
    if m == 0:
        return {"D0": SymPoly.term(-1, None, {x: a2})}
    return {f"D{2*m}": SymPoly.term(1, None, {x: a2 + 1, y: 1}),
            f"D{2*m-1}": SymPoly.term(-1, None, {x: a2 + 1})}


class GluingCheckFailed(ValueError):
    """A finite-edge gluing failed a mathematical check of ``glue_objects``."""


def section_vanishing_order(mf: MatrixFactorization, m: int, a2: int) -> int:
    """Order of vanishing at x1 = 0 of the glued section of the cokernel.

    Traces ``finite_edge_column`` through the cokernel reduction of the
    winding factorization, projecting away the trivial summands; the result
    is the exponent of the surviving multiple of D0 (the divisor integer,
    independent of the sign and of any Novikov unit).  A section that does
    not land on D0, or is not a power of x1 there, raises
    ``GluingCheckFailed``.
    """
    _, _, subs, trivial = _reduce_presentation(mf)
    x, y = mf.variables[:2]
    out = _expand(finite_edge_column(x, y, m, a2), subs, drop=trivial)
    if set(out) != {"D0"}:
        raise GluingCheckFailed(f"glued section does not land on D0: {sorted(out)}")
    exps = _mono_exponents(out["D0"])
    if exps is None or set(exps) - {x}:
        raise GluingCheckFailed(f"glued section is not a power of {x}: {out['D0']}")
    return exps.get(x, 0)


def glue_edge(m: int, a1: int, a2: int) -> dict:
    """The Prop "glueMF_12" gluing across a finite edge, exact mode.

    Traces B's column ``finite_edge_column`` through the cokernel of the
    winding-m factorization on the stretched chart first
    (``section_vanishing_order``).  Then it rewrites the pants
    factorization of the vertex chart through the edge transition, whose
    rows ``tropical.edge_exponents`` gives at d = a2 - a1, and checks that
    the gluing A -> -x1^{a1} C_{2m}, with that column on B, is a chain map;
    ``mf_dg_piece`` rejects the pair unless the potentials agree.  The
    chain map forces only the sign of B's column relative to A's (the
    negated map is a chain map too); that sign is the -1 on B.
    """
    return _glue_edge(transform_object(pants_strip_model(), "L", "S"),
                      transform_object(winding_strip_model(m, exact=True), "L", "S1"),
                      m, a1, a2)


def _glue_edge(pants, wind, m: int, a1: int, a2: int) -> dict:
    """``glue_edge`` with the pants and winding-m factorizations given."""
    section = section_vanishing_order(wind, m, a2)
    # the pants factorization written in the winding chart's variables
    transition = {v: SymPoly.term(1, None, dict(zip(wind.variables, row)))
                  for v, row in zip(pants.variables, edge_exponents(a2 - a1))}
    rewritten = replace(
        pants, variables=wind.variables, potential=pants.potential.substitute(transition),
        delta={g: {h: c.substitute(transition) for h, c in col.items()}
               for g, col in pants.delta.items()})
    x1, y1, _ = wind.variables
    glue = {"A": {f"C{2*m}": SymPoly.term(-1, None, {x1: a1})},
            "B": finite_edge_column(x1, y1, m, a2)}
    piece = mf_dg_piece([rewritten, wind])
    chain_map = piece.d(piece.morphism(rewritten.name, wind.name, 0, glue)).is_zero()
    return {"ok": chain_map and section == a2 + m, "chain_map": chain_map,
            "section_vanishing_order": section}


def glue_objects(curve, face_point, windings) -> DivisorLineBundle:
    """Glue the local factorizations of L around a face into a divisor.

    On each finite edge adjacent to the face with winding m >= 0,
    ``glue_edge`` at the edge's own a1 and a2 traces the section gluing
    B -> x1^{a2+m} D0 through the cokernel reduction of the exact winding
    factorization, whose vanishing order is the divisor coefficient, and
    checks that the gluing is a chain map.  A failed check (a section off
    D0, not a power of x1 or of the wrong order, or no chain map) raises
    ``GluingCheckFailed``, while a bad face or winding raises a plain
    ``ValueError``.  An edge with m < 0 is not certified: no winding
    factorization exists below 0, so its coefficient a2 + m is asserted
    from the winding recursion (each extra turn multiplies the section by
    x1), not traced.  The coefficients are Novikov-unit free, hence
    independent of the immersed area bookkeeping and of how the edge area
    is split.
    """
    point = tuple(Fraction(str(c)) for c in face_point)
    where = ",".join(str(c) for c in point)
    faces = curve.faces()
    if point not in faces:
        raise ValueError(f"no face with dual point {where}")
    finite = sorted({eid for _, eid in faces[point] if curve.edges[eid].finite})
    errors = [f"winding {eid!r}: names no finite edge of face {where}"
              for eid in sorted(set(windings) - set(finite))]
    errors += [f"no winding for finite edge {eid} of face {where}"
               for eid in finite if eid not in windings]
    if errors:
        raise ValueError("; ".join(errors))
    # each distinct factorization is built once, for every edge that uses it
    winds = {m: transform_object(winding_strip_model(m, exact=True), "L", "S1")
             for m in {int(windings[eid]) for eid in finite} if m >= 0}
    pants = transform_object(pants_strip_model(), "L", "S") if winds else None
    coefficients = {}
    for eid in finite:
        m = int(windings[eid])
        a2 = curve.a2(eid)
        if m >= 0:
            glued = _glue_edge(pants, winds[m], m, curve.edges[eid].a1, a2)
            k = glued["section_vanishing_order"]
            if k != a2 + m:
                raise GluingCheckFailed(
                    f"traced vanishing order {k} on edge {eid} disagrees with a2+m={a2+m}")
            if not glued["chain_map"]:
                raise GluingCheckFailed(f"gluing on edge {eid} is not a chain map")
        coefficients[eid] = a2 + m
    return DivisorLineBundle(point, coefficients)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def transform_morphism(model: AInfLocalModel, morphism, source_mf: MatrixFactorization,
                       target_mf: MatrixFactorization) -> DgMorphism:
    """Induced map of matrix factorizations: psi -> m_2^{b}(f, psi).

    ``morphism`` is a generator name or a formal sum in the model;
    ``source_mf``/``target_mf`` are the factorizations of the two Lagrangian
    paths on the same chart.  The result is a morphism of
    ``mf_dg_piece([source_mf, target_mf])`` between the two names; when the
    input is a Floer cocycle its differential in that piece vanishes.
    """
    element = {morphism: SymPoly.scalar(1)} if isinstance(morphism, str) else dict(morphism)
    entries: dict = {}
    degrees = set()
    for psi in source_mf.generators:
        image = model.deformed_m([element, {psi: SymPoly.scalar(1)}])
        if set(image) - set(target_mf.generators):
            raise ValueError(f"image of {psi} leaves the target module: {sorted(image)}")
        if image:
            entries[psi] = image
            for h in image:
                degrees.add((target_mf.parity[h] - source_mf.parity[psi]) % 2)
    if len(degrees) > 1:
        raise ValueError("morphism image has mixed parity")
    degree = degrees.pop() if degrees else 0
    return DgMorphism(source_mf.name, target_mf.name, degree, entries)


def composition_check(model: AInfLocalModel, i: int, j: int) -> bool:
    """transform(m_2(P_i, P_j)) equals transform(P_i) o transform(P_j).

    The comparison is made on the glued annular chart of the non-compact
    divisor component carrying the endomorphisms, where the coordinates at
    the two infinite ends multiply to 1 (the critical-locus cylinder on
    which the edge coordinate is a Novikov unit); concretely y is rewritten
    as x^{-1} before comparing.  Mixed products such as transform(P_1) o
    transform(P_-1) = xy * Id are then literally neither pure power, but
    their class equals the image of P_{i+j}.
    """
    mf = transform_object(model, "L", "S")
    piece = mf_dg_piece([mf])
    phi_i = transform_morphism(model, f"P{i}", mf, mf)
    phi_j = transform_morphism(model, f"P{j}", mf, mf)
    product = model.deformed_m([
        {f"P{i}": SymPoly.scalar(1)}, {f"P{j}": SymPoly.scalar(1)}])
    if not product:
        return False
    phi_sum = transform_morphism(model, product, mf, mf)
    glue = {"y": SymPoly.var("x", -1)}

    def reduced(phi):
        return replace(phi, entries={
            g: {h: c.substitute(glue).normalize(model.constraints) for h, c in col.items()}
            for g, col in phi.entries.items()})

    lhs = reduced(piece.compose(phi_i, phi_j))
    rhs = reduced(phi_sum)
    return piece.equal(lhs, rhs)
