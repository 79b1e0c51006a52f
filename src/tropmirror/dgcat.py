"""Sign layer, homotopy fiber products, and the global functor.

Implements, following Appendix A of the paper:

  A.1  the A-infinity structure of a dg category with reversed morphisms
       (m1 = ``d``, m2 as ``m2_term``),
  A.2  the homotopy fiber product B x^h_D C of dg categories over dg
       functors G: B -> D, L: C -> D (``HomotopyFiberProduct`` with its
       ``d`` and ``compose``),
  A.3  pre-natural transformations between A-infinity functors with dg
       target, their differential M1 and product M2 (``nat_M1`` /
       ``nat_M2``),

and uses them to verify, over the shipped finite local models,

  * Theorem 12.1 / Lemma "n0hptyeq": the Yoneda functors of an isomorphism
    pair (alpha, beta) are quasi-isomorphic, with the explicit homotopy H
    (``yoneda_equivalence_check``),
  * Prop 13.2: the object and morphism triples (F^{L1}(L), F^{L0}(L),
    N01(L)) satisfy the A-infinity functor equation into the homotopy
    fiber product (``functor_equation_check``), and with one chart they
    degenerate to F^L (``one_chart_degenerate_check``),
  * the table-only A-infinity relations of each curated table
    (``model_ainf_check``),
  * Section 11: the flop coordinate change intertwines the two gluings,
    preserves W, and the two-circle differential table closes
    (``flop_check``).

The ``functor``, ``natural-transformations`` and ``flop`` verify suites
report them.

Every dg category here -- a finite ``DgPiece``, the Yoneda complexes of a
local model (``YonedaPiece``) and a ``HomotopyFiberProduct`` -- offers
``d``, ``combine`` (a signed sum of composites in one pass) and
``identity``.  ``combine`` is the only linear operation, and the A.1 m2 is
one of its terms (``m2_term``), so M1 and M2 of A.3 on the Yoneda complexes
and the Prop 13.2 functor equation on their fiber product each build one.
Matrix factorizations form a ``DgPiece`` too (``mf_dg_piece``): the
morphisms ``mf.transform_morphism`` builds are its ``DgMorphism``s, so the
Section 10.2 chain-map and composition checks and the signs of the
Prop "glueMF_12" gluing (``mf.glue_edge``) all use the one Hom-complex
differential of ``DgPiece.d``.

Verification scope
------------------

The structure-constant tables are finite transcriptions of the paper's
polygon counts.  Identities that consume table data are therefore checked
on the *isomorphism sector* -- all composable tuples drawn from alpha, the
unit-normalized beta and the identity elements -- at arities <= 2 by
default (configurable to 3).  That sector is exactly where the paper
expands the identities; the arity bound and domain are a declared
verification scope, not a numerical tolerance.  Identities that are formal
consequences of the unit conventions (M1(N_id) = 0 and the M2 unit laws)
are checked on arbitrary generator tuples.

Sign conventions (Appendix A): Hom_{A-infinity}(E, F) is Hom_dg(F, E), so
an A-infinity morphism is stored as the underlying dg map in the reversed
direction; m2(phi, psi) = (-1)^{|phi|} phi o psi; the dg differential on a
Yoneda complex Hom(C, L) is -m1, matching the matrix-factorization
convention delta = -m1^{0,b} of Def 2.4.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import ainf as ainf_mod
from .ainf import AInfLocalModel, CoordinateChange, Entry, Generator, solve_isomorphism, verify_isomorphism
from .signs import shifted, shifted_sum, sign_pow
from .symbolic import AreaExp, SymPoly


# ---------------------------------------------------------------------------
# dg pieces: finite complexes with explicit matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DgModule:
    """One object of a dg piece: a finite graded module with differential.

    ``basis`` lists (label, degree); ``d`` maps a label to its image column
    {label: SymPoly}.  For curved objects (matrix factorizations) d need not
    square to zero on the module -- only the induced Hom differentials must,
    which ``DgPiece.validate`` checks.
    """

    name: str
    basis: tuple
    d: dict

    def degree(self, label: str) -> int:
        for g, deg in self.basis:
            if g == label:
                return deg
        raise KeyError(f"{self.name} has no basis element {label}")

    def labels(self) -> tuple:
        return tuple(g for g, _ in self.basis)


@dataclass
class DgMorphism:
    """Matrix of a graded map between dg modules: entries[src][tgt]."""

    src: str
    tgt: str
    degree: int
    entries: dict

    def is_zero(self) -> bool:
        return all(c.is_zero() for col in self.entries.values() for c in col.values())


class DgPiece:
    """Finitely many dg modules with the induced Hom-complex structure.

    Morphism composition is ordinary matrix composition; the differential of
    a morphism is d(f) = d_N o f - (-1)^{|f|} f o d_M.  With ``mod2`` the
    grading (and all degree signs) are taken modulo 2, which is the matrix
    factorization case.  ``compose`` and ``d`` are both ``combine``.
    """

    def __init__(self, modules: dict, mod2: bool = False):
        self.modules = dict(modules)
        self.mod2 = mod2

    def _deg(self, n: int) -> int:
        return n % 2 if self.mod2 else n

    def module(self, obj: str) -> DgModule:
        return self.modules[obj]

    def morphism(self, src: str, tgt: str, degree: int, entries: dict) -> DgMorphism:
        """Build a morphism, checking degree homogeneity of the entries."""
        ms, mt = self.modules[src], self.modules[tgt]
        clean: dict = {}
        for g, col in entries.items():
            keep = {h: c for h, c in col.items() if not c.is_zero()}
            for h in keep:
                if self._deg(mt.degree(h) - ms.degree(g) - degree) != 0:
                    raise ValueError(
                        f"entry {g} -> {h} violates degree {degree} homogeneity")
            if keep:
                clean[g] = keep
        return DgMorphism(src, tgt, self._deg(degree), clean)

    def zero(self, src: str, tgt: str, degree: int) -> DgMorphism:
        return DgMorphism(src, tgt, self._deg(degree), {})

    def identity(self, obj: str) -> DgMorphism:
        one = SymPoly.scalar(1)
        return DgMorphism(obj, obj, 0, {g: {g: one} for g in self.modules[obj].labels()})

    def combine(self, terms) -> DgMorphism:
        """sum sign * (g o f) over the (sign, g, f) of ``terms``, sign 1 or -1,
        with one ``SymPoly.sum_of_products`` per entry; all terms need one shape."""
        terms = tuple(terms)
        shape = _one_shape(self, terms)
        products: dict = {}
        for sign, g, f in terms:
            for a, col in f.entries.items():
                for b, c in col.items():
                    for h, e in g.entries.get(b, {}).items():
                        products.setdefault((a, h), []).append((sign, c, e))
        entries: dict = {}
        for (a, h), triples in products.items():
            if (v := SymPoly.sum_of_products(triples)).terms:
                entries.setdefault(a, {})[h] = v
        return DgMorphism(*shape, entries)

    def compose(self, g: DgMorphism, f: DgMorphism) -> DgMorphism:
        """g after f (plain dg composition, no sign)."""
        return self.combine(((1, g, f),))

    def object_d(self, obj: str) -> DgMorphism:
        """The module differential of ``obj`` as a degree-1 endomorphism."""
        return DgMorphism(obj, obj, 1, self.modules[obj].d)

    def d_terms(self, f) -> tuple:
        """The two ``combine`` terms of d(f) = d_tgt o f - (-1)^{|f|} f o d_src."""
        return ((1, self.object_d(f.tgt), f), (-sign_pow(f.degree), f, self.object_d(f.src)))

    def d(self, f: DgMorphism) -> DgMorphism:
        return self.combine(self.d_terms(f))

    def equal(self, f: DgMorphism, g: DgMorphism) -> bool:
        """f == g, read off the two entry tables without subtracting.

        Zero entries and empty columns are dropped first.  This relies on
        ``symbolic``'s invariant: polynomials keep canonical term dicts and
        are never mutated, so equal entries have equal dicts.
        """
        if (g.src, g.tgt, g.degree) != (f.src, f.tgt, f.degree):
            raise ValueError("morphism comparison shape mismatch")
        return _nonzero_table(f) == _nonzero_table(g)

    def basis_morphisms(self, src: str, tgt: str):
        """All matrix units Hom(src, tgt) with their degrees."""
        ms, mt = self.modules[src], self.modules[tgt]
        for g, dg in ms.basis:
            for h, dh in mt.basis:
                yield DgMorphism(src, tgt, self._deg(dh - dg), {g: {h: SymPoly.scalar(1)}})

    def validate(self) -> dict:
        """Check d^2 = 0 on Hom complexes and the category axioms."""
        failures = []
        objs = sorted(self.modules)
        for a in objs:
            for b in objs:
                for f in self.basis_morphisms(a, b):
                    if not self.d(self.d(f)).is_zero():
                        failures.append(("d2", a, b))
                        break
        for a in objs:
            ida = self.identity(a)
            if not self.d(ida).is_zero():
                failures.append(("identity not closed", a))
        return {"ok": not failures, "failures": failures}


def _one_shape(piece, terms) -> tuple:
    """The (src, tgt, degree) of every g o f over the (sign, g, f) of ``terms``."""
    if not terms:
        raise ValueError("combine needs at least one term")
    _, g, f = terms[0]
    shape = (f.src, g.tgt, piece._deg(f.degree + g.degree))
    for _, g, f in terms:
        if f.tgt != g.src or (f.src, g.tgt, piece._deg(f.degree + g.degree)) != shape:
            ends = [(f.src, f.tgt, g.src, g.tgt) for _, g, f in terms]
            raise ValueError(f"not one shape of composites: {ends}")
    return shape


def _nonzero_table(f: DgMorphism) -> dict:
    """The term dicts of ``f``'s nonzero entries, column by column."""
    table = {}
    for g, col in f.entries.items():
        kept = {h: c.terms for h, c in col.items() if c.terms}
        if kept:
            table[g] = kept
    return table


def mf_dg_piece(factorizations) -> DgPiece:
    """The dg category of matrix factorizations of a fixed chart potential.

    Each object's module differential is the factorization's delta, i.e. the
    -m1^{0,b} convention of Def 2.4 as produced by ``mf.transform_object``;
    delta^2 = W Id is central, so all Hom complexes square to zero.  All
    objects must factor the same chart potential: across different
    potentials the Hom spaces are not complexes.  ``d`` does not normalize
    area forms: factorization entries come normalized from ``deformed_m``,
    and sums and products of normalized forms stay normalized.
    """
    potentials = [f.potential for f in factorizations]
    for w in potentials[1:]:
        if w != potentials[0]:
            raise ValueError(
                "matrix factorizations of different potentials do not form a dg piece")
    modules = {}
    for mf in factorizations:
        basis = tuple((g, mf.parity[g]) for g in mf.generators)
        modules[mf.name] = DgModule(mf.name, basis, {g: dict(col) for g, col in mf.delta.items()})
    return DgPiece(modules, mod2=True)


# ---------------------------------------------------------------------------
# A.1: the A-infinity structure of a dg category
# ---------------------------------------------------------------------------


def contractions(args, degrees, m):
    """Each contraction (a1, m(a2), a3) of ``args``, a2 nonempty, with its sign.

    Yields (sign, contracted tuple) with sign (-1)^{|a1|'}; ``degrees`` are
    the degrees of ``args``.  A contraction whose inner value is a zero
    model element (an empty dict) is skipped: every term built on it
    vanishes.
    """
    args = tuple(args)
    for i in range(len(args)):
        sign = sign_pow(shifted_sum(degrees[:i]))
        for j in range(i + 1, len(args) + 1):
            inner = m(args[i:j])
            if isinstance(inner, dict) and not inner:
                continue
            yield sign, args[:i] + (inner,) + args[j:]


def m2_term(sign, phi, psi) -> tuple:
    """The ``combine`` term of sign * m2(phi, psi), in any dg category here.

    A.1 reverses every morphism: an element of Hom_{A-infinity}(E, F) is
    stored as the dg map F -> E, so a composable A-infinity tuple
    (a_1, ..., a_k) is a chain with a_{i+1}.tgt == a_i.src.  Then m1 = d
    (``d_terms``), m2(phi, psi) = (-1)^{|phi|} phi o psi and m_{>=3} = 0.
    """
    return sign * sign_pow(phi.degree), phi, psi


# ---------------------------------------------------------------------------
# A.2: homotopy fiber product of dg categories
# ---------------------------------------------------------------------------


@dataclass
class DgFunctor:
    """A dg functor that is the identity on objects, given by its morphism action."""

    source: object
    target: object
    mor_map: object  # callable morphism -> morphism

    def __call__(self, f):
        return self.mor_map(f)


def identity_functor(piece) -> DgFunctor:
    return DgFunctor(piece, piece, lambda f: f)


def conjugation_functor(piece: DgPiece, units: dict) -> DgFunctor:
    """F(M) = M, F(f) = u_N o f o u_M^{-1} for closed invertible degree-0 u.

    ``units`` maps each object to a pair (u, u_inverse) of degree-0
    morphisms; closedness of u makes this a dg functor.
    """
    for obj, (u, u_inv) in units.items():
        if not piece.d(u).is_zero():
            raise ValueError(f"conjugator at {obj} is not closed")
        if not piece.equal(piece.compose(u, u_inv), piece.identity(obj)):
            raise ValueError(f"conjugator at {obj}: inverse certificate fails")
        if not piece.equal(piece.compose(u_inv, u), piece.identity(obj)):
            raise ValueError(f"conjugator at {obj}: inverse certificate fails")

    def act(f: DgMorphism) -> DgMorphism:
        u_tgt = units[f.tgt][0]
        u_src_inv = units[f.src][1]
        return piece.compose(u_tgt, piece.compose(f, u_src_inv))

    return DgFunctor(piece, piece, act)


@dataclass
class HfpObject:
    """Object (M, N, phi) with phi: G(M) -> L(N) closed, degree 0, invertible.

    ``HomotopyFiberProduct.object`` certifies a given strict inverse once,
    at construction, and does not keep it; objects whose phi is invertible
    only up to homotopy are built directly.
    """

    M: str
    N: str
    phi: DgMorphism


@dataclass
class FiberProductMorphism:
    """Morphism (mu, nu, gamma) of degree i with gamma of degree i-1."""

    src: HfpObject
    tgt: HfpObject
    mu: DgMorphism
    nu: DgMorphism
    gamma: DgMorphism
    degree: int

    def is_zero(self) -> bool:
        return self.mu.is_zero() and self.nu.is_zero() and self.gamma.is_zero()


class HomotopyFiberProduct:
    """B x^h_D C over dg functors G: B -> D and L: C -> D (Appendix A.2).

    B, C and D are dg categories with the ``DgPiece`` operations; the fiber
    product offers the same ones, so ``m2_term`` and ``combine`` give its
    A.1 structure too.
    """

    def __init__(self, B, C, D, G: DgFunctor, L: DgFunctor):
        if G.target is not D or L.target is not D:
            raise ValueError("G and L must land in D")
        self.B, self.C, self.D, self.G, self.L = B, C, D, G, L

    # -- objects -------------------------------------------------------------

    def object(self, M: str, N: str, phi: DgMorphism, inverse: DgMorphism) -> HfpObject:
        """The object (M, N, phi), certifying ``inverse`` as a two-sided inverse of phi."""
        if (phi.src, phi.tgt) != (M, N):
            raise ValueError(f"phi must map G({M}) -> L({N})")
        if self.D._deg(phi.degree) != 0:
            raise ValueError("phi must have degree 0")
        if not self.D.d(phi).is_zero():
            raise ValueError("phi must be closed")
        if not self.D.equal(self.D.compose(phi, inverse), self.D.identity(phi.tgt)) or \
           not self.D.equal(self.D.compose(inverse, phi), self.D.identity(phi.src)):
            raise ValueError("phi is not invertible (certificate fails)")
        return HfpObject(M, N, phi)

    # -- morphisms -----------------------------------------------------------

    def morphism(self, src: HfpObject, tgt: HfpObject, mu: DgMorphism,
                 nu: DgMorphism, gamma: DgMorphism, degree: int) -> FiberProductMorphism:
        checks = [
            (mu.src, src.M), (mu.tgt, tgt.M), (nu.src, src.N), (nu.tgt, tgt.N),
            (gamma.src, src.M), (gamma.tgt, tgt.N),
        ]
        for got, want in checks:
            if got != want:
                raise ValueError(f"morphism endpoints mismatch: {got} != {want}")
        deg = self.B._deg(degree)
        if mu.degree != deg or nu.degree != deg or gamma.degree != self.D._deg(degree - 1):
            raise ValueError("degree bookkeeping violated: need (i, i, i-1)")
        return FiberProductMorphism(src, tgt, mu, nu, gamma, deg)

    def identity(self, obj: HfpObject) -> FiberProductMorphism:
        return self.morphism(
            obj, obj, self.B.identity(obj.M), self.C.identity(obj.N),
            self.D.zero(obj.M, obj.N, -1), 0)

    def d(self, m: FiberProductMorphism) -> FiberProductMorphism:
        """d(mu, nu, gamma) = (d mu, d nu, -d gamma - phi_2 G(mu) + L(nu) phi_1),
        with -d gamma read from ``D.d_terms``, the one place of d's sign."""
        third = self.D.combine([(-s, g, f) for s, g, f in self.D.d_terms(m.gamma)]
                               + [(-1, m.tgt.phi, self.G(m.mu)), (1, self.L(m.nu), m.src.phi)])
        return self.morphism(m.src, m.tgt, self.B.d(m.mu), self.C.d(m.nu),
                             third, m.degree + 1)

    def combine(self, terms) -> FiberProductMorphism:
        """sum sign * (b o a) over the (sign, b, a) of ``terms``, one ``combine`` per
        component: b o a = (mu_b mu_a, nu_b nu_a, gamma_b G(mu_a) + (-1)^{|b|} L(nu_b) gamma_a).

        A gamma term whose gamma factor is zero adds nothing, so it is left
        out and G or L is not evaluated for it; with no gamma term left the
        gamma component is ``D.zero``.
        """
        terms = tuple(terms)
        mu = self.B.combine((s, b.mu, a.mu) for s, b, a in terms)
        nu = self.C.combine((s, b.nu, a.nu) for s, b, a in terms)
        _, m2, m1 = terms[0]
        gamma_terms = []
        for s, b, a in terms:
            if not b.gamma.is_zero():
                gamma_terms.append((s, b.gamma, self.G(a.mu)))
            if not a.gamma.is_zero():
                gamma_terms.append((s * sign_pow(b.degree), self.L(b.nu), a.gamma))
        gamma = (self.D.combine(gamma_terms) if gamma_terms
                 else self.D.zero(m1.src.M, m2.tgt.N, m1.degree + m2.degree - 1))
        return self.morphism(m1.src, m2.tgt, mu, nu, gamma, m1.degree + m2.degree)

    def compose(self, m2: FiberProductMorphism, m1: FiberProductMorphism) -> FiberProductMorphism:
        """m2 o m1, with the (-1)^{i'} twist of ``combine``."""
        return self.combine(((1, m2, m1),))

    def equal(self, a: FiberProductMorphism, b: FiberProductMorphism) -> bool:
        """a == b, compared component by component with the pieces' ``equal``
        (so by canonical term dicts, see ``DgPiece.equal``).

        All three components are compared, so a shape mismatch in any of
        them raises ``ValueError`` even when an earlier one differs.
        """
        same = [self.B.equal(a.mu, b.mu), self.C.equal(a.nu, b.nu),
                self.D.equal(a.gamma, b.gamma)]
        return all(same)


# ---------------------------------------------------------------------------
# randomized small instances for the hfp axiom suite
# ---------------------------------------------------------------------------


def random_dg_piece(rng: random.Random, name: str = "P", objects: int = 2) -> DgPiece:
    """Two-term complexes of ranks 1..3 with matched-pair differentials and monomial entries."""
    modules = {}
    for k in range(objects):
        obj = f"{name}{k}"
        rank0 = rng.randint(1, 3)
        rank1 = rng.randint(1, 3)
        basis = tuple([(f"{obj}a{i}", 0) for i in range(rank0)]
                      + [(f"{obj}b{i}", 1) for i in range(rank1)])
        d = {}
        for i in range(min(rank0, rank1)):
            if rng.random() < 0.7:
                d[f"{obj}a{i}"] = {f"{obj}b{i}": _random_monomial(rng)}
        modules[obj] = DgModule(obj, basis, d)
    return DgPiece(modules)


def _random_monomial(rng: random.Random) -> SymPoly:
    c = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice([1, -1])
    if rng.random() < 0.5:
        return SymPoly.scalar(c)
    return SymPoly.term(c, None, {rng.choice(["s", "t"]): rng.randint(1, 2)})


def random_dg_morphism(rng: random.Random, piece: DgPiece, src: str, tgt: str,
                       degree: int) -> DgMorphism:
    ms, mt = piece.module(src), piece.module(tgt)
    entries: dict = {}
    for g, dg in ms.basis:
        col = {}
        for h, dh in mt.basis:
            if piece._deg(dh - dg - degree) == 0 and rng.random() < 0.6:
                col[h] = _random_monomial(rng)
        if col:
            entries[g] = col
    return DgMorphism(src, tgt, piece._deg(degree), entries)


def _conjugator_scalars(rng: random.Random, piece: DgPiece) -> dict:
    """{object: {basis label: int}}, one draw per matched index (so u commutes with d)."""
    draws = {}
    for obj, mod in piece.modules.items():
        by_index: dict = {}
        for g, _ in mod.basis:
            if (idx := g[len(obj) + 1:]) not in by_index:
                by_index[idx] = rng.choice([1, 2, 3, -1, -2])
        draws[obj] = {g: by_index[g[len(obj) + 1:]] for g, _ in mod.basis}
    return draws


def _conjugator(obj: str, scalars: dict) -> tuple:
    """The closed invertible scalar diagonal (u, u^{-1}) on ``obj``."""
    return tuple(DgMorphism(obj, obj, 0, {g: {g: SymPoly.scalar(c)} for g, c in diag.items()})
                 for diag in (scalars, {g: Fraction(1, c) for g, c in scalars.items()}))


def _random_conjugators(rng: random.Random, piece: DgPiece) -> dict:
    """Closed invertible degree-0 scalar conjugators on every object."""
    return {obj: _conjugator(obj, s) for obj, s in _conjugator_scalars(rng, piece).items()}


def random_hfp_instance(seed: int):
    """A random fiber product with three morphisms for axiom testing.

    Returns (hfp, [m1, m2, m3]) with m1: O1 -> O2, m2: O2 -> O3,
    m3: O3 -> O1 so that all pairwise/triple compositions exist.
    """
    rng = random.Random(seed)
    D = random_dg_piece(rng, "D", objects=3)
    G = identity_functor(D)
    L = conjugation_functor(D, _random_conjugators(rng, D))
    hfp = HomotopyFiberProduct(D, D, D, G, L)
    names = sorted(D.modules)
    # phi at obj (certified by hfp.object): drawn for every object, built for obj
    objs = [hfp.object(obj, obj, *_conjugator(obj, _conjugator_scalars(rng, D)[obj]))
            for obj in names]
    mors = []
    for a, b in ((0, 1), (1, 2), (2, 0)):
        deg = rng.choice([0, 1])
        mors.append(hfp.morphism(
            objs[a], objs[b],
            random_dg_morphism(rng, D, names[a], names[b], deg),
            random_dg_morphism(rng, D, names[a], names[b], deg),
            random_dg_morphism(rng, D, names[a], names[b], deg - 1),
            deg))
    return hfp, objs, mors


def hfp_axiom_check(seed: int) -> dict:
    """d^2 = 0, Leibniz, associativity and unit laws on one random instance."""
    hfp, objs, (m1, m2, m3) = random_hfp_instance(seed)
    # each d(m_i) serves d^2 and both Leibniz sides; m2 m1 and m3 m2 serve
    # Leibniz and associativity
    d1, d2, d3 = hfp.d(m1), hfp.d(m2), hfp.d(m3)
    failures = []
    for tag, dm in (("m1", d1), ("m2", d2), ("m3", d3)):
        if not hfp.d(dm).is_zero():
            failures.append(f"d2({tag})")
    m21, m32 = hfp.compose(m2, m1), hfp.compose(m3, m2)
    for tag, hi, d_hi, lo, d_lo, product in (
            ("m2m1", m2, d2, m1, d1, m21), ("m3m2", m3, d3, m2, d2, m32),
            ("m1m3", m1, d1, m3, d3, hfp.compose(m1, m3))):
        lhs = hfp.d(product)
        rhs = hfp.combine(((1, d_hi, lo), (sign_pow(hi.degree), hi, d_lo)))
        if not hfp.equal(lhs, rhs):
            failures.append(f"leibniz({tag})")
    if not hfp.equal(hfp.compose(m32, m1), hfp.compose(m3, m21)):
        failures.append("associativity")
    for m in (m1, m2, m3):
        if not hfp.equal(hfp.compose(hfp.identity(m.tgt), m), m):
            failures.append("left unit")
        if not hfp.equal(hfp.compose(m, hfp.identity(m.src)), m):
            failures.append("right unit")
    return {"ok": not failures, "failures": failures, "seed": seed}


# ---------------------------------------------------------------------------
# model operations with formal units
# ---------------------------------------------------------------------------

_UNCACHED = object()  # ``ModelOps.m``'s memo miss


def _element_key(el: dict) -> frozenset:
    """Order-free form of a formal sum, for ``ModelOps.m``'s memo.

    Coefficients are canonical ``SymPoly``s, so two elements are equal
    exactly when their keys are, whatever their insertion order.
    ``ModelOps`` builds it once per element (``_Element.key``).
    """
    return frozenset((g, frozenset(c.terms.items())) for g, c in el.items())


def _read_only(self, *args, **kwargs):
    raise TypeError("a model element is read-only; build a new one instead")


class _Element(dict):
    """A formal sum built by ``ModelOps``: a read-only dict of reduced coefficients.

    Its slots hold its memo key (``_element_key``), its Hom pair and its
    degree, each filled on first use; ``ModelOps.m``, ``degree`` and
    ``hom_pair`` read them, so they take no other kind of element.  Every
    mutating method raises ``TypeError``, so a filled slot can never go
    stale.  Hom pair and degree are read from the model of the
    ``ModelOps`` that first asks.
    """

    __slots__ = ("_key", "_hom", "_deg")

    def __init__(self, items=()):
        dict.__init__(self, items)
        self._key = self._hom = self._deg = None

    __setitem__ = __delitem__ = __ior__ = _read_only
    update = pop = popitem = setdefault = clear = _read_only

    def key(self) -> frozenset:
        if self._key is None:
            self._key = _element_key(self)
        return self._key


class ModelOps:
    """Deformed operations of a local model plus the formal unit action.

    The curated tables never consume unit generators; the honest unit
    conventions m2(1, x) = x, m2(x, 1) = (-1)^{|x|} x, m_{>=3}(..., 1, ...) = 0
    are therefore added formally on full unit multiples.  A coordinate change
    (from ``solve_isomorphism``) is substituted into every output.

    Every ``_Element`` is reduced when built: areas normalized, no solved
    variable of the coordinate change.  ``clean`` is the only reduction; it
    runs where a value enters from outside (the table output in ``m``, the
    raw alpha and beta~ of ``iso_setup``).  Sums, products and negations of
    reduced polynomials stay reduced, and no image of the change holds a
    solved variable (``solve_isomorphism`` substitutes earlier solutions
    before it solves the next one).  So ``combine`` and the unit action in
    ``m`` need no second reduction, and unit coefficients are compared as
    they stand.

    ``m``, ``degree`` and ``hom_pair`` take only elements that ``ModelOps``
    built: read-only ``_Element``s from ``m``, ``clean``, ``combine``,
    ``negate``, ``unit`` and ``generator``.  Each keeps its memo key, Hom
    pair and degree once built, so each is built once per element; a plain
    dict has no slots and raises ``AttributeError``.  ``m`` is memoized per instance, so a memo lives as
    long as one model, one coordinate change and the check that holds them.
    Its key holds each input's ``_element_key``, so equal inputs share an
    entry whatever their insertion order.  ``m`` returns the memoized
    element itself, which cannot be mutated.  There is
    no m0 here: the curvature of an object is ``AInfLocalModel.weak_mc_check``'s.
    """

    def __init__(self, model: AInfLocalModel, change: CoordinateChange = None):
        self.model = model
        self.change = change
        self.all_units = {u for us in model.units.values() for u in us}
        for entry in model.entries:
            if any(tok in self.all_units for tok in entry.inputs):
                raise ValueError(
                    f"model {model.name} consumes unit generators in its table; "
                    "the formal unit action would double count")
        self._m_memo: dict = {}

    # -- elements -------------------------------------------------------------

    def clean(self, el: dict) -> _Element:
        """``el`` with the coordinate change substituted, or with areas
        normalized when there is no change.  ``CoordinateChange.substitute``
        normalizes by the model's constraints after it substitutes, so each
        coefficient is reduced once either way."""
        if self.change is None:
            out = {g: self.model.normalize(c) for g, c in el.items()}
        else:
            out = {g: self.change.substitute(c) for g, c in el.items()}
        return _Element((g, c) for g, c in out.items() if not c.is_zero())

    def unit(self, obj: str) -> _Element:
        return _Element(self.model.unit_element(obj))

    def generator(self, name: str) -> _Element:
        return _Element(self.model.element([(name, 1)]))

    def degree(self, el: _Element) -> int:
        if el._deg is None:
            if not el:
                raise ValueError("the zero element has no degree")
            degs = {self.model.generators[g].degree % 2 for g in el}
            if len(degs) != 1:
                raise ValueError(f"element of mixed degree: {sorted(el)}")
            el._deg = degs.pop()
        return el._deg

    def hom_pair(self, el: _Element):
        if el._hom is None:
            el._hom = self.model.hom_pair(el)
        return el._hom

    def negate(self, el: _Element) -> _Element:
        """-el; negating reduced coefficients leaves them reduced."""
        return _Element((g, -c) for g, c in el.items())

    def combine(self, terms) -> _Element:
        """The formal sum of s * el over (s, el) pairs, s = 1 or -1; reduced as it stands."""
        total: dict = {}
        for s, el in terms:
            for g, c in el.items():
                if s < 0:
                    c = -c
                total[g] = total[g] + c if g in total else c
        return _Element((g, c) for g, c in total.items() if not c.is_zero())

    # -- units ----------------------------------------------------------------

    def _unit_multiple(self, part: dict):
        """(object, scalar) if ``part`` is scalar * full unit, else None."""
        for obj, us in self.model.units.items():
            if us and set(part) == set(us) and all(part[u] == part[us[0]] for u in us):
                return obj, part[us[0]]
        return None

    def unit_part(self, el: dict):
        part = {g: c for g, c in el.items() if g in self.all_units}
        if not part:
            return None
        um = self._unit_multiple(part)
        if um is None:
            raise ValueError(f"indeterminate unit component: {sorted(part)}")
        return um

    # -- operations -------------------------------------------------------------

    def m(self, inputs) -> _Element:
        """m_k^{b,...,b}, k >= 1, with the formal unit action in m2."""
        key = tuple([e.key() for e in inputs])
        out = self._m_memo.get(key, _UNCACHED)
        if out is _UNCACHED:  # an empty element is a cached value
            out = self._m_memo[key] = self._m(inputs)
        return out

    def _m(self, inputs) -> _Element:
        """``m`` computed from the table, past the memo."""
        terms = [(1, self.clean(self.model.deformed_m(inputs)))]
        if len(inputs) == 2:
            left, right = (self.unit_part(e) for e in inputs)
            if left is not None and right is not None:
                # both formal actions below count the unit * unit product once each
                terms.append((-1, {u: left[1] * right[1] for u in self.model.units[left[0]]}))
            if left is not None:
                terms.append((1, {g: cf * left[1] for g, cf in inputs[1].items()}))
            if right is not None:
                gens = self.model.generators
                terms.append((1, {g: cf * right[1] * sign_pow(gens[g].degree)
                                  for g, cf in inputs[0].items()}))
        return self.combine(terms)


def model_ainf_check(model: AInfLocalModel) -> dict:
    """Certify the table-only A-infinity closure of a curated model by structure.

    Each table-only relation term at arity k is m^b(a_1, ..., m^b(a_i, ...,
    a_j), ..., a_k) with a nonempty inner range (the formal unit action and
    the curvature m0 = W * 1 are left out).  The inner operation is a sum of
    entry outputs, and the outer one is nonzero only if some entry reads
    one of them as an input token.  Theorem: if no entry output is an input
    token of any entry, every such term vanishes, so the relations hold at
    every arity.  The outputs that are also inputs are listed as
    ``consumed``; a nonempty list certifies nothing either way.
    """
    outputs = {entry.output for entry in model.entries}
    inputs = {g for entry in model.entries for g in entry.inputs}
    consumed = sorted(outputs & inputs)
    return {"ok": not consumed, "consumed": consumed}


# ---------------------------------------------------------------------------
# A.3: pre-natural transformations between Yoneda-type functors
# ---------------------------------------------------------------------------


@dataclass
class HomMap:
    """A graded linear map Hom(src) -> Hom(tgt) between Yoneda complexes.

    ``src`` and ``tgt`` are (object, reference) pairs; the map acts on formal
    sums by the stored closure.  Degree is Z/2.
    """

    src: tuple
    tgt: tuple
    degree: int
    fn: object

    def __call__(self, el: _Element) -> _Element:
        return self.fn(el)

    def is_zero(self) -> bool:
        """Whether this is the zero map by construction (``YonedaPiece.zero``);
        a map that only evaluates to zero reads False."""
        return self.fn is _no_element


def _no_element(el: _Element) -> _Element:
    return _Element()


def _model_map(ops: ModelOps, src: tuple, tgt: tuple, degree: int, fn) -> HomMap:
    """A HomMap on elements of a local model that only accepts Hom(src).

    Evaluating it on a nonzero element of another Hom space raises
    ValueError, so an argument routed to the wrong complex cannot pass.
    """
    def checked(el: _Element) -> _Element:
        if el and ops.hom_pair(el) != src:
            raise ValueError(f"map on Hom{src} evaluated on an element of "
                             f"Hom{ops.hom_pair(el)}")
        return fn(el)

    return HomMap(src, tgt, degree, checked)


class YonedaPiece:
    """The Yoneda complexes (Hom(C, ref), -m1) of a local model as a dg category.

    Objects are (C, ref) pairs and morphisms are ``HomMap``s.  It shares
    ``DgPiece``'s ``d_terms`` and ``d``: the differential of a map is
    d o f - (-1)^{|f|} f o d with d = -m1.  A ``combine`` reduces its values
    through one ``ModelOps.combine``.
    """

    def __init__(self, ops: ModelOps):
        self.ops = ops

    def _deg(self, n: int) -> int:
        return n % 2

    def zero(self, src, tgt, degree) -> HomMap:
        return HomMap(src, tgt, degree % 2, _no_element)

    def combine(self, terms) -> HomMap:
        """``DgPiece.combine`` with one ``ModelOps.combine`` per element."""
        terms = tuple(terms)
        return HomMap(*_one_shape(self, terms),
                      lambda el: self.ops.combine([(s, g(f(el))) for s, g, f in terms]))

    def identity(self, obj) -> HomMap:
        return HomMap(obj, obj, 0, lambda el: el)

    def object_d(self, obj) -> HomMap:
        """el -> -m1(el), the differential of the complex ``obj``."""
        return HomMap(obj, obj, 1, lambda el: self.ops.negate(self.ops.m([el])))

    d_terms, d = DgPiece.d_terms, DgPiece.d  # the same formula, with object_d = -m1


class YonedaFunctor:
    """Y^ref: C -> (Hom(C, ref), -m1), with components a -> m(a, -)."""

    def __init__(self, ops: ModelOps, ref: str):
        self.ops = ops
        self.ref = ref

    def component(self, a) -> HomMap:
        a = tuple(a)
        if not a:
            raise ValueError("an A-infinity functor has no arity-0 morphism component")
        c0 = self.ops.hom_pair(a[0])[0]
        ck = self.ops.hom_pair(a[-1])[1]
        deg = (shifted_sum(self.ops.degree(e) for e in a) + 1) % 2
        return _model_map(self.ops, (ck, self.ref), (c0, self.ref), deg,
                          lambda el: self.ops.m(list(a) + [el]))


@dataclass
class PreNatTransform:
    """Arity-indexed components of a pre-natural transformation F1 => F2.

    ``comp(a, obj)`` returns the component at a composable tuple ``a`` (the
    object ``obj`` disambiguates arity 0) as a HomMap, or None for zero.
    The stored value maps Hom(C_k, F2-reference) into Hom(C_0,
    F1-reference), per the reversed Hom convention.
    """

    ops: ModelOps
    source: YonedaFunctor
    target: YonedaFunctor
    norm: int  # ||N||, Z/2
    comp: object

    def component(self, a, obj: str = None) -> HomMap | None:
        a = tuple(a)
        if not a and obj is None:
            raise ValueError("arity-0 component needs the object")
        return self.comp(a, obj)


def nat_from_cocycle(ops: ModelOps, beta: _Element) -> PreNatTransform:
    """N(a)(x) = (-1)^{|a|'}(-1)^{|x|} m(a, x, beta) -- the paper's N_01 shape."""
    b_src, b_tgt = ops.hom_pair(beta)
    source = YonedaFunctor(ops, b_tgt)
    target = YonedaFunctor(ops, b_src)
    norm = ops.degree(beta) % 2

    def comp(a, obj):
        a = tuple(a)
        c0 = ops.hom_pair(a[0])[0] if a else obj
        ck = ops.hom_pair(a[-1])[1] if a else obj
        shift = shifted_sum(ops.degree(e) for e in a)
        pre = sign_pow(shift)

        def fn(el):
            s = pre * sign_pow(ops.degree(el)) if el else 1
            out = ops.m(list(a) + [el, beta])
            return out if s > 0 else ops.negate(out)

        deg = (norm + shift) % 2
        return _model_map(ops, (ck, b_src), (c0, b_tgt), deg, fn)

    return PreNatTransform(ops, source, target, norm, comp)


def nat_identity(ops: ModelOps, functor: YonedaFunctor) -> PreNatTransform:
    """N_id: arity-0 components are identities, higher components vanish."""

    def comp(a, obj):
        a = tuple(a)
        if a:
            return None
        return _model_map(ops, (obj, functor.ref), (obj, functor.ref), 0, lambda el: el)

    return PreNatTransform(ops, functor, functor, 0, comp)


def nat_homotopy(ops: ModelOps, first: _Element, second: _Element) -> PreNatTransform:
    """H(a)(x) = m(a, x, first, second), of degree ||H|| = -1.

    No degree prefactor: with the -m1 differential this is the convention
    under which M1(H)(x) = -m1(m(x, first, second)) - m(m1 x, first, second)
    at arity 0, matching the proof of Lemma "n0hptyeq" term by term.
    """
    f_src, _ = ops.hom_pair(first)
    _, s_tgt = ops.hom_pair(second)
    source = YonedaFunctor(ops, f_src)
    target = YonedaFunctor(ops, f_src)
    norm = (ops.degree(first) + ops.degree(second) + 1) % 2

    def comp(a, obj):
        a = tuple(a)
        c0 = ops.hom_pair(a[0])[0] if a else obj
        ck = ops.hom_pair(a[-1])[1] if a else obj
        deg = (norm + shifted_sum(ops.degree(e) for e in a)) % 2
        return _model_map(ops, (ck, f_src), (c0, s_tgt), deg,
                          lambda el: ops.m(list(a) + [el, first, second]))

    return PreNatTransform(ops, source, target, norm, comp)


def _splits(a):
    for i in range(len(a) + 1):
        yield a[:i], a[i:]


def nat_M1(N: PreNatTransform) -> PreNatTransform:
    """The Appendix A.3 differential of a pre-natural transformation.

    M1(N)(a) = m1(N(a))
             + sum_{a = a1 a2, a1 nonempty} (-1)^{||N||' |a1|'} m2(F1(a1), N(a2))
             + sum_{a = a1 a2, a2 nonempty} m2(N(a1), F2(a2))
             - sum (-1)^{||N||' + |a1|'} N(a1, m(a2), a3),   a2 nonempty,

    with m1, m2 the A.1 operations of the Yoneda complexes.  A component is
    one ``combine`` of the d terms of N(a), one ``m2_term`` per split and one
    identity composite per contraction, or None when no term is left.  Inner
    m0 insertions are omitted: every component has a unit argument there and
    vanishes by the unit conventions.
    """
    ops = N.ops
    yon = YonedaPiece(ops)
    nprime = shifted(N.norm)

    def comp(a, obj):
        a = tuple(a)
        terms = []
        base = N.component(a, obj)
        if base is not None:
            terms += yon.d_terms(base)
        for a1, a2 in _splits(a):
            if a1:
                mid = ops.hom_pair(a1[-1])[1]
                n_part = N.component(a2, mid)
                if n_part is not None:
                    f_part = N.source.component(a1)
                    s = sign_pow(nprime * shifted_sum(ops.degree(e) for e in a1))
                    terms.append(m2_term(s, f_part, n_part))
            if a2:
                mid = ops.hom_pair(a2[0])[0]
                n_part = N.component(a1, mid)
                if n_part is not None:
                    f_part = N.target.component(a2)
                    terms.append(m2_term(1, n_part, f_part))
        for s, contracted in contractions(a, [ops.degree(e) for e in a], ops.m):
            part = N.component(contracted, obj)
            if part is not None:
                terms.append((-sign_pow(nprime) * s, yon.identity(part.tgt), part))
        return yon.combine(terms) if terms else None

    return PreNatTransform(ops, N.source, N.target, (N.norm + 1) % 2, comp)


def nat_M2(N1: PreNatTransform, N2: PreNatTransform) -> PreNatTransform:
    """M2(N1, N2)(a) = sum (-1)^{||N2||' |a1|'} m2(N1(a1), N2(a2)), m2 from A.1."""
    ops = N1.ops
    yon = YonedaPiece(ops)
    n2prime = shifted(N2.norm)

    def comp(a, obj):
        a = tuple(a)
        terms = []
        for a1, a2 in _splits(a):
            mid = ops.hom_pair(a1[-1])[1] if a1 else (
                ops.hom_pair(a2[0])[0] if a2 else obj)
            p1 = N1.component(a1, mid if not a1 else None)
            p2 = N2.component(a2, mid if not a2 else None)
            if p1 is None or p2 is None:
                continue
            s = sign_pow(n2prime * shifted_sum(ops.degree(e) for e in a1))
            terms.append(m2_term(s, p1, p2))
        return yon.combine(terms) if terms else None

    return PreNatTransform(ops, N1.source, N2.target, (N1.norm + N2.norm) % 2, comp)


# ---------------------------------------------------------------------------
# the isomorphism sector and the Yoneda equivalence check
# ---------------------------------------------------------------------------


ISO_DATA = {
    "two_pants": {"alpha": (("P4", 1), ("Q4", -1)), "beta": (("Q1r", 1), ("P1r", 1)),
                  "unknowns": ("x'", "y'", "z'")},
    "isotopy_pair": {"alpha": (("P6", 1),), "beta": (("P4", 1),),
                     "unknowns": ("x'", "y'", "z'")},
    "circle_seidel": {"alpha": (("P1", 1), ("P2", 1)), "beta": (("Q1r", 1), ("Q2r", -1)),
                      "unknowns": ("x1", "y1", "z1")},
}


def iso_setup(model):
    """Solve and normalize the ``ISO_DATA`` pair of a model; returns (ops, alpha, beta~)."""
    if isinstance(model, str):
        model = ainf_mod.load_model(model)
    data = ISO_DATA[model.name]
    alpha = model.element(data["alpha"])
    beta = model.element(data["beta"])
    change = solve_isomorphism(model, alpha, data["unknowns"])
    out = verify_isomorphism(model, alpha, beta, change)
    scalar, scalar_rev = out["scalar"], out["scalar_rev"]
    if scalar != scalar_rev:
        raise ValueError(
            f"two-sided scalars differ: {scalar} vs {scalar_rev}; cannot normalize beta")
    ops = ModelOps(model, change)
    inv = scalar.inv()
    beta_n = ops.clean({g: c * inv for g, c in beta.items()})
    return ops, ops.clean(alpha), beta_n, {"change": change, "scalar": scalar}


def sector_elements(ops: ModelOps, alpha: _Element, beta: _Element) -> dict:
    """Arrows of the isomorphism sector, keyed by (source, target)."""
    a_src, a_tgt = ops.hom_pair(alpha)
    arrows = {
        (a_src, a_tgt): [("alpha", alpha)],
        (a_tgt, a_src): [("beta~", beta)],
        (a_src, a_src): [("1_" + a_src, ops.unit(a_src))],
        (a_tgt, a_tgt): [("1_" + a_tgt, ops.unit(a_tgt))],
    }
    return arrows


def sector_tuples(ops: ModelOps, arrows: dict, arity: int):
    """Composable labelled tuples of the given arity."""
    if arity == 0:
        for obj in sorted({o for o, _ in arrows}):
            yield (), obj, obj
        return
    chains = [((name, el),) for (s, t), items in sorted(arrows.items())
              for name, el in items]
    for _ in range(arity - 1):
        new = []
        for chain in chains:
            tail_tgt = ops.hom_pair(chain[-1][1])[1]
            for (s, t), items in sorted(arrows.items()):
                if s == tail_tgt:
                    for name, el in items:
                        new.append(chain + ((name, el),))
        chains = new
    for chain in chains:
        yield chain, ops.hom_pair(chain[0][1])[0], ops.hom_pair(chain[-1][1])[1]


def _evaluate_nat(terms, a, obj, bullet) -> _Element:
    """Residual of sum_i s_i * T_i at (a; bullet); terms = [(s, T)], s = 1 or -1."""
    ops = terms[0][1].ops
    return ops.combine([(s, part(bullet)) for s, T in terms
                        if (part := T.component(a, obj)) is not None])


def yoneda_equivalence_check(model, arity_bound: int = 2) -> dict:
    """Theorem 12.1 on a shipped model: Y^0 and Y^1 are quasi-isomorphic.

    Builds N_01 (from beta), N_10 (from alpha) and the homotopies H of Lemma
    "n0hptyeq"; verifies, on the isomorphism sector at arities <= bound:

      * M1(N_01) = 0 and M1(N_10) = 0 (natural transformations),
      * M2(N_01, N_10) - N_id = M1(H) and the reversed composite likewise,
      * the formal unit laws M1(N_id) = 0, M2(N_id, N) = N,
        M2(N, N_id) = (-1)^{||N||} N on arbitrary generator tuples,
      * Lemma 12.2: chained isomorphisms m2(alpha, gamma1) and
        m2(gamma2, beta) compose to units, with gamma1 = beta~ and
        gamma2 = alpha.

    The strict isomorphism case has gamma = 0, so each H has a single term.
    """
    ops, alpha, beta_n, setup = iso_setup(model)
    arrows = sector_elements(ops, alpha, beta_n)
    a_src, a_tgt = ops.hom_pair(alpha)

    n_beta = nat_from_cocycle(ops, beta_n)   # N01, values: Hom(., a_tgt) -> Hom(., a_src)
    n_alpha = nat_from_cocycle(ops, alpha)   # N10, values: Hom(., a_src) -> Hom(., a_tgt)
    h_src = nat_homotopy(ops, alpha, beta_n)   # H0, endo side of Hom(., a_src)
    h_tgt = nat_homotopy(ops, beta_n, alpha)   # H1, endo side of Hom(., a_tgt)
    id_src = nat_identity(ops, YonedaFunctor(ops, a_src))
    id_tgt = nat_identity(ops, YonedaFunctor(ops, a_tgt))

    report = {"model": ops.model.name, "arity_bound": arity_bound, "identities": {}}

    def run(tag, terms, bullet_ref):
        failures = []
        count = 0
        for k in range(arity_bound + 1):
            for chain, c0, ck in sector_tuples(ops, arrows, k):
                a = tuple(el for _, el in chain)
                for (s, t), items in sorted(arrows.items()):
                    if s != ck or t != bullet_ref:
                        continue
                    for bname, bullet in items:
                        count += 1
                        res = _evaluate_nat(terms, a, c0 if not a else None, bullet)
                        if res:
                            failures.append({
                                "tuple": tuple(n for n, _ in chain), "bullet": bname,
                                "residual": {g: str(c) for g, c in res.items()}})
        report["identities"][tag] = {"ok": not failures, "cases": count,
                                     "failures": failures}

    # closedness of the two transformations
    run("M1(N01)=0", [(1, nat_M1(n_beta))], a_tgt)
    run("M1(N10)=0", [(1, nat_M1(n_alpha))], a_src)
    # the homotopy identity, both composites
    run("M2(N01,N10)-id=M1(H0)",
        [(1, nat_M2(n_beta, n_alpha)), (-1, id_src), (-1, nat_M1(h_src))], a_src)
    run("M2(N10,N01)-id=M1(H1)",
        [(1, nat_M2(n_alpha, n_beta)), (-1, id_tgt), (-1, nat_M1(h_tgt))], a_tgt)

    # formal unit laws, on arbitrary single-generator tuples
    unit_fail = []
    all_units = ops.all_units
    gens = [g for g in ops.model.generators.values() if g.name not in all_units]
    elements = {g.name: ops.generator(g.name) for g in gens}
    for g in gens:
        a = (elements[g.name],)
        for N, ref in ((n_beta, a_tgt), (n_alpha, a_src)):
            mid = nat_M2(nat_identity(ops, N.source), N)
            mid2 = nat_M2(N, nat_identity(ops, N.target))
            bullets = [(bg.name, elements[bg.name]) for bg in gens
                       if bg.source == g.target and bg.target == ref]
            if g.target == ref:
                bullets.append(("1_" + ref, ops.unit(ref)))
            for bullet_name, bullet in bullets:
                lhs = _evaluate_nat([(1, mid), (-1, N)], a, None, bullet)
                rhs = _evaluate_nat([(1, mid2), (-sign_pow(N.norm), N)], a, None, bullet)
                m1id = _evaluate_nat([(1, nat_M1(nat_identity(ops, N.target)))],
                                     a, None, bullet) if g.target == ref else {}
                for tag, res in (("M2(N_id,N)=N", lhs),
                                 (f"M2(N,N_id)=(-1)^||N|| N", rhs),
                                 ("M1(N_id)=0", m1id)):
                    if res:
                        unit_fail.append({"tuple": g.name, "bullet": bullet_name,
                                          "law": tag,
                                          "residual": {h: str(c) for h, c in res.items()}})
    report["identities"]["unit laws"] = {"ok": not unit_fail, "failures": unit_fail}

    # Lemma 12.2: chained isomorphisms compose to isomorphisms; with
    # gamma1 = beta~ and gamma2 = alpha both composites are m2(alpha, beta~)
    comp = ops.m([alpha, beta_n])
    chained = ops.m([comp, comp])
    obj = ops.hom_pair(alpha)[0]
    unit = ops.unit(obj)
    chain_res = ops.combine([(1, chained), (-1, unit)])
    comp_str = {g: str(c) for g, c in comp.items()}
    report["identities"]["Lemma 12.2 chained isomorphism"] = {
        "ok": ops.unit_part(comp) is not None and not chain_res,
        "m2(alpha,gamma1)": comp_str,
        "m2(gamma2,beta)": comp_str,
    }

    report["ok"] = all(v["ok"] for v in report["identities"].values())
    report["scalar"] = str(setup["scalar"])
    return report


# ---------------------------------------------------------------------------
# Prop 13.2: the global functor into the homotopy fiber product
# ---------------------------------------------------------------------------


def functor_equation_residuals(ops, alpha, beta_n, a, bullets) -> list:
    """Componentwise residual of eqn (13.2) at the tuple ``a``.

    The glued functor lands in the homotopy fiber product of the Yoneda
    complexes over identity functors: an object C goes to
    (Y^{L1}(C), Y^{L0}(C), N01(C)) and a tuple to F(a) = (q, p, N01(a)),
    with p, q the components of Y^{L0}, Y^{L1}.  The residual is
    LHS - RHS with LHS = m1(F(a)) + sum_{a = a1 a2} m2(F(a1), F(a2)), m1 and
    m2 from A.1 on the fiber product, and RHS = sum (-1)^{|a1|'}
    F(a1, m(a2), a3), built as one ``combine`` with m1(F(a)) and each F of a
    contraction as an identity composite.  Inner m0 insertions vanish by the
    unit conventions and are omitted.  ``bullets`` are (name, element, side)
    with side "p", "q" or "gamma"; returns (name, side, residual) per bullet.
    """
    l0, l1 = ops.hom_pair(alpha)
    yon = YonedaPiece(ops)
    hfp = HomotopyFiberProduct(yon, yon, yon, identity_functor(yon), identity_functor(yon))
    y_p = YonedaFunctor(ops, l0)
    y_q = YonedaFunctor(ops, l1)
    n_conn = nat_from_cocycle(ops, beta_n)

    def obj(C):
        # N01(C) is invertible up to homotopy only; the Lemma n0hptyeq
        # identities of ``yoneda_equivalence_check`` certify it
        return HfpObject((C, l1), (C, l0), n_conn.component((), C))

    def F(t):
        p = y_p.component(t)
        return hfp.morphism(obj(ops.hom_pair(t[-1])[1]), obj(ops.hom_pair(t[0])[0]),
                            y_q.component(t), p, n_conn.component(t), p.degree)

    a = tuple(a)
    whole = F(a)
    ident = hfp.identity(whole.tgt)
    terms = [(1, ident, hfp.d(whole))]
    terms += [m2_term(1, F(a[:i]), F(a[i:])) for i in range(1, len(a))]
    terms += [(-s, ident, F(c)) for s, c in contractions(a, [ops.degree(e) for e in a], ops.m)]
    residual = hfp.combine(terms)
    sides = {"p": residual.nu, "q": residual.mu, "gamma": residual.gamma}
    return [(bname, side, sides[side](bullet)) for bname, bullet, side in bullets]


def functor_equation_check(model, arity_bound: int) -> dict:
    """The Prop 13.2 functor equation of an ``ISO_DATA`` pair on its sector,
    at every tuple of arity <= ``arity_bound`` and every bullet where the
    tuple starts: into L0 on the p side, into L1 on the q and gamma sides."""
    ops, alpha, beta_n, _ = iso_setup(model)
    l0, l1 = ops.hom_pair(alpha)
    sides = {l0: ("p",), l1: ("q", "gamma")}
    arrows = sector_elements(ops, alpha, beta_n)
    failures = []
    cases = 0
    for k in range(1, arity_bound + 1):
        for chain, _, ck in sector_tuples(ops, arrows, k):
            a = tuple(el for _, el in chain)
            bullets = [(bname, bullet, side) for (s, t), items in sorted(arrows.items())
                       if s == ck for bname, bullet in items for side in sides[t]]
            for bname, side, res in functor_equation_residuals(ops, alpha, beta_n, a, bullets):
                cases += 1
                if res:
                    failures.append({"tuple": tuple(n for n, _ in chain),
                                     "bullet": bname, "component": side,
                                     "residual": {g: str(c) for g, c in res.items()}})
    return {"ok": not failures, "cases": cases, "failures": failures}


def one_chart_degenerate_check() -> dict:
    """With a single chart the functor triple degenerates to F^L of Def 2.4.

    The connecting component at each object is the arity-0 N_01 with beta
    the identity element, i.e. x -> (-1)^{|x|} m2(x, 1) = x: the identity.
    Checked on two_pants.
    """
    model = ainf_mod.load_model("two_pants")
    ops = ModelOps(model)
    results = {}
    for obj in model.objects:
        n_triv = nat_from_cocycle(ops, ops.unit(obj))
        results[obj] = all(
            n_triv.component((), g.source)(x) == x
            for g in model.generators.values()
            if g.target == obj and g.name not in ops.all_units
            for x in [ops.generator(g.name)])
    return {"ok": all(results.values()), "objects": results}


# ---------------------------------------------------------------------------
# Section 11: the flop
# ---------------------------------------------------------------------------


def _two_circle_model() -> AInfLocalModel:
    """The two-deformed-circle local system of the Section 11 proof.

    Hom(O1, O2) generators are the paper's e_1, e_2, X, X', Y, Z, Xb, Xb',
    Yb, Zb, [pt]_1, [pt]_2; the boundary deformations are b_1 = u X' + x X
    on O1 and b_2 = v X + x' X' on O2, with u, v standing for the Novikov
    factors T^{delta'}, T^{delta}.  Entries transcribe the displayed
    differential table.  The two strips whose sign the paper leaves
    ambiguous and no identity checked here pins, the +-v [pt]_2 term of
    d(Xb) and the +-u [pt]_1 term of d(Xb'), are flagged ``sign_unknown``;
    every other sign is forced by ``flop_check``.
    """
    gens = [
        Generator("Bx1", "O1", "O1", 1), Generator("Bxp1", "O1", "O1", 1),
        Generator("Bx2", "O2", "O2", 1), Generator("Bxp2", "O2", "O2", 1),
        Generator("e1", "O1", "O2", 0), Generator("e2", "O1", "O2", 0),
        Generator("X", "O1", "O2", 1), Generator("Xp", "O1", "O2", 1),
        Generator("Y", "O1", "O2", 1), Generator("Z", "O1", "O2", 1),
        Generator("Xb", "O1", "O2", 1),
        Generator("Xpb", "O1", "O2", 1),
        Generator("Yb", "O1", "O2", 0), Generator("Zb", "O1", "O2", 0),
        Generator("pt1", "O1", "O2", 0), Generator("pt2", "O1", "O2", 0),
    ]
    entries = [
        # d(e1) = v X + x' X'
        Entry(("e1", "Bx2"), "X", SymPoly.scalar(1)),
        Entry(("e1", "Bxp2"), "Xp", SymPoly.scalar(1)),
        # d(e2) = -u X' - x X
        Entry(("Bxp1", "e2"), "Xp", SymPoly.scalar(-1)),
        Entry(("Bx1", "e2"), "X", SymPoly.scalar(-1)),
        # d(Y) = (x x' - u v) Zb
        Entry(("Bx1", "Y", "Bxp2"), "Zb", SymPoly.scalar(1)),
        Entry(("Bxp1", "Y", "Bx2"), "Zb", SymPoly.scalar(-1)),
        # d(Z) = (x x' - u v) Yb
        Entry(("Bx1", "Z", "Bxp2"), "Yb", SymPoly.scalar(1)),
        Entry(("Bxp1", "Z", "Bx2"), "Yb", SymPoly.scalar(-1)),
        # d(Xb) = x [pt]_1 +- v [pt]_2
        Entry(("Bx1", "Xb"), "pt1", SymPoly.scalar(1)),
        Entry(("Xb", "Bx2"), "pt2", SymPoly.scalar(1), sign_unknown=True),
        # d(Xb') = x' [pt]_2 +- u [pt]_1
        Entry(("Xpb", "Bxp2"), "pt2", SymPoly.scalar(1)),
        Entry(("Bxp1", "Xpb"), "pt1", SymPoly.scalar(1), sign_unknown=True),
    ]
    return AInfLocalModel(
        name="two_circle",
        objects=("O1", "O2"),
        generators={g.name: g for g in gens},
        units={"O1": (), "O2": ()},
        variables={"O1": ("x", "u"), "O2": ("xp", "v")},
        deformations={"O1": {"Bx1": "x", "Bxp1": "u"},
                      "O2": {"Bx2": "v", "Bxp2": "xp"}},
        entries=entries,
    )


def flop_check() -> dict:
    """Section 11: the flop map intertwines the two gluings and preserves W.

    Verifies that (x0, y0, z0) -> (y1, x1, x1') = (y0 z0^{-1}, x0 z0, z0)
    pulls the after-flop potential back to x0 y0 z0, that conjugating by the
    before-flop gluing {x0' = x0^{-1}, y0' = x0 y0, z0' = x0 z0} produces
    exactly the after-flop gluing {z1 = y1^{-1}, x~1 = y1 x1, x~1' = y1 x1'}
    (eq. "befaftF"), that both zero sections are excluded from the domain,
    and that the two-circle differential table reproduces
    d(Y) = (x x' - T^{delta+delta'}) Zb with the deformed e_1-line closing
    exactly on the gluing locus x x' = T^{delta+delta'}.

    Every table coefficient is compared exactly, except one that an entry
    flagged ``sign_unknown`` produces: it is compared up to sign, and the
    flagged entries are listed under ``unconstrained_signs``, which ``ok``
    does not read.
    """
    v = SymPoly.var
    F = {"y1": v("y0") * v("z0", -1), "x1": v("x0") * v("z0"), "x1p": v("z0")}
    glue_before_inv = {"x0": v("x0p", -1), "y0": v("x0p") * v("y0p"),
                       "z0": v("x0p") * v("z0p")}
    glue_after = {"z1": v("y1", -1), "x1t": v("y1") * v("x1"),
                  "x1tp": v("y1") * v("x1p")}
    flop_primed = {"z1": v("z0p") * v("y0p", -1), "x1t": v("y0p"),
                   "x1tp": v("x0p") * v("y0p")}

    report: dict = {}
    w_before = (v("y1") * v("x1") * v("x1p")).substitute(F)
    report["w_preserved"] = w_before == v("x0") * v("y0") * v("z0")
    w_after = (v("z1") * v("x1t") * v("x1tp")).substitute(flop_primed)
    report["w_preserved_primed"] = w_after == v("x0p") * v("y0p") * v("z0p")

    intertwined = True
    for var, expr in glue_after.items():
        lhs = expr.substitute(F).substitute(glue_before_inv)
        if lhs != flop_primed[var]:
            intertwined = False
    report["gluings_intertwined"] = intertwined

    inverted = set()
    for expr in F.values():
        _, _, mono = expr.single_term()
        inverted |= {name for name, e in mono if e < 0}
    report["domain_excludes_zero_section"] = inverted == {"z0"}
    # the image has x1' = z0 invertible, hence misses {x1 = x1' = 0}
    _, _, mono = F["x1p"].single_term()
    report["image_avoids_flopped_zero_section"] = dict(mono) == {"z0": 1}

    # two-circle differential table
    model = _two_circle_model()
    novikov = {"u": SymPoly.term(1, AreaExp.sym("dp")),
               "v": SymPoly.term(1, AreaExp.sym("d"))}

    def d_of(el):
        out = model.deformed_m([el])
        return {g: c.substitute(novikov) for g, c in out.items()}

    b_gens = {g for gens in model.deformations.values() for g in gens}
    flagged = [e for e in model.entries if e.sign_unknown]
    # (real input, output) of each flagged strip
    loose = {(next(t for t in e.inputs if t not in b_gens), e.output) for e in flagged}

    def d_is(gen, expected):
        out = d_of({gen: SymPoly.scalar(1)})
        return set(out) == set(expected) and all(
            out[h] == c or ((gen, h) in loose and out[h] == -c)
            for h, c in expected.items())

    factor = (v("x") * v("xp") - SymPoly.term(1, AreaExp.of({"d": 1, "dp": 1})))
    report["d(Y)=(xx'-T^(d+d'))Zb"] = d_is("Y", {"Zb": factor})
    report["d(Z)=(xx'-T^(d+d'))Yb"] = d_is("Z", {"Yb": factor})
    for g in ("Yb", "Zb", "pt1", "pt2"):
        report[f"d({g})=0"] = d_is(g, {})
    report["d(Xb)=x[pt]1+-T^d[pt]2"] = d_is(
        "Xb", {"pt1": v("x"), "pt2": SymPoly.term(1, AreaExp.sym("d"))})
    report["d(Xb')=x'[pt]2+-T^d'[pt]1"] = d_is(
        "Xpb", {"pt2": v("xp"), "pt1": SymPoly.term(1, AreaExp.sym("dp"))})

    # alpha = x T^{-delta} e1 + e2 closes exactly on the gluing locus
    alpha = {"e1": v("x") * SymPoly.term(1, AreaExp.sym("d", -1)),
             "e2": SymPoly.scalar(1)}
    d_alpha = d_of(alpha)
    on_locus = {g: c.substitute(
        {"xp": SymPoly.term(1, AreaExp.of({"d": 1, "dp": 1}), {"x": -1})})
        for g, c in d_alpha.items()}
    report["alpha_closed_on_gluing_locus"] = all(c.is_zero() for c in on_locus.values())
    report["alpha_not_closed_off_locus"] = any(not c.is_zero() for c in d_alpha.values())

    report["unconstrained_signs"] = sorted(
        f"{' '.join(e.inputs)} -> {e.output}" for e in flagged)
    report["ok"] = all(bool(val) for key, val in report.items()
                       if key not in ("ok", "unconstrained_signs"))
    return report
