"""Tests for the curated A-infinity local models and coordinate-change solving."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropmirror import ainf, dgcat, mf
from tropmirror.ainf import Entry, Generator
from tropmirror.symbolic import AreaExp, SymPoly


def sym(name, coeff=1):
    return AreaExp.sym(name, coeff)


def area(**kwargs):
    return AreaExp.of(kwargs)


class TestLoading:
    @pytest.mark.parametrize(
        "name", ["seidel_pants", "isotopy_pair", "two_pants", "circle_seidel"]
    )
    def test_loads_and_degrees_check(self, name):
        model = ainf.load_model(name)
        assert model.name == name
        assert model.entries

    def test_unknown_generator_rejected(self):
        model = ainf.load_model("seidel_pants")
        with pytest.raises(KeyError):
            model.element([("nope", 1)])


class TestSeidelPants:
    def test_weak_mc_gives_potential(self):
        model = ainf.load_model("seidel_pants")
        kind, w = model.weak_mc_check("S")
        assert kind == "potential"
        assert w == SymPoly.term(1, sym("A1"), {"x": 1, "y": 1, "z": 1})

    def test_trivial_spin_is_obstructed(self):
        model = ainf.load_model("seidel_pants", spin=False)
        kind, gen, coeff = model.weak_mc_check("S")
        assert kind == "obstruction"
        assert gen in ("Xb", "Yb", "Zb")
        assert not coeff.is_zero()

    def test_unconstrained_areas_are_obstructed(self):
        model = replace(ainf.load_model("seidel_pants"), constraints={})
        kind = model.weak_mc_check("S")[0]
        assert kind == "obstruction"

    def test_exact_reduce_strips_areas(self):
        model = ainf.load_model("seidel_pants")
        exact = ainf.exact_reduce(model)
        for entry in exact.entries:
            _, a, _ = entry.coeff.single_term()
            assert a.is_zero()
        kind, w = exact.weak_mc_check("S")
        assert kind == "potential"
        assert w == SymPoly.term(1, None, {"x": 1, "y": 1, "z": 1})

    def test_exact_reduce_requires_offsets(self):
        model = ainf.load_model("isotopy_pair")
        with pytest.raises(ValueError):
            ainf.exact_reduce(model)


class TestIsotopyPair:
    """Isotopic pair of Seidel Lagrangians: x' = T^{2d} x, y' = T^{-d} y, z' = T^{-d} z."""

    def setup_method(self):
        self.model = ainf.load_model("isotopy_pair")
        self.alpha = self.model.element([("P6", 1)])
        self.change = ainf.solve_isomorphism(self.model, self.alpha, ("x'", "y'", "z'"))

    def test_coordinate_change(self):
        d = area(k1=2, k5=4, k6=2, k7=3)  # 2k1 + k2 - k5 - k6 - k7 after elimination
        assert self.change.solved["x'"] == SymPoly.term(1, d.scale(2), {"x": 1})
        assert self.change.solved["y'"] == SymPoly.term(1, -d, {"y": 1})
        assert self.change.solved["z'"] == SymPoly.term(1, -d, {"z": 1})

    def test_inverse_scalar_both_orders(self):
        # iso_setup returns c only where m2(alpha, beta) = m2(beta, alpha) = c * unit
        k = area(k1=4, k5=8, k6=6, k7=7)  # 4k1 + k2 + k3 + k5 + k6 + k7
        assert dgcat.iso_setup(self.model)[3] == SymPoly.term(1, k)

    def test_potential_invariance(self):
        assert ainf.potential_invariance(self.model, "L0", "L1", self.change)

    def test_numeric_instantiation(self):
        rng = random.Random(20240817)
        for _ in range(20):
            assignment = ainf.random_area_assignment(self.model, rng)
            solved = {v: c.normalize(self.change.constraints).instantiate(assignment)
                      for v, c in self.change.solved.items()}
            d = 2 * assignment["k1"] + assignment["k2"] - assignment["k5"] \
                - assignment["k6"] - assignment["k7"]
            assert solved["x'"] == SymPoly.term(1, 2 * d, {"x": 1})
            assert solved["y'"] == SymPoly.term(1, -d, {"y": 1})


class TestTwoPants:
    """Immersed two-object chart: x' = x^{-1} T^d, y' = x y T^{-e}, z' = x z T^{-e}."""

    def setup_method(self):
        self.model = ainf.load_model("two_pants")
        self.alpha = self.model.element([("P4", 1), ("Q4", -1)])
        self.change = ainf.solve_isomorphism(self.model, self.alpha, ("x'", "y'", "z'"))

    def test_coordinate_change(self):
        d = area(k1=4, k2=2, k3=2, k5=-1, k6=-1)
        e = area(k1=2, k3=2, k6=-1)
        assert self.change.solved["x'"] == SymPoly.term(1, d, {"x": -1})
        assert self.change.solved["y'"] == SymPoly.term(1, -e, {"x": 1, "y": 1})
        assert self.change.solved["z'"] == SymPoly.term(1, -e, {"x": 1, "z": 1})

    def test_inverse_scalar_both_orders(self):
        c = area(k1=4, k2=2, k3=2, k4=1)
        assert dgcat.iso_setup(self.model)[3] == SymPoly.term(1, c)

    def test_potential_invariance(self):
        assert ainf.potential_invariance(self.model, "L", "Lt", self.change)

    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_twisted_variants(self, a):
        change = ainf.variant_isomorphism(self.model, a)
        d = area(k1=4, k2=2, k3=2, k5=-1, k6=-1)
        e = area(k1=2, k3=2, k6=-1)
        assert change.solved["x'"] == SymPoly.term(1, d, {"x": -1})
        assert change.solved["y'"] == SymPoly.term(1, -e, {"x": a, "y": 1})
        assert change.solved["z'"] == SymPoly.term(1, -e, {"x": 2 - a, "z": 1})


class TestCircleSeidel:
    """Circle chart against a Seidel chart: x1 = t T^d, y1 = y0 T^{-h1}, z1 = z0 T^{-h2}."""

    def setup_method(self):
        self.model = ainf.load_model("circle_seidel")
        self.alpha = self.model.element([("P1", 1), ("P2", 1)])
        self.change = ainf.solve_isomorphism(self.model, self.alpha, ("x1", "y1", "z1"))

    def test_coordinate_change(self):
        d = area(k7=1, k1=-1, k2=-1, k3=-1, k4=-1, k5=-1)
        h1 = area(k7=1, k1=-2, k2=-1)
        h2 = area(k7=1, k4=-1, k5=-2)
        assert self.change.solved["x1"] == SymPoly.term(1, d, {"t": 1})
        assert self.change.solved["y1"] == SymPoly.term(1, -h1, {"y0": 1})
        assert self.change.solved["z1"] == SymPoly.term(1, -h2, {"z0": 1})

    def test_inverse_scalar_both_orders(self):
        assert dgcat.iso_setup(self.model)[3] == SymPoly.term(1, sym("k7"))

    def test_potential_invariance(self):
        assert ainf.potential_invariance(self.model, "C", "S1", self.change)


class TestDegreeRule:
    # every model checks its entries on construction, however it is built
    def test_degree_mismatch_rejected(self):
        gens = {
            "a": Generator("a", "L", "L", 1),
            "u": Generator("u", "L", "L", 1),
        }
        bad = Entry(("a", "a"), "u", SymPoly.scalar(1))
        with pytest.raises(ValueError, match="degree mismatch"):
            ainf.AInfLocalModel("test", ("L",), gens, {"L": ()}, {}, {}, [bad])
        with pytest.raises(KeyError, match="unknown generator b"):
            ainf.AInfLocalModel("test", ("L",), gens, {"L": ()}, {}, {},
                                [Entry(("a", "b"), "u", SymPoly.scalar(1))])

    @pytest.mark.parametrize("build", [
        lambda: ainf.load_model("two_pants"), mf.pants_strip_model, dgcat._two_circle_model,
    ], ids=["two_pants", "pants_strip", "two_circle"])
    def test_replace_rejects_a_bad_entry(self, build):
        model = build()
        entry = model.entries[0]
        parity = model.generators[entry.output].degree % 2
        wrong = next(g.name for g in model.generators.values() if g.degree % 2 != parity)
        for bad, error in ((replace(entry, output=wrong), ValueError),
                           (replace(entry, inputs=entry.inputs + ("nosuch",)), KeyError),
                           (replace(entry, output="nosuch"), KeyError)):
            with pytest.raises(error):
                replace(model, entries=model.entries + [bad])
        assert replace(model, entries=model.entries[1:]).entries == model.entries[1:]


def _full_scan(model, seq, slots):
    """m of one basis sequence by matching every table entry (no index)."""
    out = {}
    for entry in model.entries:
        for match in model._match_entry(entry, seq, slots):
            term = entry.coeff
            for var in match:
                term = term * SymPoly.var(var)
            out[entry.output] = out.get(entry.output, SymPoly.zero()) + term
    return {g: c for g, c in ((g, model.normalize(c)) for g, c in out.items())
            if not c.is_zero()}


INDEX_ORACLE_MODELS = [ainf.load_model(name) for name in
                       ("seidel_pants", "two_pants", "isotopy_pair", "circle_seidel")] + \
    [dgcat._two_circle_model()]


class TestEntryIndex:
    @pytest.mark.parametrize("model", INDEX_ORACLE_MODELS, ids=lambda m: m.name)
    def test_indexed_lookup_equals_full_scan(self, model):
        units = {u for us in model.units.values() for u in us}
        gens = [g for g in model.generators.values() if g.name not in units]
        deformation_gens = {g for defs in model.deformations.values() for g in defs}

        def chains(k, pool):
            if k == 0:
                yield ()
                return
            for prefix in chains(k - 1, pool):
                for g in pool:
                    if not prefix or prefix[-1].target == g.source:
                        yield prefix + (g,)

        def shown(el):
            return [(g, str(c)) for g, c in el.items()]

        for obj in model.objects:
            assert shown(model.deformed_m([], obj=obj)) == shown(_full_scan(model, (), (obj,)))
        tuples = [seq for k in (1, 2, 3) for seq in chains(k, gens)]
        # deformation generators passed as real inputs, past the arity-3 tuples
        tuples += list(chains(4, [g for g in gens if g.name in deformation_gens]))
        passing_deformation = 0
        for seq in tuples:
            names = tuple(g.name for g in seq)
            slots = (seq[0].source,) + tuple(g.target for g in seq)
            got = model.deformed_m([{g: SymPoly.scalar(1)} for g in names])
            assert shown(got) == shown(_full_scan(model, names, slots)), names
            passing_deformation += bool(got) and bool(deformation_gens & set(names))
        assert passing_deformation > 0


def _reference_deformed_m(model, inputs, obj=None):
    """``deformed_m`` by full expansion: every basis sequence's coefficient is
    multiplied out before the table is read."""
    if not inputs:
        if obj is None:
            raise ValueError("m_0 needs the object label")
        basis_lists = [()]
        coeff_lists = [SymPoly.scalar(1)]
        slot_lists = [(obj,)]
    else:
        basis_lists, coeff_lists = [()], [SymPoly.scalar(1)]
        for element in inputs:
            nb, nc = [], []
            for seq, coeff in zip(basis_lists, coeff_lists):
                for g, c in element.items():
                    nb.append(seq + (g,))
                    nc.append(coeff * c)
            basis_lists, coeff_lists = nb, nc
        slot_lists = []
        for seq in basis_lists:
            gens = [model.generators[g] for g in seq]
            ok = all(gens[i].target == gens[i + 1].source for i in range(len(gens) - 1))
            slot_lists.append((gens[0].source,) + tuple(g.target for g in gens) if ok else None)
    out = {}
    for seq, coeff, slots in zip(basis_lists, coeff_lists, slot_lists):
        if slots is None:
            continue
        for entry in model._entries_by_inputs.get(model._real_inputs(seq), ()):
            for match in model._match_entry(entry, seq, slots):
                term = coeff * entry.coeff
                for var in match:
                    term = term * SymPoly.var(var)
                out[entry.output] = out.get(entry.output, SymPoly.zero()) + term
    return {g: c for g, c in ((g, model.normalize(c)) for g, c in out.items())
            if not c.is_zero()}


def _ordered(el):
    """An element with the order of its generators and of each one's terms."""
    return [(g, list(c.terms.items())) for g, c in el.items()]


@st.composite
def _coefficients(draw, model):
    """Sums of one or two terms, each with a nonzero area and a monomial."""
    symbols = model.area_symbols or ("a", "b")
    variables = sorted({v for vs in model.variables.values() for v in vs})
    total = SymPoly.zero()
    for _ in range(draw(st.integers(1, 2))):
        scalar = draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)]))
        area = AreaExp.of({draw(st.sampled_from(symbols)): draw(st.integers(1, 3))},
                          draw(st.integers(-2, 2)))
        mono = draw(st.dictionaries(st.sampled_from(variables),
                                    st.integers(-2, 2).filter(bool), min_size=1, max_size=2))
        total = total + SymPoly.term(scalar, area, mono)
    return total


@st.composite
def _deformed_m_calls(draw, model):
    """(inputs, obj) of a ``deformed_m`` call of arity 0 to 4.

    Half the calls are built around the tokens of a table entry, deformation
    generators included, so that many sequences match; every input also gets
    random generators, which make matches, misses and non-composable
    sequences."""
    names = sorted(model.generators)
    if draw(st.booleans()):
        spine = list(draw(st.sampled_from(model.entries)).inputs)[:4]
    else:
        spine = draw(st.lists(st.sampled_from(names), max_size=4))
    if not spine:
        return [], draw(st.sampled_from(model.objects))
    inputs = []
    for g in spine:
        gens = [g] + draw(st.lists(st.sampled_from(names), max_size=2))
        inputs.append({h: draw(_coefficients(model)) for h in gens})
    return inputs, None


def _count_products(monkeypatch):
    """Count the ``SymPoly`` products from here on; returns the counter."""
    count = [0]
    product = SymPoly.sum_of_products

    def counted(pairs):
        pairs = list(pairs)
        count[0] += len(pairs)
        return product(pairs)

    monkeypatch.setattr(SymPoly, "sum_of_products", staticmethod(counted))
    return lambda: count[0]

class TestDeformedM:
    @pytest.mark.parametrize("model", INDEX_ORACLE_MODELS, ids=lambda m: m.name)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_equals_full_expansion_in_order(self, model, data):
        inputs, obj = data.draw(_deformed_m_calls(model))
        got = model.deformed_m(inputs, obj=obj)
        assert _ordered(got) == _ordered(_reference_deformed_m(model, inputs, obj))

    def _unmatched_call(self):
        model = ainf.load_model("two_pants")
        alpha = model.element([("P4", 1), ("Q4", -1)])
        beta = model.element([("Q1r", 1), ("P1r", 1)])
        return model, alpha, beta

    def test_unknown_generator_raises_wherever_it_sits(self):
        model, alpha, beta = self._unmatched_call()
        # no sequence of this call has a table entry
        assert model.deformed_m([alpha, beta, alpha]) == {}
        with_unknown = dict(alpha, nosuch=SymPoly.scalar(1))
        for inputs in ([with_unknown, beta, alpha], [alpha, beta, with_unknown]):
            with pytest.raises(KeyError, match="nosuch"):
                model.deformed_m(inputs)

    def test_unmatched_sequences_multiply_nothing(self, monkeypatch):
        model, alpha, beta = self._unmatched_call()
        products = _count_products(monkeypatch)
        assert _reference_deformed_m(model, [alpha, beta, alpha]) == {}
        assert products() == 14  # the full expansion's products, all discarded
        assert model.deformed_m([alpha, beta, alpha]) == {}
        assert products() == 14

    def test_yoneda_check_products(self, monkeypatch):
        products = _count_products(monkeypatch)
        report = dgcat.yoneda_equivalence_check("two_pants", arity_bound=3)
        assert report["ok"]
        assert products() <= 1000  # 9,967 by full expansion

    def test_yoneda_check_keys_each_element_once(self, monkeypatch):
        keys, pairs = [0], [0]
        build, hom_pair = dgcat._element_key, ainf.AInfLocalModel.hom_pair

        def counted(el):
            keys[0] += 1
            return build(el)

        def counted_pair(model, el):
            pairs[0] += 1
            return hom_pair(model, el)

        monkeypatch.setattr(dgcat, "_element_key", counted)
        monkeypatch.setattr(ainf.AInfLocalModel, "hom_pair", counted_pair)
        report = dgcat.yoneda_equivalence_check("two_pants", arity_bound=3)
        assert report["ok"]
        # 9,316 keys when every m call re-keys its inputs; 1,568 keys and
        # 2,694 Hom-pair sets when plain dicts are wrapped on every call
        assert keys[0] <= 500
        assert pairs[0] <= 200

