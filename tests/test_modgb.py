from fractions import Fraction

import pytest

from regenum import modgb
from regenum.exactnum import RF_ONE, RF_T, RatFunc, UniPoly
from regenum.modgb import (
    ModuleElem,
    Reducer,
    eta_embed,
    extract_reducers,
    is_dominant,
    module_buchberger,
    module_to_weyl,
    _normal_form,
)
from regenum.models import build_generators, parse_model
from regenum.oracle import pairing_tseries
from regenum.polyring import MPoly
from regenum.weyl import WeylOp, apply_op, parse_op, right_mul_poly, weyl_mul

from conftest import pipeline, poly, rand_mpoly, rand_weylop
from test_sweep import packed_leads


class TestEtaEmbed:
    def test_twist_p4(self):
        m = parse_model("se,ll,{4}")
        em = eta_embed(build_generators(m)[3])
        assert em.eta1 == poly("p4 + t - 1", 4)
        assert set(em.eta0) == {(0, 0, 0, 1)}
        assert em.eta0[(0, 0, 0, 1)] == MPoly.const(4, 4)

    def test_pure_polynomial(self):
        s = parse_op("p1^2 - 3", 2)
        em = eta_embed(s)
        assert em.eta1 == poly("p1^2 - 3", 2) and not em.eta0

    def test_pure_derivation(self):
        em = eta_embed(parse_op("d1", 2))
        assert em.eta1.is_zero()
        assert em.eta0 == {(1, 0): MPoly.const(2, 1)}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_round_trips(self, k, rng):
        # the term map against the coordinate views and the operator
        for _ in range(40):
            a = rand_weylop(rng, k, nterms=5, maxdeg=3)
            em = eta_embed(a)
            assert module_to_weyl(em) == a
            assert ModuleElem(k, em.eta1, em.eta0) == em

    def test_zero_d_exponent_rejected(self):
        # d^0 eta0 is no position: eta1 holds the derivation-free part
        with pytest.raises(ValueError):
            ModuleElem(2, poly("p1", 2), {(0, 0): poly("p2", 2)})

    def test_wrong_length_d_exponent_rejected(self):
        with pytest.raises(ValueError):
            ModuleElem(2, poly("p1", 2), {(1,): poly("p2", 2)})
        with pytest.raises(ValueError):
            ModuleElem(2, None, {(1, 0, 0): poly("p2", 2)})

    def test_repr_of_p4_generators(self):
        # strings recorded before the coordinates became one term map
        m = parse_model("se,ll,{4}")
        assert [repr(eta_embed(g)) for g in build_generators(m)] == [
            "eta1*(-(t/6)*p1^3 - (t/2)*p1*p2 - (t/3)*p3 + p1) + d1.eta0*(-1)",
            "eta1*((t/2)*p1^2 + ((t + 2)/2)*p2 + 1) + d2.eta0*(2)",
            "eta1*(p3 - t*p1) + d3.eta0*(-3)",
            "eta1*(p4 + t - 1) + d4.eta0*(4)",
        ]


class TestBuchberger:
    def test_single_generator_fixed_point(self):
        gen = ModuleElem(2, poly("p1", 2))
        gb = module_buchberger([gen])
        assert len(gb) == 1 and gb[0].eta1 == poly("p1", 2)

    def test_k4_stairs_dimension(self):
        res = pipeline("se,ll,{4}")
        ms = sorted(r.m for r in res.reducers)
        assert ms == sorted([(0, 0, 1, 0), (0, 0, 0, 1), (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)])
        assert res.basis.stairs == [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)]

    def test_membership_p5_tilde(self):
        m = parse_model("se,ll,{4}")
        gens = build_generators(m)
        third = Fraction(1, 3)
        p5 = gens[0] + right_mul_poly(gens[2], MPoly.const(4, RF_T.scale_rat(third)))
        p5 = p5 + right_mul_poly(gens[1], MPoly.gen(4, 0).scale_rat(third))
        gb = pipeline("se,ll,{4}").gb
        nf = _normal_form(eta_embed(p5), gb, packed_leads(gb))
        assert nf.is_zero()

    def test_idempotence(self):
        gb = pipeline("se,ll,{3}").gb
        gb2 = module_buchberger(gb)
        assert {e.lead()[0] for e in gb2} == {e.lead()[0] for e in gb}

    def test_autoreduce_is_one_pass(self, monkeypatch):
        # a minimal basis keeps its leads, so one normal form per element
        # leaves it reduced, with every lead coefficient still 1
        autoreduce = modgb._autoreduce
        calls = []

        def counted(*args):
            calls.append(1)
            return _normal_form(*args)

        def counting_autoreduce(*args):
            monkeypatch.setattr(modgb, "_normal_form", counted)
            return autoreduce(*args)

        monkeypatch.setattr(modgb, "_autoreduce", counting_autoreduce)
        gb = module_buchberger([eta_embed(p) for p in build_generators(parse_model("se,ll,{5}"))])
        assert len(calls) == len(gb) == 26
        leads = packed_leads(gb)
        for i, elem in enumerate(gb):
            assert elem.lead()[1] == RF_ONE
            assert _normal_form(elem, gb[:i] + gb[i + 1:], leads[:i] + leads[i + 1:]) == elem

    def test_recombination_identity(self):
        # every basis element is an exact right-combination of the inputs,
        # verified both in the module and back in the Weyl algebra
        m = parse_model("se,ll,{3}")
        gens_w = build_generators(m)
        gens = [eta_embed(g) for g in gens_w]
        gb, cofs = module_buchberger(gens, with_cofactors=True)
        for elem, cof in zip(gb, cofs):
            acc = WeylOp(3)
            for gw, c in zip(gens_w, cof):
                if not c.is_zero():
                    acc = acc + weyl_mul(gw, WeylOp.from_mpoly(c))
            assert acc == module_to_weyl(elem)


class TestExtract:
    def test_p4_reducer_shape(self):
        res = pipeline("se,ll,{4}")
        (r4,) = [r for r in res.reducers if r.m == (0, 0, 0, 1)]
        (e4,) = [e for e in res.gb if e.lead()[0] == (None, r4.m)]
        assert e4.eta1 == poly("p4 + t - 1", 4)
        assert e4.lead()[1] == RF_ONE
        assert r4.g == parse_op("p4 + t - 1 + 4*d4", 4)

    def test_skips_eta0_only_elements(self):
        res = pipeline("se,ll,{4}")
        assert len(res.reducers) < len(res.gb)
        eta1 = {e.lead()[0]: e.eta1 for e in res.gb}
        for r in res.reducers:
            assert not eta1[(None, r.m)].is_zero()

    def test_reducer_is_module_to_weyl(self):
        gb = pipeline("se,ll,{4}").gb
        elems = [e for e in gb if not e.eta1.is_zero()]
        reducers = extract_reducers(gb)
        assert len(reducers) == len(elems)
        for r, elem in zip(reducers, elems):
            assert r.g == module_to_weyl(elem)

    def test_no_candidates_error(self):
        elem = ModuleElem(2, MPoly(2), {(1, 0): poly("p1", 2)})
        with pytest.raises(ValueError):
            extract_reducers([elem])


class TestDominance:
    def test_affine_tail(self):
        g = parse_op("p4 + t - 1 + 4*d4", 4)
        r = Reducer(g=g, m=(0, 0, 0, 1))
        assert is_dominant(r)

    def test_coefficient_at_m_must_be_one(self):
        g = parse_op("2*p4 + t - 1 + 4*d4", 4)
        assert not is_dominant(Reducer(g=g, m=(0, 0, 0, 1)))
        assert is_dominant(Reducer(g=g.scale(RatFunc.from_rat(Fraction(1, 2))), m=(0, 0, 0, 1)))

    def test_degree_raising_tail_rejected(self):
        g = parse_op("p1 + p2^2", 2)
        r = Reducer(g=g, m=(1, 0))
        assert not is_dominant(r)

    def test_equal_weight_larger_monomial_rejected(self):
        # tail p3 has the same weight as the head p1 but sits above it
        g = parse_op("p1 + p3", 3)
        r = Reducer(g=g, m=(1, 0, 0))
        assert not is_dominant(r)

    def test_equal_weight_smaller_monomial_accepted(self):
        g = parse_op("p3 - t*p1 - 3*d3", 3)
        r = Reducer(g=g, m=(0, 0, 1))
        assert is_dominant(r)

    @pytest.mark.parametrize("ms", ["se,ll,{2}", "se,ll,{3}", "se,ll,{4}", "se,ll,{5}"])
    def test_all_regular_model_reducers_dominant(self, ms):
        for r in pipeline(ms).reducers:
            assert is_dominant(r)


class TestLemma2Nullity:
    MODELS = ["se,ll,{2}", "se,ll,{3}", "se,ll,{4}", "me,la,{3}", "se,lh,{1,2}", "me,lh,{2}"]

    def test_reducer_images_pair_to_zero(self, rng):
        # <F, (G.s) G> = 0: checked as a t-series through order 6 after
        # clearing coefficient denominators; every reducer gets a case
        queue = []
        for ms in self.MODELS:
            for red in pipeline(ms).reducers:
                queue.append((ms, red))
        i = 0
        for case in range(200):
            ms, red = queue[i % len(queue)]
            i += 1
            m = pipeline(ms).model
            s = rand_mpoly(rng, m.k, nterms=2, maxdeg=2, t_free=True)
            h = apply_op(red.g, s)
            den = UniPoly((1,))
            for c in h.terms.values():
                den = den * c.den
            h = h.scale(RatFunc.of(den))
            for c in h.terms.values():
                assert c.dp == (1,)
            out = pairing_tseries(m, h, 6)
            assert out.is_zero(), (ms, red.m)
