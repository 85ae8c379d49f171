"""The signature loop of ``modgb.module_buchberger`` against a test-local
copy of the Gebauer-Moeller pair loop it replaced: the same reduced basis,
the same cofactors where the inputs are free (cofactors are then unique),
and no reduction to zero on the twisted generators."""

from itertools import combinations

import pytest

from regenum import modgb
from regenum.exactnum import RF_ONE
from regenum.modgb import ModuleElem, _autoreduce, _normal_form, _packing, eta_embed, module_buchberger, zero_reductions
from regenum.models import build_generators, parse_model
from regenum.polyring import MPoly, exp_div, exp_divides, grevlex_key
from regenum.telescope import run_pipeline

from conftest import rand_mpoly
from test_sweep import combination, rand_elem


def gm_buchberger(gens, with_cofactors=False):
    """Reference: Buchberger's pair loop with Gebauer-Moeller pruning,
    generators reduced in turn, the smallest lcm first.  It keeps the leads
    as tuples and hands ``modgb`` their packed form (``packed``)."""
    gens = [g for g in gens if not g.is_zero()]
    k = gens[0].k
    pk = _packing(k)
    ngens = len(gens)
    basis, leads, packed, cofs = [], [], [], []

    def add_element(elem, cof):
        lm, lc = elem.lead()
        inv = lc.inverse()
        basis.append(elem.scale(inv))
        leads.append(lm)
        packed.append(max(elem.terms))
        cofs.append(None if cof is None else [c.scale(inv) for c in cof])
        return len(basis) - 1

    pairs = {}

    def lcm_exp(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def update_pairs(s):
        pos_s, a_s = leads[s]
        fresh = {}
        for i in range(s):
            pos_i, a_i = leads[i]
            if pos_i == pos_s:
                fresh[(i, s)] = lcm_exp(a_i, a_s)
        for (i, j), l in list(pairs.items()):
            if leads[i][0] == pos_s and exp_divides(a_s, l):
                if lcm_exp(leads[i][1], a_s) != l and lcm_exp(leads[j][1], a_s) != l:
                    del pairs[(i, j)]
        kept = []
        for key, l in sorted(fresh.items(), key=lambda t: grevlex_key(t[1])):
            if not any(exp_divides(l2, l) for _, l2 in kept):
                kept.append((key, l))
        for key, l in kept:
            pairs[key] = l

    for gi, g in enumerate(gens):
        cof = None
        if with_cofactors:
            cof = [MPoly(k) for _ in range(ngens)]
            cof[gi] = MPoly.const(k, 1)
        red = _normal_form(g, basis, packed, cof, cofs)
        if not red.is_zero():
            update_pairs(add_element(red, cof))

    while pairs:
        key = min(pairs, key=lambda ij: (grevlex_key(pairs[ij]), ij))
        i, j = key
        del pairs[key]
        (pos, a_i), (_, a_j) = leads[i], leads[j]
        l = lcm_exp(a_i, a_j)
        s_elem = (basis[i].mul_term(pk.pack_shift(exp_div(l, a_i)), RF_ONE)
                  - basis[j].mul_term(pk.pack_shift(exp_div(l, a_j)), RF_ONE))
        cof = None
        if with_cofactors:
            qi = MPoly.term(k, exp_div(l, a_i), RF_ONE)
            qj = MPoly.term(k, exp_div(l, a_j), RF_ONE)
            cof = [cofs[i][g] * qi - cofs[j][g] * qj for g in range(ngens)]
        red = _normal_form(s_elem, basis, packed, cof, cofs)
        if not red.is_zero():
            update_pairs(add_element(red, cof))

    return _autoreduce(basis, packed, cofs, with_cofactors)


def twisted(ms):
    return [eta_embed(g) for g in build_generators(parse_model(ms))]


# every model with degrees in {1, 2, 3}
MODELS_123 = [f"{e},{l},{{{','.join(map(str, K))}}}" for e in ("se", "me") for l in ("ll", "la", "lh")
              for r in (1, 2, 3) for K in combinations((1, 2, 3), r)]


class TestFreeInputs:
    @pytest.mark.parametrize("ms", MODELS_123 + ["se,ll,{4}", "me,lh,{2,5}"])
    def test_basis_and_cofactors_match_pair_loop(self, ms):
        gens = twisted(ms)
        before = zero_reductions()
        gb, cofs = module_buchberger(gens, with_cofactors=True)
        assert zero_reductions() == before
        assert (gb, cofs) == gm_buchberger(gens, with_cofactors=True)

    @pytest.mark.parametrize("ms", ["se,ll,{5}", "se,la,{2,4,5}"])
    def test_pipeline_makes_no_zero_reduction(self, ms):
        before = zero_reductions()
        run_pipeline(parse_model(ms))
        assert zero_reductions() == before

    def test_singular_candidates_are_dropped(self, monkeypatch):
        # a k=5 model: 47 candidates, 18 of them singular, none zero
        calls = []

        def counted(*args):
            out = _normal_form(*args)
            if len(args) == 7:  # the loop's bounded forms, not _autoreduce's
                calls.append("singular" if out is None else "zero" if out.is_zero() else "kept")
            return out

        monkeypatch.setattr(modgb, "_normal_form", counted)
        gb = module_buchberger(twisted("se,ll,{5}"))
        assert len(gb) == 26
        assert (calls.count("kept"), calls.count("singular"), calls.count("zero")) == (29, 18, 0)


class TestInputsWithSyzygies:
    """Inputs that are not free: reductions to zero happen, and the
    result is still the unique reduced basis."""

    @staticmethod
    def check(gens):
        gb, cofs = module_buchberger(gens, with_cofactors=True)
        assert gb == gm_buchberger(gens)
        nonzero = [g for g in gens if not g.is_zero()]
        for elem, cof in zip(gb, cofs):
            assert combination(nonzero, cof) == elem
        return gb

    @pytest.mark.parametrize("ms", ["se,ll,{3}", "me,la,{2,3}", "se,ll,{4}"])
    def test_basis_fed_back(self, ms):
        gb = module_buchberger(twisted(ms))
        assert self.check(gb) == gb

    @pytest.mark.parametrize("ms", ["se,ll,{3}", "me,la,{2,3}", "se,ll,{4}"])
    def test_generators_plus_basis(self, ms):
        gens = twisted(ms)
        before = zero_reductions()
        assert self.check(gens + module_buchberger(gens)) == module_buchberger(gens)
        assert zero_reductions() > before

    @pytest.mark.parametrize("ms", ["se,ll,{3}", "me,lh,{1,2}", "se,ll,{4}"])
    def test_duplicated_generators(self, ms):
        gens = twisted(ms)
        before = zero_reductions()
        assert self.check(gens + gens) == module_buchberger(gens)
        assert zero_reductions() >= before + len(gens)

    @pytest.mark.parametrize("ms", ["se,ll,{4}", "me,la,{1,2,3}"])
    def test_one_generator(self, ms):
        for g in twisted(ms):
            self.check([g])

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_sets(self, k, rng):
        # three elements in the eta1 position always have syzygies
        for _ in range(6):
            before = zero_reductions()
            self.check([ModuleElem(k, rand_mpoly(rng, k, nterms=3, maxdeg=2)) for _ in range(3)]
                       + [rand_elem(rng, k)])
            assert zero_reductions() > before
