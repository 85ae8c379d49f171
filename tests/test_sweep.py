"""The descending sweeps in ``modgb._normal_form`` and ``telescope.red``
against test-local copies of the rescanning loops they replaced: same
results, same traces, same cofactors, step for step; and the packed
module monomials that ``modgb`` sweeps over, against exponent tuples."""

import pytest

from regenum import modgb
from regenum.exactnum import RF_ONE
from regenum.modgb import _MAX_EXP, ModuleElem, _normal_form, _packing, eta_embed, module_buchberger
from regenum.models import build_g, build_generators, parse_model
from regenum.polyring import MPoly, exp_div, exp_divides, exp_mul, grevlex_key, module_key
from regenum.telescope import red, replay
from regenum.weyl import apply_op

from conftest import pipeline, rand_exponent, rand_mpoly, rand_weylop

MODELS = ["se,ll,{4}", "me,la,{2}", "se,lh,{1,2}"]


def rescan_normal_form(elem, basis, leads, cof=None, basis_cofs=None, sigs=None, bound=None):
    """Reference: sort every monomial, reduce the first reducible one by the
    lowest-index divisor, copy the element, repeat.  With a signature
    bound, a divisor counts only if its multiplied signature lies below the
    bound, and an irreducible largest monomial that some lead divides at
    exactly the bound makes the element singular (None).

    Takes the packed leads and signatures of ``modgb._normal_form`` and
    works on their unpacked tuples."""
    pk = _packing(elem.k)

    def unpack_sig(s):
        return s >> pk.exp_bits, pk.unpack_exp(s & pk.exp_mask)

    def sig_key(i, a):
        return i, grevlex_key(a)

    leads = [pk.unpack(lead) for lead in leads]
    if bound is not None:
        sigs = [unpack_sig(s) for s in sigs]
        bound = unpack_sig(bound)
    while True:
        target = None
        mons = sorted(((pk.unpack(m), c) for m, c in elem.terms.items()), key=lambda t: module_key(t[0]), reverse=True)
        for rank, (mon, c) in enumerate(mons):
            pos, e = mon
            singular = False
            for bi, (bpos, bexp) in enumerate(leads):
                if bpos == pos and exp_divides(bexp, e):
                    shift = exp_div(e, bexp)
                    if bound is not None:
                        key = sig_key(sigs[bi][0], exp_mul(sigs[bi][1], shift))
                        if key >= sig_key(*bound):
                            singular = singular or key == sig_key(*bound)
                            continue
                    target = (mon, c, bi, shift)
                    break
            if target:
                break
            if rank == 0 and singular:
                return None
        if target is None:
            return elem
        mon, c, bi, shift = target
        elem = elem - basis[bi].mul_term(pk.pack_shift(shift), c)
        if cof is not None:
            q = MPoly.term(elem.k, shift, c)
            for gi in range(len(cof)):
                bc = basis_cofs[bi][gi]
                if not bc.is_zero():
                    cof[gi] = cof[gi] - bc * q


def rescan_red(s, basis, want_trace=False):
    """Reference: rescan every term for the largest reducible monomial on
    every step; the largest dividing m wins, ties by index."""
    reducers = basis.reducers
    trace = [] if want_trace else None
    while True:
        best = None
        best_key = None
        for e in s.terms:
            if (best_key is None or grevlex_key(e) > best_key) and any(
                exp_divides(r.m, e) for r in reducers
            ):
                best = e
                best_key = grevlex_key(e)
        if best is None:
            return s, trace
        j = None
        jkey = None
        for idx, r in enumerate(reducers):
            if exp_divides(r.m, best):
                key = grevlex_key(r.m)
                if jkey is None or key > jkey:
                    j, jkey = idx, key
        r = reducers[j]
        c = s.terms[best]
        shift = exp_div(best, r.m)
        s = s - apply_op(r.g, MPoly.term(s.k, shift, c))
        if want_trace:
            trace.append((j, c, shift))


def module_times(elem, q):
    """elem * q for a polynomial q, coefficient-wise."""
    acc = ModuleElem(elem.k, MPoly(elem.k))
    for e, c in q.terms.items():
        acc = acc - elem.mul_term(_packing(elem.k).pack_shift(e), -c)
    return acc


def packed_leads(elems):
    """The packed leading monomials that ``modgb._normal_form`` takes."""
    return [max(e.terms) for e in elems]


def combination(gens, cof):
    acc = ModuleElem(gens[0].k, MPoly(gens[0].k))
    for g, c in zip(gens, cof):
        acc = acc - module_times(g, -c)
    return acc


def rand_elem(rng, k):
    """A random module element: an embedded operator plus random eta1 and
    eta0 parts, so positions and degrees vary beyond the generators'."""
    elem = eta_embed(rand_weylop(rng, k, nterms=4, maxdeg=3))
    beta = rand_exponent(rng, k, 2)
    eta0 = dict(elem.eta0)
    if any(beta):
        eta0[beta] = rand_mpoly(rng, k, nterms=3, maxdeg=3)
    return ModuleElem(k, elem.eta1 + rand_mpoly(rng, k, nterms=3, maxdeg=3), eta0)


@pytest.fixture(scope="module", params=MODELS)
def cofactor_gb(request):
    model = parse_model(request.param)
    gens = [eta_embed(g) for g in build_generators(model)]
    gb, cofs = module_buchberger(gens, with_cofactors=True)
    return request.param, gens, gb, cofs


def rand_limit_exponent(rng, k):
    """An exponent with entries anywhere up to the field limit, the ends of
    the range drawn often."""
    return tuple(rng.choice((0, 1, 2, _MAX_EXP - 1, _MAX_EXP, rng.randint(0, _MAX_EXP))) for _ in range(k))


def rand_monomial(rng, k):
    pos = None if rng.random() < 0.3 else rand_limit_exponent(rng, k)
    return (None if pos is None or not any(pos) else pos), rand_limit_exponent(rng, k)


class TestPackedMonomials:
    """The packed format of ``modgb``, for k = 1..7 and exponents up to
    the field limit, against the tuple monomials and ``module_key``."""

    def test_order_is_module_key(self, rng):
        for k in range(1, 8):
            pk = _packing(k)
            mons = list({rand_monomial(rng, k) for _ in range(300)})
            assert all(pk.unpack(pk.pack(*m)) == m for m in mons)
            assert sorted(mons, key=lambda m: pk.pack(*m)) == sorted(mons, key=module_key)

    def test_divisibility(self, rng):
        for k in range(1, 8):
            pk = _packing(k)
            for _ in range(400):
                lead = rand_monomial(rng, k)
                mon = rand_monomial(rng, k)
                if rng.random() < 0.5:  # same position, often divisible
                    e = tuple(min(_MAX_EXP, x + rng.choice((0, 0, 1, _MAX_EXP))) for x in lead[1])
                    mon = lead[0], e
                want = lead[0] == mon[0] and exp_divides(lead[1], mon[1])
                assert pk.divides(pk.pack(*lead), pk.pack(*mon)) == want

    def test_shift_and_quotient_round_trip(self, rng):
        for k in range(1, 8):
            pk = _packing(k)
            for _ in range(200):
                pos, e = rand_monomial(rng, k)
                s = tuple(rng.randint(0, _MAX_EXP - x) for x in e)
                key = pk.pack(pos, e)
                prod = pk.pack(pos, exp_mul(e, s))
                assert pk.unpack_shift(pk.pack_shift(s)) == s
                assert pk.shifted(key, pk.pack_shift(s)) == prod
                assert pk.divides(key, prod) and prod - key == pk.pack_shift(s)
                elem = ModuleElem(k, MPoly.term(k, e, 3)) if pos is None else ModuleElem(k, None, {pos: MPoly.term(k, e, 3)})
                assert elem.mul_term(pk.pack_shift(s), RF_ONE.scale_rat(2)).lead() == ((pos, exp_mul(e, s)), RF_ONE.scale_rat(6))

    def test_out_of_range_raises(self):
        for k in range(1, 8):
            pk = _packing(k)
            top = (_MAX_EXP,) * k
            unit = (1,) + (0,) * (k - 1)
            with pytest.raises(ValueError):
                pk.pack(None, (-1,) + (0,) * (k - 1))
            with pytest.raises(ValueError):
                pk.pack_shift((0,) * (k - 1) + (-1,))
            with pytest.raises(ValueError):
                pk.pack(None, (0,) * (k + 1))
            with pytest.raises(OverflowError):
                pk.pack(unit, (0,) * (k - 1) + (_MAX_EXP + 1,))
            with pytest.raises(OverflowError):
                pk.pack_shift((_MAX_EXP + 1,) + (0,) * (k - 1))
            with pytest.raises(OverflowError):
                pk.shifted(pk.pack(None, top), pk.pack_shift((0,) * (k - 1) + (1,)))
            elem = ModuleElem(k, MPoly.term(k, top, 1) + MPoly.const(k, 1))
            with pytest.raises(OverflowError):
                elem.mul_term(pk.pack_shift(unit), RF_ONE)
            # the largest exponent itself packs and shifts
            assert pk.shifted(pk.pack(unit, (0,) * k), pk.pack_shift(top)) == pk.pack(unit, top)


class TestNormalFormSweep:
    def test_buchberger_matches_rescan(self, cofactor_gb, monkeypatch):
        ms, gens, gb, cofs = cofactor_gb
        monkeypatch.setattr(modgb, "_normal_form", rescan_normal_form)
        ref_gb, ref_cofs = module_buchberger(gens, with_cofactors=True)
        assert gb == ref_gb and cofs == ref_cofs, ms

    def test_random_elements(self, cofactor_gb, rng):
        ms, gens, gb, cofs = cofactor_gb
        k = gens[0].k
        leads = packed_leads(gb)
        for _ in range(25):
            elem = rand_elem(rng, k)
            cof = [rand_mpoly(rng, k, nterms=2, maxdeg=1) for _ in gens]
            ref_cof = list(cof)
            out = _normal_form(elem, gb, leads, cof, cofs)
            ref = rescan_normal_form(elem, gb, leads, ref_cof, cofs)
            assert out == ref and cof == ref_cof, ms
            assert _normal_form(elem, gb, leads) == ref

    def test_s_polynomials_with_cofactors(self, cofactor_gb):
        # every S-pair of the reduced basis: the normal form is zero, equal
        # to the rescan's, and the cofactors still express it exactly
        ms, gens, gb, cofs = cofactor_gb
        k = gens[0].k
        leads = packed_leads(gb)
        pairs = 0
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                (pos, a_i), (pos_j, a_j) = gb[i].lead()[0], gb[j].lead()[0]
                if pos != pos_j:
                    continue
                lcm = tuple(max(x, y) for x, y in zip(a_i, a_j))
                qi = MPoly.term(k, exp_div(lcm, a_i), RF_ONE)
                qj = MPoly.term(k, exp_div(lcm, a_j), RF_ONE)
                s_elem = module_times(gb[i], qi) - module_times(gb[j], qj)
                cof = [cofs[i][g] * qi - cofs[j][g] * qj for g in range(len(gens))]
                ref_cof = list(cof)
                out = _normal_form(s_elem, gb, leads, cof, cofs)
                ref = rescan_normal_form(s_elem, gb, leads, ref_cof, cofs)
                assert out == ref and cof == ref_cof
                assert out.is_zero()
                assert combination(gens, cof) == out
                pairs += 1
        assert pairs, ms

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_monic_bases(self, k, rng):
        # not Groebner bases: the normal form then depends on the order of
        # the steps and on the divisor chosen, so both must match the rescan
        for _ in range(30):
            basis = []
            for i in range(4):
                elem = rand_elem(rng, k)
                if i % 2 and elem.eta0:
                    elem = ModuleElem(k, MPoly(k), elem.eta0)  # lead in an eta0 position
                basis.append(elem.scale(elem.lead()[1].inverse()))
            leads = packed_leads(basis)
            basis_cofs = [[rand_mpoly(rng, k, nterms=2, maxdeg=1) for _ in range(2)] for _ in basis]
            elem = rand_elem(rng, k)
            cof = [MPoly.const(k, 1), MPoly(k)]
            ref_cof = list(cof)
            out = _normal_form(elem, basis, leads, cof, basis_cofs)
            ref = rescan_normal_form(elem, basis, leads, ref_cof, basis_cofs)
            assert out == ref and cof == ref_cof

    def test_irreducible_input_unchanged(self, cofactor_gb):
        ms, gens, gb, cofs = cofactor_gb
        leads = packed_leads(gb)
        for i, elem in enumerate(gb):
            others = gb[:i] + gb[i + 1:]
            assert _normal_form(elem, others, leads[:i] + leads[i + 1:]) == elem


class TestRedSweep:
    @pytest.mark.parametrize("ms", MODELS)
    def test_ghat_steps(self, ms):
        res = pipeline(ms)
        g = build_g(res.model)
        for gh in res.ghat:
            nxt = g * gh + gh.map_coeffs(lambda c: c.derivative())
            out, trace = red(nxt, res.basis, want_trace=True)
            ref, ref_trace = rescan_red(nxt, res.basis, want_trace=True)
            assert out == ref and trace == ref_trace
            assert red(nxt, res.basis) == (ref, None)

    @pytest.mark.parametrize("ms", MODELS)
    def test_random_polynomials(self, ms, rng):
        res = pipeline(ms)
        for _ in range(40):
            s = rand_mpoly(rng, res.model.k, nterms=5, maxdeg=4)
            out, trace = red(s, res.basis, want_trace=True)
            ref, ref_trace = rescan_red(s, res.basis, want_trace=True)
            assert out == ref and trace == ref_trace
            assert replay(s, out, trace, res.basis)

    def test_every_step_of_k5_replays(self):
        res = pipeline("se,ll,{5}")
        assert len(res.traces) == len(res.ghat) - 1
        for src, shat, trace in res.traces:
            assert trace
            assert replay(src, shat, trace, res.basis)
