from fractions import Fraction

import pytest

from regenum import exactnum
from regenum.exactnum import RatFunc, UniPoly, gcd_fallbacks, rf
from regenum.modgb import Reducer, eta_embed, extract_reducers, module_buchberger
from regenum.models import build_g, build_generators, parse_model
from regenum.oracle import pairing_tseries, scalar_series
from regenum.polyring import MPoly
from regenum.seqtools import ODE
from regenum.telescope import (
    FailDominance,
    FailPositiveDim,
    KernelAccumulator,
    left_kernel_step,
    red,
    reduction_basis,
    replay,
    run_pipeline,
)
from regenum.weyl import parse_op

from conftest import pipeline, rand_mpoly


def poly(text, k):
    return parse_op(text, k).poly_part()


def up(*cs):
    return UniPoly(cs)


# the worked 4-regular example, straight from the narrative
A5 = up(-4, 8, 2, 0, 2, 1)  # t^5 + 2t^4 + 2t^2 + 8t - 4


def paper_k4_ode() -> ODE:
    q2 = up(0, 0, 16) * up(2, 1) ** 2 * up(-1, 1) ** 2 * A5
    q1 = up(384, -1664, 960, 1344, -800, 192, 1392, 880, 144, 40, 64, 0, -16, -4)
    q0 = up(0, 0, 0, 0, -1) * A5 * A5
    return ODE.from_kernel([q0, q1, q2])


class TestRed:
    def test_irreducible_fixed(self):
        res = pipeline("se,ll,{4}")
        one = MPoly.const(4, 1)
        out, _ = red(one, res.basis)
        assert out == one

    def test_ghat1_matches_display(self):
        res = pipeline("se,ll,{4}")
        g = build_g(res.model)
        out, _ = red(g, res.basis)
        c = RatFunc.of(A5.scale(-1), up(0, 0, -8, 4, 4))  # -(A5) / (4 t^2 (t^2+t-2))
        assert out == (poly("p2", 4) + poly("1", 4)).scale(c)

    def test_ghat2_matches_display(self):
        g2 = pipeline("se,ll,{4}").ghat[2]
        den = up(0, 0, 0, 0, 16) * up(-2, 1, 1) ** 2 * up(-1, 1) * up(2, 1)
        n0 = up(-96, 416, -240, -336, 200, -48, -356, -200, -36, -20, -14, 0, 1)
        n1 = up(-96, 416, -240, -336, 200, -48, -348, -220, -36, -10, -16, 0, 4, 1)
        assert g2.coeff((0, 0, 0, 0)) == RatFunc.of(n0.scale(-1), den)
        assert g2.coeff((0, 1, 0, 0)) == RatFunc.of(n1.scale(-1), den)
        assert g2.coeff((1, 0, 0, 0)).is_zero()

    def test_support_under_stairs(self):
        for ms in ("se,ll,{3}", "se,ll,{4}", "me,la,{2}"):
            res = pipeline(ms)
            stairs = set(res.basis.stairs)
            for g in res.ghat:
                assert set(g.terms) <= stairs

    def test_replay_random(self, rng):
        cases = 0
        models = ["se,ll,{2}", "se,ll,{3}", "se,ll,{4}", "me,lh,{2}", "se,la,{1,2}"]
        while cases < 200:
            res = pipeline(models[cases % len(models)])
            s = rand_mpoly(rng, res.model.k, nterms=3, maxdeg=3)
            out, trace = red(s, res.basis, want_trace=True)
            assert replay(s, out, trace, res.basis)
            cases += 1

    def test_pipeline_traces_replay(self):
        for ms in ("se,ll,{3}", "se,ll,{4}"):
            res = pipeline(ms)
            for src, shat, trace in res.traces:
                assert replay(src, shat, trace, res.basis)


class TestKernel:
    def test_trivial_dependency(self):
        dep = left_kernel_step([[1], [1]])
        assert dep == [up(1), up(-1)]

    def test_independent(self):
        assert left_kernel_step([[1, 0], [0, 1]]) is None

    def test_rational_rows(self):
        t = RatFunc.of(up(0, 1))
        rows = [[rf(1), t], [t, t * t]]
        dep = left_kernel_step(rows)
        # t * row0 - row1 = 0
        assert dep == [up(0, 1), up(-1)]

    def test_k4_first_dependency_at_2(self):
        res = pipeline("se,ll,{4}")
        assert len(res.ghat) == 3  # rows 0,1 independent; row 2 dependent
        assert len(res.basis.stairs) == 3

    def test_cofactors_exact(self, rng):
        for _ in range(50):
            w = rng.randint(1, 4)
            rows = []
            acc = KernelAccumulator(w)
            dep = None
            while dep is None:
                row = [rf(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(w)]
                rows.append(row)
                dep = acc.add_row(row)
            # sum_i dep_i * rows_i = 0, coordinate-wise over Q(t)
            for col in range(w):
                s = rf(0)
                for q, row in zip(dep, rows):
                    s = s + RatFunc.of(q) * row[col]
                assert s.is_zero()
            assert not dep[-1].is_zero()


class TestPipeline:
    def test_k4_ode_equals_display(self):
        res = pipeline("se,ll,{4}")
        paper = paper_k4_ode()
        assert res.ode.scalar_multiple_of(paper)
        assert res.ode == paper
        assert res.ode.order == 2
        assert res.ode.degree == 14

    @pytest.mark.parametrize("ms,order", [("se,ll,{2}", 1), ("se,ll,{3}", 2), ("se,ll,{4}", 2)])
    def test_small_orders(self, ms, order):
        assert pipeline(ms).ode.order == order

    def test_degree5_derivation_needs_no_gcd_fallback(self):
        # a fresh run, not the cached one, so its gcds happen here
        before = gcd_fallbacks()
        assert run_pipeline(parse_model("se,ll,{5}")).ode.order == 6
        assert gcd_fallbacks() == before

    def test_degree5_gcds_skip_the_heuristic(self, monkeypatch):
        # Every denominator this derivation meets is a power of t (measured,
        # not proved for odd degrees in general), which RatFunc keeps in its
        # exponent, so the Groebner basis and every reduction make no
        # heuristic gcd; only the kernel's final content strip may still
        # meet a general gcd.
        model = parse_model("se,ll,{5}")
        heu_gcd, calls = exactnum._heu_gcd, []

        def counting(pa, pb):
            calls.append((pa, pb))
            return heu_gcd(pa, pb)

        monkeypatch.setattr(exactnum, "_heu_gcd", counting)
        res = run_pipeline(model)
        assert len(calls) <= 1

        def refuse(pa, pb):
            raise AssertionError(f"heuristic gcd of {pa} and {pb}")

        monkeypatch.setattr(exactnum, "_heu_gcd", refuse)
        gb = module_buchberger([eta_embed(p) for p in build_generators(model)])
        basis = reduction_basis(extract_reducers(gb))
        assert gb == res.gb and basis.stairs == res.basis.stairs
        g, ghat = build_g(model), res.ghat[0]
        for want in res.ghat[1:]:
            ghat, _ = red(g * ghat + ghat.map_coeffs(lambda c: c.derivative()), basis)
            assert ghat == want

    def test_degree5_groebner_and_reductions_make_no_gcd_call(self, monkeypatch):
        # With the powers of t in RatFunc's exponent, the power-of-t
        # denominators of this derivation leave no polynomial gcd to make
        # at all before the kernel.
        model, res = parse_model("se,ll,{5}"), pipeline("se,ll,{5}")

        def refuse(a, b):
            raise AssertionError(f"gcd of {a} and {b}")

        monkeypatch.setattr(exactnum, "zgcd", refuse)
        gb = module_buchberger([eta_embed(p) for p in build_generators(model)])
        basis = reduction_basis(extract_reducers(gb))
        assert gb == res.gb and basis.stairs == res.basis.stairs
        g, ghat = build_g(model), res.ghat[0]
        for want in res.ghat[1:]:
            ghat, _ = red(g * ghat + ghat.map_coeffs(lambda c: c.derivative()), basis)
            assert ghat == want

    def test_k2_ode_exact(self):
        # S' * (2t-2) + t^2 S = 0 for 2-regular graphs
        assert pipeline("se,ll,{2}").ode == ODE((up(0, 0, 1), up(-2, 2)))

    def test_ode_annihilates_oracle_series(self):
        for ms in ("se,ll,{2}", "se,ll,{3}", "me,ll,{2}", "se,lh,{1,2}", "me,la,{2}"):
            res = pipeline(ms)
            n = res.ode.order + res.ode.degree + 5
            s = scalar_series(res.model, n)
            img = res.ode.apply_series(list(s.coeffs))
            good = n - res.ode.degree - res.ode.order
            assert all(x == 0 for x in img[: good + 1]), ms

    def test_telescoping_derivative_identity(self):
        # <F, ghat_i G> == d^i/dt^i <F, G> as truncated series
        order = 10
        for ms in ("se,ll,{2}", "se,ll,{3}", "se,ll,{4}"):
            res = pipeline(ms)
            m = res.model
            s = scalar_series(m, order + len(res.ghat))
            for i, gh in enumerate(res.ghat):
                # clear denominators: D * ghat_i
                den = UniPoly((1,))
                for c in gh.terms.values():
                    den = den * c.den
                cleared = gh.scale(RatFunc.of(den))
                lhs = pairing_tseries(m, cleared, order)
                coeffs = list(s.coeffs)
                for _ in range(i):
                    coeffs = [j * coeffs[j] for j in range(1, len(coeffs))]
                rhs_series = UniPoly(coeffs[: order + 1])
                rhs = den * rhs_series
                diff = lhs - rhs
                assert all(
                    c == 0 for j, c in enumerate(diff.coeffs) if j <= order
                ), (ms, i)


class TestFailures:
    def test_positive_dimension(self):
        g = parse_op("p1*p2", 2)
        r = Reducer(g=g, q=poly("p1*p2", 2), m=(1, 1), c=rf(1))
        with pytest.raises(FailPositiveDim) as exc:
            reduction_basis([r])
        assert exc.value.code == "FAIL"

    def test_dominance_failure(self):
        g = parse_op("p1 + p2^2", 2)
        r = Reducer(g=g, q=poly("p1 + p2^2", 2), m=(1, 0), c=rf(1))
        with pytest.raises(FailDominance) as exc:
            reduction_basis([r])
        assert exc.value.code == "FAIL-DOMINANCE"
