"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The k=7 checks that
derive the ODE or unroll its counts take minutes (one order-20 derivation
about 3 min on a 2-core VM) and are marked `extended`; enable them with
`pytest -m extended`.  The k=7 Groebner stage alone runs by default.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from math import factorial

import pytest

from regenum.cli import main as cli_main
from regenum.exactnum import RatFunc
from regenum.modgb import Reducer, is_dominant
from regenum.models import build_g, parse_model
from regenum.oracle import graph_count_dp, pairing_tseries, scalar_series, trunc_pairing
from regenum.seqtools import ODE, indicial_check, ode_to_rec, rec_counts, unroll
from regenum.telescope import FailDominance, red, reduction_basis, replay, run_pipeline
from regenum.weyl import adjoint, apply_op, parse_op, weyl_mul

from conftest import pipeline, rand_mpoly, rand_weylop, up


A5 = up(-4, 8, 2, 0, 2, 1)  # t^5 + 2t^4 + 2t^2 + 8t - 4


def paper_k4_ode() -> ODE:
    q2 = up(0, 0, 16) * up(2, 1) ** 2 * up(-1, 1) ** 2 * A5
    q1 = up(384, -1664, 960, 1344, -800, 192, 1392, 880, 144, 40, 64, 0, -16, -4)
    q0 = up(0, 0, 0, 0, -1) * A5 * A5
    return ODE.from_kernel([q0, q1, q2])


def report(n, name):
    print(f"\nACCEPTANCE {n} ({name}): PASS")


ALL_MODELS = [
    f"{e},{l},{{{','.join(map(str, K))}}}"
    for e in ("se", "me")
    for l in ("ll", "la", "lh")
    for r in (1, 2, 3)
    for K in combinations((1, 2, 3), r)
]


def test_criterion_1_k4_end_to_end():
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(["se,ll,{4}", "--emit", "ode"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 10.0, f"k=4 took {elapsed:.1f}s"
    ode = pipeline("se,ll,{4}").ode
    paper = paper_k4_ode()
    assert ode.order == 2
    assert ode.scalar_multiple_of(paper)
    assert ode == paper  # content-free normalization reproduces the display
    # the display's q0 = -t^4 (t^5+2t^4+2t^2+8t-4)^2 has degree 14
    assert ode.degree == 14
    report(1, "k=4 end-to-end ODE vs worked example, < 10 s")


def test_criterion_2_order_table():
    want = {2: 1, 3: 2, 4: 2, 5: 6, 6: 6}
    for k, order in want.items():
        t0 = time.perf_counter()
        res = pipeline(f"se,ll,{{{k}}}")
        elapsed = time.perf_counter() - t0
        assert res.ode.order == order, f"k={k}: got order {res.ode.order}"
        assert elapsed < 600.0, f"k={k} took {elapsed:.0f}s"
    report(2, "ODE orders 1,2,2,6,6 for k=2..6, each under 10 minutes")


@pytest.mark.extended
def test_criterion_2_extended_k7_order():
    res = run_pipeline(parse_model("se,ll,{7}"))
    assert res.ode.order == 20
    report("2x", "k=7 ODE order 20 (extended)")


def test_criterion_2_extended_k7_confinement():
    # cheaper structural check, the Groebner stage only (a few seconds, so
    # not extended): the k=7 reducers are dominant and confine reduced
    # forms to dimension 20, and no reduction reaches zero
    from regenum.modgb import eta_embed, extract_reducers, module_buchberger, zero_reductions
    from regenum.models import build_generators
    from regenum.polyring import stairs_and_dim

    m = parse_model("se,ll,{7}")
    before = zero_reductions()
    gb = module_buchberger([eta_embed(g) for g in build_generators(m)])
    assert zero_reductions() == before
    assert len(gb) == 107
    reducers = extract_reducers(gb)
    assert all(is_dominant(r) for r in reducers)
    stairs = stairs_and_dim([r.m for r in reducers])
    assert stairs is not None and len(stairs) == 20
    report("2y", "k=7 reduced forms confined in dimension 20")


def test_criterion_3_worked_example_intermediates():
    res = pipeline("se,ll,{4}")
    assert res.basis.stairs == [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)]
    assert len(res.basis.stairs) == 3
    # first kernel dependency at i=2
    assert len(res.ghat) == 3
    # ghat_1 matches the display exactly under the chosen order
    c = RatFunc.of(A5.scale(-1), up(0, 0, -8, 4, 4))
    p2_plus_1 = parse_op("p2 + 1", 4).poly_part()
    assert res.ghat[1] == p2_plus_1.scale(c)
    # belt and braces: the substitute oracle check also holds:
    # <F, (g - ghat_1) G> = 0 through t^8 after clearing denominators
    g = build_g(res.model)
    diff = g - res.ghat[1]
    den = up(1)
    for cf in diff.terms.values():
        den = den * cf.den
    cleared = diff.scale(RatFunc.of(den))
    assert pairing_tseries(res.model, cleared, 8).is_zero()
    report(3, "k=4 ghat_1 display, stairs {1,p1,p2}, dependency at i=2")


def test_criterion_4_oracle_cross_validation():
    t0 = time.perf_counter()
    for ms in ALL_MODELS:
        m = parse_model(ms)
        res = pipeline(ms)
        rec = rec_counts(ode_to_rec(res.ode))
        vals = unroll(rec, [1], 10)
        for n in range(8):
            assert vals[n] == graph_count_dp(m, n), (ms, n)
        series = scalar_series(m, 10)
        for n in range(11):
            want = series.coeffs[n] * factorial(n)
            assert want.denominator == 1 and vals[n] == want.numerator, (ms, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"cross-validation took {elapsed:.0f}s"
    report(4, "42 models: unrolled == DP (n<=7) == n! * series (n<=10), < 5 min")


def test_criterion_5_known_values():
    assert graph_count_dp(parse_model("se,ll,{2}"), 3) == 1
    assert graph_count_dp(parse_model("se,ll,{3}"), 4) == 1
    rec = rec_counts(ode_to_rec(pipeline("se,ll,{3}").ode))
    vals = unroll(rec, [1], 8)
    assert vals[6] == graph_count_dp(parse_model("se,ll,{3}"), 6) == 70
    assert vals[8] == graph_count_dp(parse_model("se,ll,{3}"), 8) == 19355
    report(5, "spot values r2_3, r3_4, r3_6, r3_8")


@pytest.mark.extended
def test_criterion_5_extended_r7_2000():
    res = run_pipeline(parse_model("se,ll,{7}"))
    rec = rec_counts(ode_to_rec(res.ode))
    t0 = time.perf_counter()
    vals = unroll(rec, [1], 2000)
    elapsed = time.perf_counter() - t0
    r = vals[2000]
    digits = str(r)
    assert digits.startswith("80680697")
    assert digits.endswith("04296875")
    # magnitude 8.068069734e18572
    assert len(digits) == 18573
    assert digits.startswith("8068069734")
    assert elapsed < 900.0, f"unroll took {elapsed:.0f}s"
    report("5x", "r7(2000) digits and magnitude, unroll <= 15 min (extended)")


class TestCriterion6Properties:
    def test_adjoint_antihomomorphism_and_involution(self, rng):
        for _ in range(200):
            a, b = rand_weylop(rng, 3), rand_weylop(rng, 3)
            assert adjoint(weyl_mul(a, b)) == weyl_mul(adjoint(b), adjoint(a))
            assert adjoint(adjoint(a)) == a
        report("6a", "adjoint anti-homomorphism + involution (200 cases)")

    def test_weyl_action_compatibility(self, rng):
        for _ in range(200):
            a, b = rand_weylop(rng, 2), rand_weylop(rng, 2)
            s = rand_mpoly(rng, 2)
            assert apply_op(weyl_mul(a, b), s) == apply_op(a, apply_op(b, s))
        report("6b", "Weyl action compatibility (200 cases)")

    def test_pairing_adjointness(self, rng):
        for _ in range(200):
            k = rng.randint(1, 3)
            a = rand_weylop(rng, k, t_free=True)
            u = rand_mpoly(rng, k, t_free=True)
            v = rand_mpoly(rng, k, t_free=True)
            assert trunc_pairing(apply_op(a, u), v) == trunc_pairing(u, apply_op(adjoint(a), v))
        report("6c", "pairing adjointness (200 cases)")

    def test_lemma2_nullity_all_reducers_k_le_4(self, rng):
        models = ["se,ll,{2}", "se,ll,{3}", "se,ll,{4}", "me,ll,{3}", "se,la,{4}", "me,lh,{1,2,3}"]

        def check(ms, red_op):
            m = pipeline(ms).model
            s = rand_mpoly(rng, m.k, nterms=2, maxdeg=2, t_free=True)
            h = apply_op(red_op.g, s)
            den = up(1)
            for c in h.terms.values():
                den = den * c.den
            h = h.scale(RatFunc.of(den))
            assert pairing_tseries(m, h, 6).is_zero()

        cases = 0
        for ms in models:  # every reducer of every model at least once
            for red_op in pipeline(ms).reducers:
                check(ms, red_op)
                cases += 1
        while cases < 200:
            ms = models[cases % len(models)]
            res = pipeline(ms)
            check(ms, res.reducers[rng.randrange(len(res.reducers))])
            cases += 1
        report("6d", "Lemma-2 nullity for all reducers of k<=4 models (200 cases)")

    def test_reduction_replay_certificates(self, rng):
        models = ["se,ll,{2}", "se,ll,{3}", "se,ll,{4}", "me,la,{2}", "se,lh,{1,2}"]
        cases = 0
        while cases < 200:
            res = pipeline(models[cases % len(models)])
            s = rand_mpoly(rng, res.model.k, nterms=3, maxdeg=3)
            out, trace = red(s, res.basis, want_trace=True)
            stairs = set(res.basis.stairs)
            assert set(out.terms) <= stairs
            assert replay(s, out, trace, res.basis)
            cases += 1
        k4 = pipeline("se,ll,{4}")
        for src, shat, trace in k4.traces:
            assert replay(src, shat, trace, k4.basis)
        report("6e", "reduction replay certificates verify exactly (200 cases)")

    def test_dominance_contract(self):
        for ms in ALL_MODELS + ["se,ll,{4}", "se,ll,{5}", "se,ll,{6}"]:
            for r in pipeline(ms).reducers:
                assert is_dominant(r)
        bad = Reducer(
            g=parse_op("p1 + p2^2", 2),
            m=(1, 0),
        )
        with pytest.raises(FailDominance) as exc:
            reduction_basis([bad])
        assert exc.value.code == "FAIL-DOMINANCE"
        report("6f", "dominance for all runs; FAIL-DOMINANCE on violation")


def test_criterion_7_ode_series_consistency():
    models = ALL_MODELS + ["se,ll,{4}", "se,ll,{5}", "se,ll,{6}"]
    for ms in models:
        res = pipeline(ms)
        indicial_check(res.ode)
        n = res.ode.order + res.ode.degree + 5
        rec = ode_to_rec(res.ode)
        series = unroll(rec, [1], n)
        img = res.ode.apply_series(series)
        good = n - res.ode.degree - res.ode.order
        assert all(x == 0 for x in img[: good + 1]), ms
    report(7, "indicial exponent-0 check and series annihilation for every ODE")
