from fractions import Fraction
from itertools import combinations

import pytest

from regenum.models import parse_model
from regenum.oracle import graph_count_dp, pairing_tseries, scalar_series, trunc_pairing
from regenum.polyring import MPoly
from regenum.weyl import adjoint, apply_op

from conftest import poly, rand_mpoly, rand_weylop


ALL_EL = [(e, l) for e in ("se", "me") for l in ("ll", "la", "lh")]
ALL_K = [K for r in (1, 2, 3) for K in combinations((1, 2, 3), r)]


def model_of(e, l, K):
    return parse_model(f"{e},{l},{{{','.join(map(str, K))}}}")


class TestPairing:
    def test_z2(self):
        assert trunc_pairing(poly("p2", 2), poly("p2", 2)) == 2

    def test_orthogonality(self):
        assert trunc_pairing(poly("p1*p2", 3), poly("p3", 3)) == 0

    def test_z111(self):
        assert trunc_pairing(poly("p1^3", 1), poly("p1^3", 1)) == 6

    def test_adjointness_random(self, rng):
        for _ in range(200):
            k = rng.randint(1, 3)
            a = rand_weylop(rng, k, t_free=True)
            u = rand_mpoly(rng, k, t_free=True)
            v = rand_mpoly(rng, k, t_free=True)
            lhs = trunc_pairing(apply_op(a, u), v)
            rhs = trunc_pairing(u, apply_op(adjoint(a), v))
            assert lhs == rhs


class TestScalarSeries:
    def test_se_ll_3(self):
        s = scalar_series(parse_model("se,ll,{3}"), 4)
        assert s.coeffs == (1, 0, 0, 0, Fraction(1, 24))

    def test_se_ll_2(self):
        s = scalar_series(parse_model("se,ll,{2}"), 4)
        assert s.coeffs == (1, 0, 0, Fraction(1, 6), Fraction(1, 8))

    def test_c0_is_one(self):
        for e, l in ALL_EL:
            s = scalar_series(model_of(e, l, (2,)), 2)
            assert s.coeffs[0] == 1

    def test_pairing_tseries_recovers_series(self):
        m = parse_model("se,ll,{3}")
        s = scalar_series(m, 6)
        p = pairing_tseries(m, MPoly.const(3, 1), 6)
        got = list(p.coeffs) + [0] * (7 - len(p.coeffs))
        assert [Fraction(x) for x in got] == list(s.coeffs)


class TestGraphCountDP:
    @pytest.mark.parametrize(
        "ms,n,want",
        [
            ("se,ll,{2}", 3, 1),
            ("se,ll,{3}", 4, 1),
            ("me,ll,{2}", 2, 1),
            ("se,la,{2}", 1, 1),
            ("se,ll,{3}", 6, 70),
            ("se,ll,{3}", 8, 19355),
            ("se,ll,{2}", 5, 12),
            ("se,ll,{2}", 6, 70),
            ("se,lh,{1}", 4, 10),  # involutions of S4
            ("me,la,{2}", 1, 1),  # degree 2 forces exactly one weight-2 loop
            ("me,lh,{1,2}", 1, 2),  # one or two weight-1 loops
        ],
    )
    def test_spot_values(self, ms, n, want):
        assert graph_count_dp(parse_model(ms), n) == want

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            graph_count_dp(parse_model("se,ll,{2}"), 11)
        assert graph_count_dp(parse_model("se,ll,{2}"), 11, bound=11) > 0

    def test_parity_vanishing(self):
        for k in (3, 5):
            m = parse_model(f"se,ll,{{{k}}}")
            for n in range(8):
                if (n * k) % 2 == 1:
                    assert graph_count_dp(m, n) == 0

    def test_cross_oracle_agreement(self):
        for e, l in ALL_EL:
            for K in ALL_K:
                m = model_of(e, l, K)
                counts = scalar_series(m, 7).counts()
                for n in range(8):
                    assert graph_count_dp(m, n) == counts[n], (str(m), n)
