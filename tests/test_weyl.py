from fractions import Fraction

import pytest

from regenum.exactnum import RF_ONE, RF_T, RatFunc, UniPoly
from regenum.models import build_g, parse_model, untwisted_generators
from regenum.polyring import MPoly
from regenum.weyl import (
    WeylOp,
    adjoint,
    apply_op,
    from_dleft,
    op_to_str,
    parse_op,
    right_mul_poly,
    to_dleft,
    twist,
    weyl_mul,
)

from conftest import rand_mpoly, rand_weylop


def op(text, k):
    return parse_op(text, k)


class TestMul:
    def test_commutation(self):
        assert op("d1*p1", 1) == op("p1*d1 + 1", 1)

    def test_already_normal(self):
        assert op("p1*d1", 1).terms == {((1,), (1,)): RF_ONE}

    def test_iterated(self):
        assert op("d1^2*p1", 1) == op("p1*d1^2 + 2*d1", 1)

    def test_associativity_random(self, rng):
        for _ in range(200):
            a, b, c = (rand_weylop(rng, 2) for _ in range(3))
            assert weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))


class TestAdjoint:
    def test_paper_p1(self):
        assert adjoint(op("d1 - p1", 4)) == op("p1 - d1", 4)

    def test_paper_p2(self):
        assert adjoint(op("2*d2 + p2 + 1", 4)) == op("p2 + 2*d2 + 1", 4)

    def test_involution_random(self, rng):
        for _ in range(200):
            a = rand_weylop(rng, 3)
            assert adjoint(adjoint(a)) == a

    def test_anti_homomorphism_random(self, rng):
        for _ in range(200):
            a, b = rand_weylop(rng, 2), rand_weylop(rng, 2)
            assert adjoint(weyl_mul(a, b)) == weyl_mul(adjoint(b), adjoint(a))


class TestApply:
    def test_basic(self):
        s = apply_op(op("d1 - p1", 1), MPoly.gen(1, 0))
        assert s == parse_poly("1 - p1^2", 1)

    def test_unrelated_derivative(self):
        assert apply_op(op("d2", 2), MPoly.gen(2, 0)).is_zero()

    def test_p5_tilde_action(self):
        # the recombined operator acting on 1 from the k=4 walkthrough
        m = parse_model("se,ll,{4}")
        gens = [twist(p, build_g(m)) for p in untwisted_generators(m)]
        third = Fraction(1, 3)
        p5 = gens[0] + right_mul_poly(gens[2], MPoly.const(4, RF_T.scale_rat(third)))
        p5 = p5 + right_mul_poly(gens[1], MPoly.gen(4, 0).scale_rat(third))
        got = apply_op(p5, MPoly.const(4, 1))
        want = parse_poly("(1-t)/3*p1*p2 + (4 - t^2)/3*p1", 4)
        assert got == want

    def test_action_compatibility_random(self, rng):
        for _ in range(200):
            a, b = rand_weylop(rng, 2), rand_weylop(rng, 2)
            s = rand_mpoly(rng, 2)
            assert apply_op(weyl_mul(a, b), s) == apply_op(a, apply_op(b, s))


def parse_poly(text, k):
    o = parse_op(text, k)
    return o.poly_part()


class TestTwist:
    def test_k4_twists(self):
        m = parse_model("se,ll,{4}")
        g = build_g(m)
        gens = untwisted_generators(m)
        assert twist(gens[2], g) == op("p3 - 3*d3 - t*p1", 4)
        assert twist(gens[3], g) == op("p4 + 4*d4 + t - 1", 4)
        assert twist(gens[0], g) == op("p1 - d1 - t/6*(p1^3 + 3*p1*p2 + 2*p3)", 4)
        assert twist(gens[1], g) == op("p2 + 2*d2 + t/2*(p1^2 + p2) + 1", 4)

    def test_constant_fixed(self):
        m = parse_model("se,ll,{3}")
        g = build_g(m)
        c = WeylOp.const(3, RatFunc.from_rat(Fraction(5, 7)))
        assert twist(c, g) == c

    def test_twist_of_product_respects_antihom(self, rng):
        # sharp is an anti-homomorphism: (ab)# = b# a#
        m = parse_model("se,ll,{2}")
        g = build_g(m)
        for _ in range(50):
            a, b = rand_weylop(rng, 2, t_free=True), rand_weylop(rng, 2, t_free=True)
            assert twist(weyl_mul(a, b), g) == weyl_mul(twist(b, g), twist(a, g))


class TestRightMul:
    def test_matches_operator_product(self, rng):
        # the d-left fast path agrees with plain operator composition
        for _ in range(100):
            a = rand_weylop(rng, 2)
            q = rand_mpoly(rng, 2)
            assert right_mul_poly(a, q) == weyl_mul(a, WeylOp.from_mpoly(q))


class TestDLeft:
    def test_simple(self):
        dl = to_dleft(op("p1*d1", 1))
        assert dl[(1,)] == MPoly.gen(1, 0)
        assert dl[(0,)] == MPoly.const(1, -1)

    def test_twist_p4(self):
        m = parse_model("se,ll,{4}")
        dl = to_dleft(twist(untwisted_generators(m)[3], build_g(m)))
        assert set(dl) == {(0, 0, 0, 0), (0, 0, 0, 1)}
        assert dl[(0, 0, 0, 1)] == MPoly.const(4, 4)
        assert dl[(0, 0, 0, 0)] == parse_poly("p4 + t - 1", 4)

    def test_pure_polynomial(self):
        s = op("p1^2 + 3*p2", 2)
        dl = to_dleft(s)
        assert set(dl) == {(0, 0)}

    def test_round_trip_random(self, rng):
        for _ in range(200):
            a = rand_weylop(rng, 3)
            assert from_dleft(3, to_dleft(a)) == a


class TestTextSyntax:
    def test_parse_print_round_trip(self, rng):
        for _ in range(200):
            a = rand_weylop(rng, 3)
            assert parse_op(op_to_str(a), 3) == a

    def test_rational_coefficients(self):
        a = op("(t^2 - 1)/(2*t)*p1*d2", 3)
        c = a.terms[((1, 0, 0), (0, 1, 0))]
        assert c == RatFunc.of(UniPoly((-1, 0, 1)), UniPoly((0, 2)))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            parse_op("p5", 4)

    def test_rejects_operator_division(self):
        with pytest.raises(ValueError):
            parse_op("1/d1", 2)
