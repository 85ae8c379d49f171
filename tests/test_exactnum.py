import math
import random
from fractions import Fraction

import pytest

from regenum import exactnum
from regenum.exactnum import (
    RF_ONE,
    RatFunc,
    UniPoly,
    _prs_gcd,
    gcd_fallbacks,
    kron_div_fallbacks,
    rf,
    unipoly_gcd_content,
    zadd,
    zdivexact,
    zdot,
    zgcd,
    zkron,
    zkrondiv,
    zmul,
    zneg,
    zprim,
    zscale,
)

from conftest import rand_rat, rand_ratfunc, rand_unipoly, up


class TestRatFuncNormalization:
    def test_gcd_cancellation_on_construction(self):
        assert RatFunc.of(up(2, 2), up(4, 4)) == rf(Fraction(1, 2))

    def test_factor_cancellation(self):
        assert RatFunc.of(up(-1, 0, 1), up(-1, 1)) == RatFunc.of(up(1, 1))

    def test_common_denominator_addition(self):
        t = up(0, 1)
        assert RatFunc.of(1, t) + RatFunc.of(up(-1, 1), t) == RF_ONE

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            RF_ONE / RatFunc.from_rat(0)
        with pytest.raises(ZeroDivisionError):
            RatFunc.of(up(1), up())

    def test_canonical_form_invariants(self):
        a = RatFunc.of(up(0, 2, 2), up(0, 0, -4))
        # den primitive with positive leading coefficient, num carries content
        assert a.den.lc() > 0
        assert a.den == up(0, 1)  # (2t+2t^2)/(-4t^2) = -(1+t)/(2t)
        assert a.num == up(Fraction(-1, 2), Fraction(-1, 2))

    def test_normalization_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rand_ratfunc(rng)
            b = RatFunc.of(a.num, a.den)
            assert a == b


class TestRatFuncArith:
    def test_field_axioms_random(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b, c = (rand_ratfunc(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a / a == RF_ONE

    def test_sub_and_neg(self):
        rng = random.Random(13)
        for _ in range(100):
            a, b = rand_ratfunc(rng), rand_ratfunc(rng)
            assert a - b == a + (-b)
            assert (a - b) + b == a

    def test_evaluate_consistency(self):
        rng = random.Random(17)
        for _ in range(100):
            a, b = rand_ratfunc(rng), rand_ratfunc(rng)
            x = Fraction(rng.randint(2, 30), rng.randint(1, 7))
            try:
                lhs = (a * b).evaluate(x)
                rhs = a.evaluate(x) * b.evaluate(x)
            except ZeroDivisionError:
                continue
            assert lhs == rhs


def assert_canonical(x):
    """(cn/cd) * t^e * np/dp with a reduced scalar pair, cd > 0, an int
    exponent, and np, dp coprime, primitive, with positive leading
    coefficients and non-zero constant terms; zero is 0/1 * t^0 * 1/1."""
    assert type(x.cn) is int and type(x.cd) is int and type(x.e) is int
    if not x.cn:
        assert x.cd == 1 and x.e == 0 and x.np == (1,) and x.dp == (1,)
        return
    assert x.cd > 0 and math.gcd(x.cn, x.cd) == 1
    assert isinstance(x.np, tuple) and isinstance(x.dp, tuple)
    assert x.np[0] and x.dp[0]
    assert zprim(x.np) == (1, list(x.np)) and zprim(x.dp) == (1, list(x.dp))
    assert zgcd(list(x.np), list(x.dp))[0] == [1]


class TestRatFuncShortcuts:
    """Products with a constant and sums over one denominator return early;
    each result must equal the one built from UniPoly arithmetic."""

    def test_constant_times_x_and_x_times_constant(self):
        rng = random.Random(23)
        for _ in range(200):
            num, den = rand_unipoly(rng), rand_unipoly(rng) or up(1)
            q = rand_rat(rng) or Fraction(1)
            x, cq = RatFunc.of(num, den), RatFunc.from_rat(q)
            want = RatFunc.of(num.scale(q), den)
            for got in (x * cq, cq * x):
                assert got == want
                assert_canonical(got)

    def test_equal_denominators(self):
        rng = random.Random(29)
        hits = 0
        for _ in range(300):
            den = rand_unipoly(rng, deg=3) or up(1)
            n1, n2 = rand_unipoly(rng), rand_unipoly(rng)
            q1, q2 = rand_rat(rng), rand_rat(rng)
            a, b = RatFunc.of(n1.scale(q1), den), RatFunc.of(n2.scale(q2), den)
            if a.is_zero() or b.is_zero() or a.dp != b.dp:
                continue
            hits += 1
            got = a + b
            assert got == RatFunc.of(n1.scale(q1) + n2.scale(q2), den)
            assert_canonical(got)
        assert hits > 100

    def test_denominator_one(self):
        rng = random.Random(31)
        for _ in range(200):
            n1, n2 = rand_unipoly(rng), rand_unipoly(rng)
            q1, q2 = rand_rat(rng), rand_rat(rng)
            a, b = RatFunc.of(n1.scale(q1)), RatFunc.of(n2.scale(q2))
            got = a + b
            assert got == RatFunc.of(n1.scale(q1) + n2.scale(q2))
            assert got.is_zero() or got.dp == (1,)
            assert_canonical(got)

    def test_sums_cancelling_to_zero(self):
        rng = random.Random(37)
        for _ in range(100):
            a = rand_ratfunc(rng)
            got = a + (-a)
            assert got.is_zero() and got == RatFunc.of(0)
            assert_canonical(got)
        t = RatFunc.of(up(0, 1))
        assert (t + RatFunc.from_rat(-1) + RF_ONE - t).is_zero()

    def test_sum_cancels_part_of_shared_denominator(self):
        # t/((t-1)(t+2)) - 1/((t-1)(t+2)) = 1/(t+2)
        den = up(-1, 1) * up(2, 1)
        got = RatFunc.of(up(0, 1), den) + RatFunc.of(up(-1), den)
        assert got == RatFunc.of(1, up(2, 1))
        assert_canonical(got)

    def test_products_with_a_unit_part_call_no_zprod(self, monkeypatch):
        # every product has an np or dp part 1 (the power of t is kept
        # apart, so 1/t^2 has dp 1); none goes through the product helper,
        # and the results keep tuple parts
        rng = random.Random(47)
        pairs = [
            ((up(1, 1), up(1)), (up(1), up(1, 3, 2))),  # split leaves np == [1]
            ((up(1, 1), up(0, 0, 1)), (up(3), up(2, 1))),
            ((up(-1, 2), up(1)), (up(3, 1), up(0, 1))),
            ((up(5), up(1, 1, 1)), (up(0, 2, 7), up(1))),
        ]
        for _ in range(100):
            pairs.append(((rand_unipoly(rng) or up(1), rng.choice([up(1), up(0, 1), up(0, 0, 1)])),
                          (up(rand_rat(rng) or 1), rand_unipoly(rng) or up(1))))
        cases = []
        for (n1, d1), (n2, d2) in pairs:
            a, b = RatFunc.of(n1, d1), RatFunc.of(n2, d2)
            assert (1,) in (a.np, a.dp, b.np, b.dp)
            cases.append((a, b, RatFunc.of(n1 * n2, d1 * d2)))

        def boom(a, b):
            raise AssertionError("_zprod called")

        monkeypatch.setattr(exactnum, "_zprod", boom)
        for a, b, want in cases:
            for got in (a * b, b * a):
                assert got == want
                assert_canonical(got)

    def test_zmul_unit_operand(self):
        rng = random.Random(43)
        for _ in range(50):
            b = list(rand_unipoly(rng).coeffs)
            for one in ([1], (1,)):
                assert zmul(one, b) == b and zmul(b, one) == b
                assert zmul(one, b) is not b


# denominators for the int-pair tests: 1, powers of t, and general ones
DENS = [up(1), up(0, 1), up(0, 0, 1), up(-1, 1), up(3, 2), up(1, 1, 1), up(-1, 1) * up(3, 2)]


def rand_pair_ratfunc(rng, dens=DENS):
    """A RatFunc with a scalar of up to 40 bits over one of ``dens``."""
    num = rand_unipoly(rng, deg=3, size=9).scale(Fraction(rng.randint(-2**40, 2**40), rng.randint(1, 2**40)))
    return RatFunc.of(num, rng.choice(dens).scale(rng.choice([1, -3, 12])))


class TestIntPairScalar:
    """The scalar as a reduced int pair: every operation against the one
    built by ``RatFunc.of`` from UniPoly arithmetic on num/den."""

    def test_mul_and_add(self):
        rng = random.Random(47)
        kinds = set()
        for i in range(600):
            a = rand_pair_ratfunc(rng)
            # equal, different and (1,) denominators all occur
            b = rand_pair_ratfunc(rng, [UniPoly(a.dp)] if i % 3 == 0 else DENS)
            kinds.add("equal" if a.dp == b.dp != (1,) else "one" if (1,) in (a.dp, b.dp) else "different")
            prod, total = a * b, a + b
            assert prod == RatFunc.of(a.num * b.num, a.den * b.den)
            assert total == RatFunc.of(a.num * b.den + b.num * a.den, a.den * b.den)
            assert a - b == RatFunc.of(a.num * b.den - b.num * a.den, a.den * b.den)
            for x in (prod, total):
                assert_canonical(x)
        assert kinds == {"equal", "one", "different"}

    def test_neg_and_inverse(self):
        rng = random.Random(53)
        signs = set()
        for _ in range(300):
            a = rand_pair_ratfunc(rng)
            assert -a == RatFunc.of(-a.num, a.den)
            assert_canonical(-a)
            if a.is_zero():
                continue
            signs.add(a.cn > 0)
            inv = a.inverse()
            assert inv == RatFunc.of(a.den, a.num)
            assert_canonical(inv)
            assert inv * a == RF_ONE
        assert signs == {True, False}

    def test_scale_rat(self):
        rng = random.Random(59)
        for _ in range(300):
            a = rand_pair_ratfunc(rng)
            for q in (rng.randint(-50, 50), Fraction(rng.randint(-2**30, 2**30), rng.randint(1, 2**30))):
                got = a.scale_rat(q)
                assert got == RatFunc.of(a.num.scale(q), a.den)
                assert_canonical(got)

    def test_derivative_and_evaluate(self):
        rng = random.Random(61)
        for _ in range(200):
            a = rand_pair_ratfunc(rng)
            n, d = a.num, a.den
            got = a.derivative()
            assert got == RatFunc.of(n.derivative() * d - n * d.derivative(), d * d)
            assert_canonical(got)
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            if d.evaluate(x):
                assert a.evaluate(x) == Fraction(n.evaluate(x)) / d.evaluate(x)

    def test_hash_and_c_property(self):
        rng = random.Random(67)
        for _ in range(200):
            a = rand_pair_ratfunc(rng)
            b = RatFunc.of(a.num.scale(3), a.den.scale(3))
            assert a == b and hash(a) == hash(b)
            c = a.c
            assert type(c) is Fraction and (c.numerator, c.denominator) == (a.cn, a.cd)
        assert RatFunc.of(0).c == 0 and RatFunc.of(up(-6), up(4)).c == Fraction(-3, 2)


def rand_tpow_pair(rng):
    """A numerator and a denominator UniPoly with factors t^a and t^b, so
    that their quotient carries t^(a - b) of either sign, and the RatFunc
    they make."""
    t = up(0, 1)
    num = rand_unipoly(rng, deg=3, size=9) * t ** rng.randint(0, 4)
    den = (rng.choice(DENS) * t ** rng.randint(0, 4)).scale(rng.choice([1, -3, 12]))
    num = num.scale(Fraction(rng.randint(-2**30, 2**30), rng.randint(1, 2**30)))
    return num, den, RatFunc.of(num, den)


class TestPowerOfTExponent:
    """Operands carrying t^j with j < 0, j == 0 and j > 0: every operation
    against the one built by ``RatFunc.of`` from UniPoly arithmetic on the
    numerators and denominators the operands were made from."""

    def test_arithmetic(self):
        rng = random.Random(89)
        signs = set()
        for _ in range(400):
            n1, d1, a = rand_tpow_pair(rng)
            n2, d2, b = rand_tpow_pair(rng)
            signs.update((x.e > 0) - (x.e < 0) for x in (a, b) if not x.is_zero())
            assert_canonical(a)
            assert RatFunc.of(a.num, a.den) == a
            got = {
                "mul": (a * b, RatFunc.of(n1 * n2, d1 * d2)),
                "add": (a + b, RatFunc.of(n1 * d2 + n2 * d1, d1 * d2)),
                "sub": (a - b, RatFunc.of(n1 * d2 - n2 * d1, d1 * d2)),
                "scale": (a.scale_rat(Fraction(-7, 9)), RatFunc.of(n1.scale(Fraction(-7, 9)), d1)),
                "deriv": (a.derivative(), RatFunc.of(n1.derivative() * d1 - n1 * d1.derivative(), d1 * d1)),
            }
            if not a.is_zero():
                got["inverse"] = (a.inverse(), RatFunc.of(d1, n1))
            for name, (x, want) in got.items():
                assert x == want, name
                assert_canonical(x)
        assert signs == {-1, 0, 1}

    def test_sums_cancelling_low_terms(self):
        # (1 + t)/t^2 - 1/t^2 = 1/t and t^3 + t^2 - t^2 = t^3
        t = up(0, 1)
        got = RatFunc.of(up(1, 1), t * t) - RatFunc.of(1, t * t)
        assert got == RatFunc.of(1, t) and got.e == -1
        got = RatFunc.of(up(0, 0, 1, 1)) - RatFunc.of(up(0, 0, 1))
        assert got == RatFunc.of(up(0, 0, 0, 1)) and (got.e, got.np) == (3, (1,))
        assert_canonical(got)

    def test_evaluate_at_zero(self):
        t = up(0, 1)
        with pytest.raises(ZeroDivisionError):
            RatFunc.of(up(3, 1), t * t).evaluate(0)
        assert RatFunc.of(up(0, 0, 3, 1), up(2, 1)).evaluate(0) == 0
        assert RatFunc.of(up(3, 1), up(2, 1)).evaluate(0) == Fraction(3, 2)
        assert RatFunc.of(up(3, 1), t).evaluate(Fraction(1, 2)) == 7

    def test_printing(self):
        # strings printed before the exponent was kept apart
        t = up(0, 1)
        assert str(RatFunc.of(t ** 3)) == "t^3"
        assert str(RatFunc.of(1, t ** 2)) == "1/(t^2)"
        assert str(RatFunc.of(up(1, 1), t ** 4)) == "(t + 1)/(t^4)"
        assert str(RatFunc.of((t ** 5).scale(-2), up(3, 0, 1))) == "-2*t^5/(t^2 + 3)"


class TestDerivative:
    def test_inverse_t(self):
        d = RatFunc.of(1, up(0, 1)).derivative()
        assert d == RatFunc.of(up(-1), up(0, 0, 1))

    def test_square(self):
        assert RatFunc.of(up(0, 0, 1)).derivative() == RatFunc.of(up(0, 2))

    def test_quotient_rule_display_case(self):
        d = RatFunc.of(up(-1, 1), up(1, 1)).derivative()
        assert d == RatFunc.of(up(2), up(1, 2, 1))

    def test_product_rule_random(self):
        rng = random.Random(19)
        for _ in range(200):
            a, b = rand_ratfunc(rng), rand_ratfunc(rng)
            assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


class TestUniPoly:
    def test_gcd_content_examples(self):
        assert unipoly_gcd_content(up(-1, 0, 1), up(-1, 1)) == up(-1, 1)
        assert unipoly_gcd_content(up(2, 2), up(4, 4)) == up(1, 1)
        assert unipoly_gcd_content(up(0, 1), up(1)) == up(1)

    def test_gcd_both_zero(self):
        with pytest.raises(ValueError):
            unipoly_gcd_content(up(), up())

    def test_zero_degree_sentinel(self):
        assert up().degree == float("-inf")
        assert up().degree < 0
        assert up(5).degree == 0

    def test_no_trailing_zeros(self):
        assert up(1, 2, 0, 0).coeffs == (1, 2)

    def test_gcd_random_divides(self):
        rng = random.Random(23)
        for _ in range(200):
            a, b = rand_unipoly(rng, 4), rand_unipoly(rng, 4)
            if a.is_zero() and b.is_zero():
                continue
            g = unipoly_gcd_content(a, b)
            for x in (a, b):
                if not x.is_zero():
                    # g is primitive: by Gauss's lemma it divides x over Q
                    # exactly when it divides x's primitive part over Z
                    zdivexact(x.as_integer_primitive()[1].int_coeffs(), g.int_coeffs())

    def test_shift_arg(self):
        p = up(1, 2, 3)
        assert p.shift_arg(2) == up(1 + 4 + 12, 2 + 12, 3)

    def test_rational_arithmetic_by_evaluation(self):
        rng = random.Random(29)
        for _ in range(200):
            a, b = (UniPoly([rand_rat(rng) for _ in range(rng.randint(0, 4))]) for _ in range(2))
            s, x = rand_rat(rng), rand_rat(rng, 9)
            ax, bx = a.evaluate(x), b.evaluate(x)
            assert (a + b).evaluate(x) == ax + bx
            assert (a - b).evaluate(x) == ax - bx
            assert (-a).evaluate(x) == -ax
            assert (a * b).evaluate(x) == ax * bx
            assert a.scale(s).evaluate(x) == s * ax
            assert a.shift_arg(s).evaluate(x) == a.evaluate(x + s)
            # a(t + x) = a(x) + a'(x) t + ...
            taylor = a.shift_arg(x).coeffs + (0, 0)
            assert taylor[0] == ax and taylor[1] == a.derivative().evaluate(x)
            assert (a * b).derivative().evaluate(x) == (
                a.derivative().evaluate(x) * bx + ax * b.derivative().evaluate(x)
            )

    def test_integral_fractions_become_ints(self):
        half = up(Fraction(1, 2), Fraction(3, 2))
        total = half + half
        assert total == up(1, 3)
        assert all(type(c) is int for c in total.coeffs)
        assert (half - half).is_zero()


class TestZgcdSplit:
    """zgcd returns the gcd with both cofactors: each is the exact quotient
    of its operand, and g times it gives the operand back."""

    def check(self, a, b):
        g, ca, cb = zgcd(list(a), list(b))
        if a and b:
            assert g == prs_gcd(a, b)
        for x, q in ((a, ca), (b, cb)):
            assert list(q) == zdivexact(x, g) and zmul(g, q) == list(x)
        return g, list(ca), list(cb)

    def test_random_pairs(self):
        rng = random.Random(17)
        for _ in range(200):
            common, fa, fb = (list(rand_unipoly(rng).coeffs) or [1] for _ in range(3))
            a, b = zmul(common, fa), zmul(common, fb)
            g, ca, cb = self.check(a, b)
            assert zmul(g, ca) == a and zmul(g, cb) == b

    def test_signed_contents(self):
        rng = random.Random(19)
        for _ in range(200):
            common, fa, fb = (rand_zpoly(rng, rng.randint(0, 4), 20) for _ in range(3))
            sa, sb = rng.choice((1, -1, 4, -6)), rng.choice((1, -2, 3, -18))
            self.check(zscale(zmul(common, fa), sa), zscale(zmul(common, fb), sb))
        assert self.check([6, 0, -6], [4, 4]) == ([2, 2], [3, -3], [2])

    def test_constants(self):
        assert self.check([6], [-4, 2]) == ([2], [3], [-2, 1])
        assert self.check([-6], [9]) == ([3], [-2], [3])
        assert self.check([3, 0, -3], [-5]) == ([1], [3, 0, -3], [-5])

    def test_coprime_returns_operands(self):
        assert self.check([1, 1], [2, 1]) == ([1], [1, 1], [2, 1])
        a, b = (1, 1), [-2, 0, -1]
        _, ca, cb = zgcd(a, b)
        assert ca is a and cb is b

    def test_constant_gcd_above_one(self):
        # 2 + 4t and 2(1 + t)(2 + t) share only the content 2
        assert self.check([2, 4], [4, 6, 2]) == ([2], [1, 2], [2, 3, 1])

    def test_zero_operand(self):
        assert self.check([], [-4, -8]) == ([4, 8], [], [-1])
        assert self.check([3, 3], []) == ([3, 3], [1], [])
        assert zgcd([], []) == ([], [], [])

    def test_heuristic_split_divides_twice(self, monkeypatch):
        # the heuristic's certificate forms both cofactors: a non-trivial
        # split makes its two exact divisions and no more
        g, f1, f2 = [3, -1, 2], [5, 0, 7, 1], [-4, 9, 2]
        a, b = zscale(zmul(g, f1), -6), zscale(zmul(g, f2), 4)
        calls = []

        def counted(x, y):
            calls.append(y)
            return zdivexact(x, y)

        monkeypatch.setattr(exactnum, "zdivexact", counted)
        before = gcd_fallbacks()
        assert zgcd(a, b) == ([6, -2, 4], zscale(f1, -3), zscale(f2, 2))
        assert calls == [[3, -1, 2], [3, -1, 2]]
        assert gcd_fallbacks() == before


def rand_zpoly(rng, deg, bits):
    cs = [rng.randint(-2**bits, 2**bits) for _ in range(deg + 1)]
    cs[-1] = cs[-1] or 1
    return cs


def prs_gcd(a, b):
    """Reference: content gcd times the PRS gcd of the primitive parts."""
    ca, pa = zprim(a)
    cb, pb = zprim(b)
    return [c * math.gcd(ca, cb) for c in _prs_gcd(pa, pb)]


def coprime_mod(f, g, p):
    """Euclid over GF(p); with p dividing neither leading coefficient, a
    unit gcd mod p proves f and g share no non-constant factor over Z."""
    f, g = [c % p for c in f], [c % p for c in g]
    while g:
        while len(f) >= len(g):
            q = f[-1] * pow(g[-1], -1, p) % p
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - q * c) % p
            while f and not f[-1]:
                f.pop()
            if not f:
                break
        f, g = g, f
    return len(f) == 1


class TestZgcdHeuristic:
    def test_random_pairs_against_prs(self):
        rng = random.Random(41)
        for _ in range(300):
            bits = rng.choice((3, 20, 120))
            common = rand_zpoly(rng, rng.randint(0, 4), bits)
            a = zmul(common, rand_zpoly(rng, rng.randint(0, 5), bits))
            b = zmul(common, rand_zpoly(rng, rng.randint(0, 5), bits))
            sa, sb = rng.choice((1, -1, 2, -12)), rng.choice((1, -3, 6, 60))
            a, b = [c * sa for c in a], [c * sb for c in b]
            g = zgcd(a, b)[0]
            assert g == prs_gcd(a, b)
            zdivexact(g, zprim(common)[1])

    def test_degree_149_pair(self):
        # a = g*f1, b = g*f2 with ~120-bit coefficients and coprime f1, f2:
        # the gcd is exactly the planted degree-24 factor
        rng = random.Random(149)
        g = rand_zpoly(rng, 24, 60)
        g[-1] = abs(g[-1])
        f1, f2 = rand_zpoly(rng, 125, 60), rand_zpoly(rng, 125, 60)
        p = 2**61 - 1
        assert f1[-1] % p and f2[-1] % p and coprime_mod(f1, f2, p)
        a, b = zmul(g, f1), zmul(g, f2)
        assert len(a) == len(b) == 150
        assert max(abs(c) for c in a + b).bit_length() >= 118
        before = gcd_fallbacks()
        assert zgcd(a, b) == (g, f1, f2)
        assert gcd_fallbacks() == before

    def test_forced_fallback(self, monkeypatch):
        rng = random.Random(43)
        common = rand_zpoly(rng, 3, 30)
        a = zmul(common, rand_zpoly(rng, 4, 30))
        b = [-6 * c for c in zmul(common, rand_zpoly(rng, 5, 30))]
        monkeypatch.setattr(exactnum, "_heu_gcd", lambda pa, pb: None)
        before = gcd_fallbacks()
        g = prs_gcd(a, b)
        assert zgcd(a, b) == (g, zdivexact(a, g), zdivexact(b, g))
        assert gcd_fallbacks() == before + 1
        # a coprime pair that gives up comes back as given
        assert zgcd([1, 1], [-2, 0, -1]) == ([1], [1, 1], [-2, 0, -1])
        assert gcd_fallbacks() == before + 2


def convolve(a, b):
    """Reference: schoolbook product."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def long_div(a, b):
    """Reference: long division in Z[t] from the top; ArithmeticError when
    a quotient coefficient or the remainder is not exact."""
    r, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        qc, rem = divmod(r[i + len(b) - 1], b[-1])
        if rem:
            raise ArithmeticError("inexact")
        q[i] = qc
        for j, y in enumerate(b):
            r[i + j] -= qc * y
    if any(r):
        raise ArithmeticError("inexact")
    return q


def old_zdivexact(a, b):
    """Reference: the schoolbook loop zdivexact ran before it divided the
    Kronecker images."""
    if not a:
        return []
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    for i in range(len(q) - 1, -1, -1):
        if len(r) - 1 == i + len(b) - 1 and r:
            c = r[-1]
            qc = c // lb
            if qc * lb != c:
                raise ArithmeticError("inexact polynomial division")
            q[i] = qc
            if qc:
                for j, cb in enumerate(b):
                    r[i + j] -= qc * cb
            while r and not r[-1]:
                r.pop()
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def outcome(div, a, b):
    try:
        return div(a, b)
    except ArithmeticError:
        return ArithmeticError


class TestZdivexact:
    def test_random_pairs_against_old_loop(self):
        rng = random.Random(61)
        inexact = 0
        for _ in range(1500):
            bits = rng.choice((1, 3, 30, 200))
            b = rand_zpoly(rng, rng.randint(0, 6), bits)
            if rng.random() < 0.2:
                b[-1] = rng.choice((1, -1))
            q = rand_zpoly(rng, rng.randint(0, 8), rng.choice((1, 3, 30, 200)))
            a = zmul(b, q)
            kind = rng.randrange(5)
            if kind == 1:    # a low term off
                a[rng.randrange(len(a))] += rng.choice((1, -1, 2**bits))
            elif kind == 2:  # a random dividend of any length
                a = rand_zpoly(rng, rng.randint(0, 12), bits)
            elif kind == 3:  # a leading coefficient no multiple of b's
                a[-1] += 1
            while a and not a[-1]:
                a.pop()
            want = outcome(old_zdivexact, a, b)
            inexact += want is ArithmeticError
            assert outcome(zdivexact, a, b) == want
            if kind == 0:
                assert want == q
        assert 300 < inexact < 1200

    def test_forced_fallback(self):
        # (t - 1)^40 has ~37-bit coefficients, as do (t + 1)^40 and their
        # product (t^2 - 1)^40: the lanes sized for the operands cannot
        # certify the quotient, so the schoolbook loop finds it
        a, b, q = [1], [1], [1]
        for _ in range(40):
            a, b, q = zmul(a, [-1, 0, 1]), zmul(b, [1, 1]), zmul(q, [-1, 1])
        before = kron_div_fallbacks()
        assert zdivexact(a, b) == q
        assert kron_div_fallbacks() == before + 1
        # a non-zero remainder of the images needs no fallback
        with pytest.raises(ArithmeticError):
            zdivexact(zmul(a, [1, 1]), zmul(b, [1, 1, 1]))
        # one-byte lanes hold 100*t^2 and 10*t but not the check of 10*t
        assert zkrondiv(zkron([0, 0, 100], 1), [0, 10], 1, 3) == [0, 10]
        assert kron_div_fallbacks() == before + 2
        assert zkrondiv(zkron([0, 0, 7], 1), [0, 1], 1, 3) == [0, 7]
        assert kron_div_fallbacks() == before + 2


def spread(a, v):
    """t^v * a(t^2)."""
    out = [0] * (v + 2 * len(a) - 1)
    out[v::2] = a
    return out


def dot_ref(pairs, div=(1,)):
    """Reference: the sum of schoolbook products, then long division."""
    acc = []
    for x, y in pairs:
        acc = zadd(acc, zmul(x, y))
    return long_div(acc, list(div)) if acc else []


class TestZdot:
    @staticmethod
    def spy(monkeypatch):
        """The divisors zdot hands to zkrondiv and to zdivexact."""
        seen = []
        for name in ("zkrondiv", "zdivexact"):
            def wrap(*args, _name=name, _fn=getattr(exactnum, name)):
                seen.append((_name, list(args[1])))
                return _fn(*args)
            monkeypatch.setattr(exactnum, name, wrap)
        return seen

    def test_random_sums_against_reference(self):
        rng = random.Random(67)
        tally = {"inexact": 0, "zero": 0}
        for _ in range(1500):
            bits = rng.choice((1, 4, 40, 300))
            n = rng.randint(1, 4)
            # 0: generic operands; 1: every operand t^v*A(t^2), the
            # products' powers of one parity; 2: the same, mixed parities
            shape = rng.randrange(3)
            parity = [rng.randrange(2) for _ in range(n)] if shape == 2 else [rng.randrange(2)] * n
            if shape:
                div = spread(rand_zpoly(rng, rng.randint(0, 3), bits), rng.randint(0, 5))
            else:
                div = rand_zpoly(rng, rng.randint(0, 4), bits)
            if rng.random() < 0.2:
                div = [1]
            pairs = []
            for par in parity:
                if shape:
                    vx = rng.randint(0, 4)
                    x = spread(rand_zpoly(rng, rng.randint(0, 4), bits), vx)
                    y = spread(rand_zpoly(rng, rng.randint(0, 4), bits), 2 * rng.randint(0, 2) + (vx + par) % 2)
                else:
                    x, y = rand_zpoly(rng, rng.randint(0, 6), bits), rand_zpoly(rng, rng.randint(0, 6), bits)
                if rng.random() < 0.8:  # a multiple of div
                    x = zmul(x, div)
                pairs.append((x, y))
            if rng.random() < 0.1:  # the last pair cancels the first
                pairs[-1] = (zneg(pairs[0][0]), pairs[0][1])
            want = outcome(dot_ref, pairs, div)
            tally["inexact"] += want is ArithmeticError
            tally["zero"] += want == []
            assert outcome(zdot, pairs, div) == want
        assert 100 < tally["inexact"] < 700 and tally["zero"] > 20

    def test_same_parity_in_t2(self, monkeypatch):
        # (1 + 2t^2)(t + t^3) + t^3(t^2 - 3) = t(1 + 3t^4), each first
        # factor times t(1 + t^2): the products are t^2 and t^4 times
        # polynomials in T = t^2, and the sum is divided there by 1 + T
        x1, y1, x2, y2 = [1, 0, 2], [0, 1, 0, 1], [0, 0, 0, 1], [-3, 0, 1]
        div = [0, 1, 0, 1]
        pairs = [(zmul(x1, div), y1), (zmul(x2, div), y2)]
        seen = self.spy(monkeypatch)
        assert zdot(pairs, div) == dot_ref(pairs, div) == [0, 1, 0, 0, 0, 3]
        assert seen == [("zkrondiv", [1, 1])]

    def test_differing_parities(self, monkeypatch):
        # t^2*1 + t*1 is not t^v*A(t^2): the products are packed in t
        pairs = [([0, 0, 1], [1]), ([0, 1], [1]), ([], [5])]
        seen = self.spy(monkeypatch)
        assert zdot(pairs, [0, 1]) == [1, 1]
        assert seen == [("zkrondiv", [0, 1])]

    def test_divisor_above_offset(self, monkeypatch):
        # A(T)*B(T) + A(T)*(T^2*P*R - B)(T) = t^4*A*P*R, offset 0, over
        # t^3*P(T): the sum is divided by T^2*P, the quotient shifted by t
        rng = random.Random(5)
        a, b, r, p = (rand_zpoly(rng, 3, 20) for _ in range(4))
        a[0], b[0] = a[0] or 1, b[0] or 1
        x = spread(a, 0)
        pairs = [(x, spread(b, 0)), (x, spread(zadd(zneg(b), [0, 0] + zmul(p, r)), 0))]
        div = spread(p, 3)
        seen = self.spy(monkeypatch)
        got = zdot(pairs, div)
        assert got == dot_ref(pairs, div) == [0] + spread(zmul(a, r), 0)
        assert seen == [("zkrondiv", [0, 0] + p)]

    def test_divisor_not_in_t2(self, monkeypatch):
        # the products are in t^2, the divisor 1 + t is not
        div = [1, 1]
        pairs = [([1, 0, -1], [1, 0, 1]), ([1, 0, -1], [0, 0, 3])]
        seen = self.spy(monkeypatch)
        assert zdot(pairs, div) == dot_ref(pairs, div) == [1, -1, 4, -4]
        assert seen[0] == ("zdivexact", div)

    def test_wide_lanes(self):
        # 300-bit coefficients need lanes of about 80 bytes: the division
        # is the schoolbook loop's, and no certificate fails
        rng = random.Random(7)
        div = rand_zpoly(rng, 5, 300)
        pairs = [(zmul(div, rand_zpoly(rng, 8, 300)), rand_zpoly(rng, 8, 300)) for _ in range(3)]
        before = kron_div_fallbacks()
        assert zdot(pairs, div) == dot_ref(pairs, div)
        assert zdot(pairs) == dot_ref(pairs)
        assert kron_div_fallbacks() == before

    def test_lanes_at_the_bound(self):
        # three products of length-3 operands with coefficients 2^b - 1
        # make a middle coefficient 9*(2^b - 1)^2, just under the bound
        # 2^(2b + 2 + 2) the lanes are sized for; its sign needs one more
        # bit, which a lane of 2b + 4 bits would not have
        for b in range(1, 41):
            x = [2**b - 1] * 3
            for pairs in ([(x, x)] * 3, [(x, zneg(x))] * 3):
                assert zdot(pairs) == dot_ref(pairs)

    def test_divisor_wider_than_sum(self):
        # the product of 1 - t^(2^i), i < 10, has coefficients +-1 and is
        # divisible by (1 - t)^10, whose middle coefficient 252 needs the
        # wider lanes
        x, div = [1], [1]
        for i in range(10):
            x = zmul(x, [1] + [0] * (2**i - 1) + [-1])
            div = zmul(div, [1, -1])
        assert zdot([(x, [1])], div) == long_div(x, div)

    def test_cancelling_sum(self):
        x, y = [3, -1, 4], [1, 5, 9, 2]
        assert zdot([(x, y), (zneg(x), y)]) == []
        assert zdot([(x, y), (y, zneg(x))], [7, 1]) == []
        assert zdot([(spread(x, 1), y), (zneg(spread(x, 1)), y)], [0, 1]) == []

    def test_empty_operands(self):
        assert zdot([]) == []
        assert zdot([([], [1, 2]), ([3], [])]) == []
        assert zdot([([], [1, 2]), ([1, 1], [1, -1])], [1, 1]) == [1, -1]

    def test_inexact_divisor(self):
        with pytest.raises(ArithmeticError):
            zdot([([1, 1], [1])], [1, 2])
        with pytest.raises(ArithmeticError):  # a divisor wider than the sum
            zdot([([1, 1], [1])], [1, 2**100])
        with pytest.raises(ArithmeticError):  # in T = t^2: 1 + T over T
            zdot([([1, 0, 1], [1])], [0, 0, 1])
        with pytest.raises(ArithmeticError):  # in t^2, a divisor that is not
            zdot([([1, 0, 1], [1])], [1, 1])


class TestPowerOfT:
    """Operands c*t^j, which callers outside RatFunc may pass, go through
    the generic gcd, exact division and product; the results must agree
    with the references."""

    A = (
        [3, -1, 4, 1, -5],                # content 1, constant term
        [12, -18, 6, 30],                 # content 6
        [2, 0, 7, -9],                    # negative leading coefficient
        [0, 0, -8, 4, 0, 20],             # content 4, valuation 2
        [0, 0, 0, 0, 0, 0, 0, 9, 3, -6],  # content 3, valuation 7
        [0] * 35 + [15, 10],              # valuation 35, above every j
        [0, 0, 0, -10],                   # itself c*t^j
        [-7],                             # a constant
    )

    @staticmethod
    def monomials():
        for j in range(31):
            for c in (1, -1, 6, -6):
                yield [0] * j + [c]

    def test_gcd_and_split(self):
        for m in self.monomials():
            for a in self.A:
                g = prs_gcd(a, m)
                qa, qm = long_div(a, g), long_div(m, g)
                assert zgcd(a, m) == (g, qa, qm)
                assert zgcd(m, a) == (g, qm, qa)

    def test_mul(self):
        for m in self.monomials():
            for a in self.A:
                assert zmul(a, m) == convolve(a, m) == zmul(m, a)

    def test_exact_division(self):
        for m in self.monomials():
            for a in self.A:
                p = convolve(a, m)
                assert zdivexact(p, m) == long_div(p, m) == a

    def test_inexact_division_raises(self):
        for m in self.monomials():
            j, c = len(m) - 1, m[-1]
            bad = []
            if j:
                bad.append([0] * (j - 1) + [c])         # too short
                bad.append([0] * (j - 1) + [c, c])      # a t^(j-1) term
                bad.append([1] + [0] * j + [c])         # a constant term
            if abs(c) > 1:
                bad.append([0] * j + [c, 1])            # 1 is not a multiple of c
            for a in bad:
                with pytest.raises(ArithmeticError):
                    long_div(a, m)
                with pytest.raises(ArithmeticError):
                    zdivexact(a, m)

    def test_zero_operand(self):
        for m in self.monomials():
            pos = m if m[-1] > 0 else [-x for x in m]
            unit = [1 if m[-1] > 0 else -1]
            assert zgcd([], m) == (pos, [], unit)
            assert zgcd(m, []) == (pos, unit, [])
