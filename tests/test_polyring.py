import pytest

from regenum.exactnum import RF_ONE, RatFunc
from regenum.polyring import (
    MPoly,
    exp_mul,
    grevlex_key,
    module_key,
    pd_key,
    stairs_and_dim,
)
from regenum.weyl import WeylOp

from conftest import rand_exponent


def e(*xs):
    return tuple(xs)


class TestOrderings:
    def test_graded_by_degree(self):
        assert grevlex_key(e(1, 1, 0, 0)) > grevlex_key(e(1, 0, 0, 0))

    def test_p_above_all_d(self):
        # p1 vs d1^3 under the elimination order
        m1 = (e(1), e(0))
        m2 = (e(0), e(3))
        assert pd_key(m1) > pd_key(m2)

    def test_eta1_eliminated(self):
        # (eta1, p1) vs (d2 eta0, p1^3)
        m1 = (None, e(1, 0, 0, 0))
        m2 = (e(0, 1, 0, 0), e(3, 0, 0, 0))
        assert module_key(m1) > module_key(m2)

    def test_high_index_eliminated_first(self):
        # the graded tie-break puts p3 over p1, so reductions keep p1, p2
        assert grevlex_key(e(0, 0, 1)) > grevlex_key(e(1, 0, 0))
        assert grevlex_key(e(0, 2, 0)) > grevlex_key(e(1, 1, 0))

    def test_strict_total_order_random(self, rng):
        for _ in range(200):
            a, b, c = (rand_exponent(rng, 4, 3) for _ in range(3))
            ka, kb = grevlex_key(a), grevlex_key(b)
            assert (ka == kb) == (a == b)
            # transitivity via key comparison is inherited from tuples;
            # multiplicativity needs a check
            if ka < kb:
                assert grevlex_key(exp_mul(a, c)) < grevlex_key(exp_mul(b, c))

    def test_pd_and_module_keys_consistent(self, rng):
        for _ in range(200):
            a1, b1 = rand_exponent(rng, 3), rand_exponent(rng, 3)
            a2, b2 = rand_exponent(rng, 3), rand_exponent(rng, 3)
            if pd_key((a1, b1)) < pd_key((a2, b2)):
                assert module_key((b1, a1)) != module_key((b2, a2)) or (a1, b1) == (a2, b2)


class TestMPoly:
    def test_square_of_sum(self):
        k = 2
        p1, p2 = MPoly.gen(k, 0), MPoly.gen(k, 1)
        sq = (p1 + p2) * (p1 + p2)
        assert sq.coeff(e(2, 0)) == RF_ONE
        assert sq.coeff(e(1, 1)) == RatFunc.from_rat(2)
        assert sq.coeff(e(0, 2)) == RF_ONE

    def test_mul_by_zero(self):
        k = 2
        assert (MPoly.gen(k, 0) * MPoly(k)).is_zero()

    @pytest.mark.parametrize("x", [MPoly.gen(2, 0), WeylOp.d(2, 0)], ids=["MPoly", "WeylOp"])
    def test_zero_pruning(self, x):
        a = x - x
        assert type(a) is type(x)
        assert a.is_zero() and not a.terms
        assert (x + (-x)).is_zero() and not x.scale(0).terms


class TestStairs:
    def test_basic(self):
        assert stairs_and_dim([e(2, 0), e(0, 1)]) == [e(0, 0), e(1, 0)]

    def test_positive_dim(self):
        assert stairs_and_dim([e(1, 1)]) is None

    def test_under_stairs_not_divisible(self, rng):
        for _ in range(100):
            k = rng.randint(1, 4)
            leads = []
            for i in range(k):
                ex = [0] * k
                ex[i] = rng.randint(1, 3)
                leads.append(tuple(ex))
            for _ in range(rng.randint(0, 3)):
                leads.append(rand_exponent(rng, k, 3))
            stairs = stairs_and_dim(leads)
            assert stairs is not None
            assert len(set(stairs)) == len(stairs)
            for s in stairs:
                assert not any(all(x <= y for x, y in zip(m, s)) for m in leads)

    def test_sorted_ascending(self):
        stairs = stairs_and_dim([e(2, 0), e(0, 2)])
        assert stairs == sorted(stairs, key=grevlex_key)
        assert stairs == [e(0, 0), e(1, 0), e(0, 1), e(1, 1)]
