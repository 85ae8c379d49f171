from fractions import Fraction

import pytest

from regenum.models import (
    ModelSpec,
    build_f,
    build_g,
    build_generators,
    h_in_powersums,
    parse_model,
    partitions,
    untwisted_generators,
    zlambda,
)
from regenum.weyl import parse_op

from conftest import poly


class TestPartitions:
    def test_three(self):
        assert partitions(3) == ((3,), (2, 1), (1, 1, 1))

    def test_zero(self):
        assert partitions(0) == ((),)

    def test_negative(self):
        with pytest.raises(ValueError):
            partitions(-1)

    def test_counts_against_pentagonal_recurrence(self):
        # independent oracle: p(n) = sum (-1)^(j+1) [p(n-j(3j-1)/2) + p(n-j(3j+1)/2)]
        N = 20
        p = [1] + [0] * N
        for n in range(1, N + 1):
            total = 0
            j = 1
            while True:
                g1 = j * (3 * j - 1) // 2
                g2 = j * (3 * j + 1) // 2
                if g1 > n:
                    break
                sign = 1 if j % 2 else -1
                total += sign * p[n - g1]
                if g2 <= n:
                    total += sign * p[n - g2]
                j += 1
            p[n] = total
        for n in range(N + 1):
            assert len(partitions(n)) == p[n]
        assert len(partitions(7)) == 15

    def test_parts_descending_and_sum(self):
        for la in partitions(9):
            assert sum(la) == 9
            assert list(la) == sorted(la, reverse=True)


class TestZlambda:
    def test_values(self):
        assert zlambda((1, 1, 1)) == 6
        assert zlambda((2, 1)) == 2
        assert zlambda((3,)) == 3

    def test_partition_identity(self):
        # sum over partitions of 1/z_lambda = 1 (coefficient of h_n at p_1^n ... )
        for n in range(11):
            assert sum(Fraction(1, zlambda(la)) for la in partitions(n)) == 1


class TestH:
    def test_h3(self):
        assert h_in_powersums(3, 3) == poly("p3/3 + p2*p1/2 + p1^3/6", 3)

    def test_h1(self):
        assert h_in_powersums(1, 4) == poly("p1", 4)

    def test_h4(self):
        want = poly("p4/4 + p1*p3/3 + p2^2/8 + p1^2*p2/4 + p1^4/24", 4)
        assert h_in_powersums(4, 4) == want

    def test_ambient_too_small(self):
        with pytest.raises(ValueError):
            h_in_powersums(4, 3)


class TestModelSpec:
    def test_parse(self):
        m = parse_model("me,lh,{1,2,3}")
        assert m.edges == "me" and m.loops == "lh" and m.degrees == frozenset({1, 2, 3})
        assert m.k == 3
        assert str(m) == "me,lh,{1,2,3}"

    def test_parse_spaces(self):
        assert parse_model(" se , ll , {5} ").k == 5

    def test_bad_strings(self):
        for bad in ("xx,ll,{3}", "se,zz,{3}", "se,ll,{}", "se,ll,3", "se,ll", "se,ll,{0}"):
            with pytest.raises(ValueError):
                parse_model(bad)

    def test_empty_degrees(self):
        with pytest.raises(ValueError):
            ModelSpec("se", "ll", frozenset())


class TestBuildF:
    def test_se_ll_4(self):
        m = parse_model("se,ll,{4}")
        want = poly("p1^2/2 - p2^2/4 + p3^2/6 - p4^2/8 - p2/2 + p4/4", 4)
        assert build_f(m) == want

    def test_se_ll_3(self):
        want = poly("p1^2/2 - p2/2 - p2^2/4 + p3^2/6", 3)
        assert build_f(parse_model("se,ll,{3}")) == want

    def test_me_ll_2(self):
        want = poly("p1^2/2 + p2^2/4 - p2/2", 2)
        assert build_f(parse_model("me,ll,{2}")) == want

    def test_ll_la_differ_only_in_even_linear_block(self):
        for e in ("se", "me"):
            for K in ("{4}", "{1,2,3}", "{6}"):
                ll = build_f(parse_model(f"{e},ll,{K}"))
                la = build_f(parse_model(f"{e},la,{K}"))
                diff = la - ll
                k = ll.k
                for exp, _ in diff.terms.items():
                    assert sum(exp) == 1
                    (i,) = [i for i, x in enumerate(exp) if x]
                    assert (i + 1) % 2 == 0

    def test_se_lh_1(self):
        assert build_f(parse_model("se,lh,{1}")) == poly("p1^2/2 + p1", 1)


class TestBuildG:
    def test_k4(self):
        want = poly("p1^4/24 + p1^2*p2/4 + p2^2/8 + p1*p3/3 + p4/4", 4)
        assert build_g(parse_model("se,ll,{4}")) == want

    def test_k3(self):
        assert build_g(parse_model("se,ll,{3}")) == poly("p3/3 + p2*p1/2 + p1^3/6", 3)

    def test_k12(self):
        assert build_g(parse_model("se,ll,{1,2}")) == poly("p1 + p1^2/2 + p2/2", 2)

    def test_max_index_bounded(self):
        for ms in ("se,ll,{2,5}", "me,lh,{3}", "se,la,{1,2,3,4}"):
            m = parse_model(ms)
            g = build_g(m)
            for exp in g.terms:
                assert len(exp) == m.k


class TestGenerators:
    def test_untwisted_k4(self):
        gens = untwisted_generators(parse_model("se,ll,{4}"))
        assert gens[0] == parse_op("d1 - p1", 4)
        assert gens[1] == parse_op("2*d2 + p2 + 1", 4)
        assert gens[2] == parse_op("3*d3 - p3", 4)
        assert gens[3] == parse_op("4*d4 + p4 - 1", 4)

    def test_twisted_k4(self):
        gens = build_generators(parse_model("se,ll,{4}"))
        assert gens[0] == parse_op("p1 - d1 - t/6*(p1^3 + 3*p1*p2 + 2*p3)", 4)
        assert gens[1] == parse_op("p2 + 2*d2 + t/2*(p1^2 + p2) + 1", 4)

    def test_direct_substitution_formula(self):
        # P_i-sharp = p_i - i f_i(1(d1+tg1), 2(d2+tg2), ...) for every model
        from regenum.weyl import WeylOp, weyl_mul
        from regenum.exactnum import RF_T
        from regenum.polyring import MPoly

        for ms in ("se,ll,{3}", "me,la,{2}", "se,lh,{1,3}"):
            m = parse_model(ms)
            k = m.k
            f, g = build_f(m), build_g(m)
            subs = []
            for i in range(k):
                di = WeylOp.d(k, i) + WeylOp.from_mpoly(g.derivative(i).scale(RF_T))
                subs.append(di.scale(i + 1))
            for i, got in enumerate(build_generators(m)):
                fi = f.derivative(i)
                acc = WeylOp.p(k, i)
                for exp, c in fi.terms.items():
                    term = WeylOp.const(k, c).scale(-(i + 1))
                    for v, e in enumerate(exp):
                        for _ in range(e):
                            term = weyl_mul(term, subs[v])
                    acc = acc + term
                assert got == acc
