"""Both oracles against test-local copies of the code they replaced: the
``Fraction`` series and pairing, and the dynamic program that expands the
vertex with the largest residual.  Results must be equal."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial

import pytest

from regenum import oracle
from regenum.exactnum import RatFunc, UniPoly
from regenum.models import build_f, build_g, parse_model
from regenum.polyring import MPoly
from regenum.oracle import (
    _distributions,
    _exp_trunc,
    _loop_options,
    _pack,
    _weight,
    graph_count_dp,
    pairing_tseries,
    scalar_series,
    zweight,
)

from conftest import pipeline

MODELS_DEG3 = [
    f"{e},{l},{{{','.join(map(str, K))}}}"
    for e in ("se", "me")
    for l in ("ll", "la", "lh")
    for r in (1, 2, 3)
    for K in combinations((1, 2, 3), r)
]


# -- the Fraction oracles ---------------------------------------------------

def frac_dict(m):
    return {e: c.as_rational() for e, c in m.terms.items()}


def frac_mul_trunc(a, b, wmax):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if wmax is not None and _weight(e1) + _weight(e2) > wmax:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def frac_exp_trunc(f, k, wmax):
    out = {(0,) * k: Fraction(1)}
    for e, c in sorted(f.items()):
        w = _weight(e)
        single = {}
        m = 0
        acc = Fraction(1)
        while m * w <= wmax:
            single[tuple(m * x for x in e)] = acc
            m += 1
            acc = acc * c / m
        out = frac_mul_trunc(out, single, wmax)
    return out


def frac_scalar_series(model, order):
    k = model.k
    big_f = frac_exp_trunc(frac_dict(build_f(model)), k, order * k)
    g = frac_dict(build_g(model))
    coeffs = [Fraction(1)]
    gn = {(0,) * k: Fraction(1)}
    nfact = 1
    for n in range(1, order + 1):
        gn = frac_mul_trunc(gn, g, None)
        nfact *= n
        acc = Fraction(0)
        for e, c in gn.items():
            cf = big_f.get(e)
            if cf is not None:
                acc += c * cf * zweight(e)
        coeffs.append(acc / nfact)
    return tuple(coeffs)


def frac_pairing_tseries(model, h, order):
    k = model.k
    hw = max((_weight(e) for e in h.terms), default=0)
    hpoly = {e: [0] * c.e + [x * c.c for x in c.np] for e, c in h.terms.items()}
    big_f = frac_exp_trunc(frac_dict(build_f(model)), k, order * k + hw)
    g = frac_dict(build_g(model))
    out = [Fraction(0)] * (order + 1)
    gn = {(0,) * k: Fraction(1)}
    nfact = 1
    for n in range(order + 1):
        if n:
            gn = frac_mul_trunc(gn, g, None)
            nfact *= n
        for e1, cs in hpoly.items():
            for e2, c2 in gn.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                cf = big_f.get(e)
                if cf is None:
                    continue
                zc = cf * c2 * zweight(e)
                for j, hc in enumerate(cs):
                    if hc and n + j <= order:
                        out[n + j] += hc * zc / nfact
    return UniPoly(out)


# -- the largest-residual-first dynamic program ------------------------------

def largest_first_fixed(demands, edges, loops, memo):
    state = tuple(sorted((d for d in demands if d), reverse=True))
    if not state:
        return 1
    hit = memo.get(state)
    if hit is not None:
        return hit
    d, rest = state[0], state[1:]
    classes = []
    for r in rest:
        if classes and classes[-1][0] == r:
            classes[-1][1] += 1
        else:
            classes.append([r, 1])
    classes = [tuple(c) for c in classes]
    total = 0
    for cost, lways in _loop_options(d, edges, loops):
        for ways, new_res in _distributions(classes, d - cost, edges == "se"):
            total += lways * ways * largest_first_fixed(new_res, edges, loops, memo)
    memo[state] = total
    return total


def largest_first_count(model, n):
    memo = {}
    total = 0
    for demand in combinations_with_replacement(sorted(model.degrees), n):
        mult = factorial(n)
        for d in set(demand):
            mult //= factorial(demand.count(d))
        total += mult * largest_first_fixed(demand, model.edges, model.loops, memo)
    return total


# ---------------------------------------------------------------------------

class TestSeries:
    @pytest.mark.parametrize("ms", MODELS_DEG3)
    def test_equals_fraction_series(self, ms):
        m = parse_model(ms)
        assert scalar_series(m, 8).coeffs == frac_scalar_series(m, 8)

    def test_pairing_with_powers_of_t(self):
        res = pipeline("se,ll,{3}")
        seen_t = False
        for gh in res.ghat:
            den = UniPoly((1,))
            for c in gh.terms.values():
                den = den * c.den
            h = gh.scale(RatFunc.of(den, 3))
            seen_t |= any(c.e > 0 or len(c.np) > 1 for c in h.terms.values())
            assert any(c.cd > 1 for c in h.terms.values())
            assert pairing_tseries(res.model, h, 8) == frac_pairing_tseries(res.model, h, 8)
        assert seen_t

    @pytest.mark.parametrize("ms,order", [("me,la,{4}", 10), ("se,la,{4}", 10), ("me,ll,{5}", 8)])
    def test_degree_4_and_5(self, ms, order):
        m = parse_model(ms)
        assert scalar_series(m, order).coeffs == frac_scalar_series(m, order)

    def test_pairing_degree_4(self):
        # h = p1*g + t^2 p2^2 - 3t p4 on se,la,{4}: t-dependent coefficients
        # and monomials of weight up to 8 next to g's
        m = parse_model("se,la,{4}")
        h = build_g(m).scale(Fraction(2, 3)) * MPoly.term(4, (1, 0, 0, 0), 1)
        h = h + MPoly.term(4, (0, 2, 0, 0), RatFunc.of(UniPoly((0, 0, 1)), UniPoly((1,))))
        h = h + MPoly.term(4, (0, 0, 0, 1), RatFunc.of(UniPoly((0, -3)), UniPoly((1,))))
        assert max(_weight(e) for e in h.terms) == 5
        assert pairing_tseries(m, h, 6) == frac_pairing_tseries(m, h, 6)

    @pytest.mark.parametrize(
        "fn",
        [scalar_series, lambda m, n: pairing_tseries(m, build_g(m), n)],
        ids=["scalar_series", "pairing_tseries"],
    )
    def test_negative_order_raises(self, fn):
        with pytest.raises(ValueError):
            fn(parse_model("se,ll,{3}"), -2)


def unpack(key, k, base):
    """The exponents and the weight digit of a packed monomial."""
    e = []
    for _ in range(k):
        key, x = divmod(key, base)
        e.append(x)
    return tuple(e), key


class TestPackedMonomials:
    # scalar_series at order 10 on a {5} model: weights up to 50, base 51
    K, WTOP = 5, 50

    def test_round_trip_at_the_largest_weight(self):
        base = self.WTOP + 1
        for e in [(self.WTOP, 0, 0, 0, 0), (0, 0, 0, 0, 10), (1, 2, 0, 3, 5), (0,) * 5]:
            assert unpack(_pack(e, base), self.K, base) == (e, _weight(e))

    def test_product_is_addition_and_truncation_a_threshold(self):
        base = self.WTOP + 1
        limit = (self.WTOP + 1) * base**self.K
        a, b = (20, 0, 5, 0, 0), (0, 3, 0, 2, 0)
        ab = tuple(x + y for x, y in zip(a, b))
        assert _pack(a, base) + _pack(b, base) == _pack(ab, base) < limit
        # weight 50 stays below the threshold, weight 51 reaches it
        assert _pack(a, base) + _pack((0, 0, 0, 0, 3), base) < limit
        assert _pack(a, base) + _pack((1, 0, 0, 0, 3), base) >= limit

    def test_exp_carries_pairing_weights(self):
        # exp(p1 - p1^2/2 + p2/3) to the top weight: p1^50 is the largest
        # exponent the base holds
        f = MPoly.term(2, (1, 0), 1) + MPoly.term(2, (2, 0), Fraction(-1, 2)) + MPoly.term(2, (0, 1), Fraction(1, 3))
        base = self.WTOP + 1
        out, den = _exp_trunc(f, self.WTOP, base)
        ref = frac_exp_trunc(frac_dict(f), 2, self.WTOP)
        assert _pack((self.WTOP, 0), base) in out
        assert {unpack(key, 2, base)[0]: Fraction(c, den) for key, c in out.items()} == {
            e: c * zweight(e) for e, c in ref.items()
        }


class TestDP:
    @pytest.mark.parametrize("ms", MODELS_DEG3)
    def test_equals_largest_first(self, ms):
        m = parse_model(ms)
        for n in range(9):
            assert graph_count_dp(m, n) == largest_first_count(m, n), n

    @pytest.mark.parametrize("ms", ["me,la,{5}", "me,ll,{5}", "se,lh,{1,2,3,4,5}"])
    def test_equals_largest_first_to_10(self, ms):
        m = parse_model(ms)
        for n in range(11):
            assert graph_count_dp(m, n) == largest_first_count(m, n), n

    def test_no_memo_survives_a_call(self, monkeypatch):
        calls = []
        inner = oracle._count_fixed

        def counting(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(oracle, "_count_fixed", counting)
        m = parse_model("me,la,{5}")
        first = graph_count_dp(m, 10)
        n_first = len(calls)
        assert graph_count_dp(m, 10) == first
        assert n_first > 0 and len(calls) == 2 * n_first
