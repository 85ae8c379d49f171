"""Two independent ground-truth generators.

* ``scalar_series``: evaluates the model's generating function directly by
  the truncated power-sum pairing <exp(f), exp(tg)>; exactness relies on
  the grading where p_i has weight i, since the n-th series coefficient
  pairs exp(f) only against monomials of weight at most n*max(K).  The
  truncated exp(f) and the powers of g are integer term maps, each over
  one common denominator, so each series coefficient is one ``Fraction``.
  A monomial is one packed int with its weight as the top digit, in a
  base above every weight the call reaches: a product of monomials is one
  addition, and truncation by weight is a threshold on the key.  exp(f)
  carries its pairing weights, each coefficient multiplied by zweight of
  its monomial once when exp(f) is built.

* ``graph_count_dp``: counts the labelled structures themselves by a
  vertex-by-vertex dynamic program over sorted residual-degree states.
  Each state chooses the edges of its vertex with the smallest residual,
  which has the fewest ways to spend it.  It is exponential in n and
  exists to validate, not to scale.

Both are deliberately independent of the operator pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, lcm

from .exactnum import UniPoly
from .models import ModelSpec, build_f, build_g
from .polyring import MPoly


def _weight(e) -> int:
    return sum((i + 1) * x for i, x in enumerate(e))


def zweight(e) -> int:
    """<p^e, p^e> = prod over i of i^{e_i} e_i! (exponents 0-based)."""
    out = 1
    for i, x in enumerate(e, start=1):
        if x:
            out *= i**x * factorial(x)
    return out


def _pack(e, base: int) -> int:
    """The monomial p^e as one int, weight(e)*base^k + sum e_i*base^i: the
    weight is the top digit, so a product of monomials is one addition and
    every monomial past a weight w has a key of at least (w+1)*base^k.
    Exact while every weight stays below base, which bounds each e_i."""
    key = _weight(e)
    for x in reversed(e):
        key = key * base + x
    return key


def _int_terms(m: MPoly, base: int):
    """m's t-free coefficients as (packed integer term map, common
    denominator)."""
    rats = {_pack(e, base): c.as_rational() for e, c in m.terms.items()}
    den = lcm(1, *(q.denominator for q in rats.values()))
    return {e: q.numerator * (den // q.denominator) for e, q in rats.items()}, den


def _mul_trunc(a: dict, b: dict, limit: int) -> dict:
    """Product of packed integer term maps, dropping the monomials whose
    key reaches limit, (w+1)*base^k for those past weight w; the
    denominators multiply outside.  b's terms run in key order, so each
    term of a stops at the first partner past the limit."""
    bs = sorted(b.items())
    out = {}
    get = out.get
    for e1, c1 in a.items():
        left = limit - e1
        for e2, c2 in bs:
            if e2 >= left:
                break
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _exp_trunc(f: MPoly, wmax: int, base: int):
    """exp(f) truncated past weighted degree wmax, as (packed integer term
    map, common denominator), each coefficient already multiplied by the
    pairing weight zweight of its monomial; f has t-free coefficients and
    no constant term, and base exceeds wmax."""
    limit = (wmax + 1) * base**f.k
    out = {0: 1}
    den = 1
    for e, c in sorted(f.terms.items()):
        q = c.as_rational()
        s, d = q.numerator, q.denominator
        # exp of a single term (s/d) p^e: sum of s^m/(d^m m!) p^(m e), all
        # over d^top top! for the largest top with top * weight(e) <= wmax
        top = wmax // _weight(e)
        key = _pack(e, base)
        single = {}
        num = d**top * factorial(top)
        den *= num
        for m in range(top + 1):
            single[m * key] = num
            num = num * s // (d * (m + 1))  # exact for m < top
        out = _mul_trunc(out, single, limit)
    # zweight(e) is the product of i^x x! over the digits x = e_i of the key
    zw = [[i**x * factorial(x) for x in range(base)] for i in range(1, f.k + 1)]
    for e, c in out.items():
        rest = e
        for row in zw:
            rest, x = divmod(rest, base)
            c *= row[x]
        out[e] = c
    return out, den


def trunc_pairing(u: MPoly, v: MPoly) -> Fraction:
    """<u, v> = sum over common monomials of the coefficient product times
    z of the exponent.  Coefficients must be t-free."""
    if u.k != v.k:
        raise ValueError("ambient dimension mismatch")
    if len(u.terms) > len(v.terms):
        u, v = v, u
    out = Fraction(0)
    for e, cu in u.terms.items():
        cv = v.terms.get(e)
        if cv is not None:
            out += cu.as_rational() * cv.as_rational() * zweight(e)
    return out


@dataclass(frozen=True)
class TruncSeries:
    model: ModelSpec
    order: int
    coeffs: tuple

    def __post_init__(self):
        if self.coeffs and self.coeffs[0] != 1:
            raise ValueError("series of a graph model must start at 1")

    def counts(self):
        """The integer counts n! * c_n."""
        out = []
        for n, c in enumerate(self.coeffs):
            v = c * factorial(n)
            if v.denominator != 1:
                raise ValueError(f"non-integer count at n={n}")
            out.append(int(v))
        return out


def scalar_series(model: ModelSpec, order: int) -> TruncSeries:
    """Series coefficients c_0..c_order of <exp(f), exp(tg)>."""
    if order < 0:
        raise ValueError("negative order")
    k = model.k
    # every map stays within weight order*k, and g within k
    base = max(order, 1) * k + 1
    big_f, fden = _exp_trunc(build_f(model), order * k, base)
    g, gden = _int_terms(build_g(model), base)
    glimit = (order * k + 1) * base**k
    coeffs = [Fraction(1)]
    gn = {0: 1}
    den = fden  # of the pairing with g^n / n!: fden * gden^n * n!
    for n in range(1, order + 1):
        gn = _mul_trunc(gn, g, glimit)
        den *= gden * n
        acc = 0
        for e, c in gn.items():
            cf = big_f.get(e)
            if cf is not None:
                acc += c * cf
        coeffs.append(Fraction(acc, den))
    return TruncSeries(model, order, tuple(coeffs))


def pairing_tseries(model: ModelSpec, h: MPoly, order: int) -> UniPoly:
    """<exp(f), h exp(tg)> modulo t^(order+1).

    h may carry polynomial coefficients in t (clear denominators first);
    the result is the truncated Taylor expansion in t.
    """
    if order < 0:
        raise ValueError("negative order")
    k = model.k
    hw = max((_weight(e) for e in h.terms), default=0)
    for c in h.terms.values():
        if c.dp != (1,) or c.e < 0:
            raise ValueError("pairing_tseries needs denominator-free coefficients")
    hden = lcm(1, *(c.cd for c in h.terms.values()))
    # every map stays within weight order*k + hw, and g within k
    base = max(order, 1) * k + hw + 1
    hpoly = {
        _pack(e, base): [0] * c.e + [x * c.cn * (hden // c.cd) for x in c.np] for e, c in h.terms.items()
    }
    big_f, fden = _exp_trunc(build_f(model), order * k + hw, base)
    g, gden = _int_terms(build_g(model), base)
    glimit = (order * k + 1) * base**k
    # the terms from g^n/n! are over hden * fden * gden^n * n!; scales[n]
    # brings them over den = hden * fden * gden^order * order!
    scales = [1] * (order + 1)
    for n in range(order, 0, -1):
        scales[n - 1] = scales[n] * gden * n
    out = [0] * (order + 1)
    gn = {0: 1}
    for n in range(order + 1):
        if n:
            gn = _mul_trunc(gn, g, glimit)
        # <F, h g^n>: collect per t-power
        for e1, cs in hpoly.items():
            acc = 0
            for e2, c2 in gn.items():
                cf = big_f.get(e1 + e2)
                if cf is not None:
                    acc += cf * c2
            if acc:
                for j, hc in enumerate(cs[: order + 1 - n]):
                    out[n + j] += hc * acc * scales[n]
    den = hden * fden * scales[0]
    return UniPoly([Fraction(x, den) for x in out])


# ---------------------------------------------------------------------------
# Direct enumeration of labelled structures.
# ---------------------------------------------------------------------------

def _loop_options(residual: int, edges: str, loops: str):
    """(cost, ways) per admissible loop configuration at one vertex."""
    if loops == "ll":
        return [(0, 1)]
    unit = 2 if loops == "la" else 1
    top = 1 if edges == "se" else residual // unit
    return [(lam * unit, 1) for lam in range(min(top, residual // unit) + 1)]


def _distributions(classes, rem, simple):
    """Yield (ways, new_residuals) for spending exactly rem edge-endpoints
    of the processed vertex across residual classes [(residual, count)...].

    Simple edges give each target vertex at most one edge; multi-edges
    split each class by the parallel multiplicity received, bounded by the
    target's residual.
    """
    if not classes:
        if rem == 0:
            yield 1, []
        return
    (r, cnt), rest = classes[0], classes[1:]
    if simple:
        for a in range(min(cnt, rem) + 1):
            ways = comb(cnt, a)
            adds = [r - 1] * a + [r] * (cnt - a)
            for w2, rest_adds in _distributions(rest, rem - a, simple):
                yield ways * w2, adds + rest_adds
    else:
        # b[j] = vertices of this class receiving j parallel edges each;
        # j starts at the largest multiplicity the budget admits
        def rec(vleft, budget, j, chosen):
            if vleft == 0:
                yield list(chosen), budget
                return
            if j == 0:
                yield list(chosen) + [(0, vleft)], budget
                return
            for b in range(min(vleft, budget // j) + 1):
                chosen.append((j, b))
                left = budget - j * b
                yield from rec(vleft - b, left, min(j - 1, left), chosen)
                chosen.pop()

        for split, budget_left in rec(cnt, rem, min(r, rem), []):
            ways = 1
            left = cnt
            adds = []
            for j, b in split:
                ways *= comb(left, b)
                left -= b
                adds.extend([r - j] * b)
            for w2, rest_adds in _distributions(rest, budget_left, simple):
                yield ways * w2, adds + rest_adds


def _count_fixed(demands, edges: str, loops: str, memo) -> int:
    """Labelled structures realizing the exact residual-demand multiset."""
    state = tuple(sorted((d for d in demands if d), reverse=True))
    if not state:
        return 1
    key = state
    hit = memo.get(key)
    if hit is not None:
        return hit
    # any vertex may choose its edges; the smallest residual has the fewest ways
    d, rest = state[-1], state[:-1]
    classes = []
    for r in rest:
        if classes and classes[-1][0] == r:
            classes[-1][1] += 1
        else:
            classes.append([r, 1])
    classes = [tuple(c) for c in classes]
    total = 0
    for cost, lways in _loop_options(d, edges, loops):
        rem = d - cost
        if rem < 0:
            continue
        for ways, new_res in _distributions(classes, rem, edges == "se"):
            total += lways * ways * _count_fixed(new_res, edges, loops, memo)
    memo[key] = total
    return total


def graph_count_dp(model: ModelSpec, n: int, bound: int = 10) -> int:
    """Number of labelled structures on n vertices with all degrees in the
    model's degree set, under its edge and loop rules."""
    if n > bound:
        raise ValueError(f"n={n} beyond the configured oracle bound {bound}")
    if n < 0:
        raise ValueError("negative n")
    if n == 0:
        return 1
    degs = sorted(model.degrees)
    memo = {}
    total = 0
    for demand in combinations_with_replacement(degs, n):
        mult = factorial(n)
        for d in set(demand):
            mult //= factorial(demand.count(d))
        total += mult * _count_fixed(demand, model.edges, model.loops, memo)
    return total
