"""Two independent ground-truth generators.

* ``scalar_series``: evaluates the model's generating function directly by
  the truncated power-sum pairing <exp(f), exp(tg)>; exactness relies on
  the grading where p_i has weight i, since the n-th series coefficient
  pairs exp(f) only against monomials of weight at most n*max(K).

* ``graph_count_dp``: counts the labelled structures themselves by a
  vertex-by-vertex dynamic program over sorted residual-degree states.
  It is exponential in n and exists to validate, not to scale.

Both are deliberately independent of the operator pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

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


def _as_frac_dict(m: MPoly) -> dict:
    return {e: c.as_rational() for e, c in m.terms.items()}


def _mul_trunc(a: dict, b: dict, wmax) -> dict:
    out = {}
    for e1, c1 in a.items():
        w1 = _weight(e1)
        for e2, c2 in b.items():
            if wmax is not None and w1 + _weight(e2) > wmax:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            c = c1 * c2
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _exp_trunc(f: dict, k: int, wmax: int) -> dict:
    """exp(f) truncated past weighted degree wmax (f has no constant term)."""
    out = {(0,) * k: Fraction(1)}
    for e, c in sorted(f.items()):
        w = _weight(e)
        # exp of a single term: sum of c^m/m! p^(m e)
        single = {}
        m = 0
        acc = Fraction(1)
        while m * w <= wmax:
            single[tuple(m * x for x in e)] = acc
            m += 1
            acc = acc * c / m
        out = _mul_trunc(out, single, wmax)
    return out


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
    k = model.k
    wmax = order * k
    f = _as_frac_dict(build_f(model))
    g = _as_frac_dict(build_g(model))
    big_f = _exp_trunc(f, k, wmax)
    coeffs = [Fraction(1)]
    gn = {(0,) * k: Fraction(1)}
    nfact = 1
    for n in range(1, order + 1):
        gn = _mul_trunc(gn, g, None)
        nfact *= n
        acc = Fraction(0)
        for e, c in gn.items():
            cf = big_f.get(e)
            if cf is not None:
                acc += c * cf * zweight(e)
        coeffs.append(acc / nfact)
    return TruncSeries(model, order, tuple(coeffs))


def pairing_tseries(model: ModelSpec, h: MPoly, order: int) -> UniPoly:
    """<exp(f), h exp(tg)> modulo t^(order+1).

    h may carry polynomial coefficients in t (clear denominators first);
    the result is the truncated Taylor expansion in t.
    """
    k = model.k
    hw = max((_weight(e) for e in h.terms), default=0)
    hpoly = {}
    for e, c in h.terms.items():
        if c.dp != (1,) or c.e < 0:
            raise ValueError("pairing_tseries needs denominator-free coefficients")
        hpoly[e] = [0] * c.e + [x * c.c for x in c.np]
    wmax = order * k + hw
    f = _as_frac_dict(build_f(model))
    g = _as_frac_dict(build_g(model))
    big_f = _exp_trunc(f, k, wmax)
    out = [Fraction(0)] * (order + 1)
    gn = {(0,) * k: Fraction(1)}
    nfact = 1
    for n in range(order + 1):
        if n:
            gn = _mul_trunc(gn, g, None)
            nfact *= n
        # <F, h g^n>: collect per t-power
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
        # b[j] = vertices of this class receiving j parallel edges each
        def rec(vleft, budget, j, chosen):
            if vleft == 0:
                yield list(chosen), budget
                return
            if j == 0:
                yield list(chosen) + [(0, vleft)], budget
                return
            for b in range(min(vleft, budget // j) + 1):
                chosen.append((j, b))
                yield from rec(vleft - b, budget - j * b, j - 1, chosen)
                chosen.pop()

        for split, budget_left in rec(cnt, rem, r, []):
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
