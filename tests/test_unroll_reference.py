"""``seqtools.unroll`` and ``seqtools.nonneg_integer_roots`` against
test-local copies of the code they replaced: an unroll whose blocked
indices become symbols carried through a second, symbolic loop, and a root
finder that isolates roots with a Sturm chain over the rationals.  Same
values, or the same exception type, message and index."""

import random
from fractions import Fraction

import pytest

from regenum.exactnum import UniPoly, zderiv, zeval, zgcd_split
from regenum.seqtools import (
    InconsistentError,
    Recurrence,
    SequenceError,
    UnderdeterminedError,
    _peel,
    nonneg_integer_roots,
    rec_counts,
    unroll,
)

from conftest import up


# ---------------------------------------------------------------------------
# Reference: Sturm isolation over Q.
# ---------------------------------------------------------------------------

def ref_divmod(a, b):
    """Field division with remainder of UniPolys (coefficients become Rat)."""
    q = [Fraction(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    r = [Fraction(c) for c in a.coeffs]
    db = len(b.coeffs) - 1
    while len(r) > db:
        c = r[-1] / b.coeffs[-1]
        i = len(r) - 1 - db
        q[i] = c
        for j, cb in enumerate(b.coeffs):
            r[i + j] -= c * cb
        while r and not r[-1]:
            r.pop()
    return UniPoly(q), UniPoly(r)


def sturm_chain(cs):
    chain = [UniPoly(cs)]
    chain.append(chain[0].derivative())
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        _, r = ref_divmod(chain[-2], chain[-1])
        if r.is_zero():
            break
        chain.append(-r)
    return [c for c in chain if not c.is_zero()]


def variations(chain, x):
    signs = [1 if v > 0 else -1 for v in (p.evaluate(x) for p in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def safe_point(chain, x):
    eps = Fraction(1, 4)
    while not chain[0].evaluate(x):
        x += eps
        eps /= 2
    return x


def ref_roots(p):
    """Reference: the square-free part isolated over half-integer brackets
    by Sturm counts; each width-one bracket's integer is evaluated."""
    cs = p.int_coeffs()
    if not cs:
        raise ValueError("zero polynomial")
    roots = set()
    v = 0
    while v < len(cs) and cs[v] == 0:
        v += 1
    if v:
        roots.add(0)
        cs = cs[v:]
    if len(cs) == 1:
        return sorted(roots)
    _, cs, _ = zgcd_split(cs, zderiv(cs))
    chain = sturm_chain(cs)
    bound = 1 + max(abs(c) for c in cs) // abs(cs[-1]) + 1

    def search(lo, hi, ilo, ihi):
        a = safe_point(chain, lo)
        b = safe_point(chain, hi)
        if variations(chain, a) - variations(chain, b) <= 0:
            return
        if ilo == ihi:
            if not zeval(cs, ilo):
                roots.add(ilo)
            return
        mid = (ilo + ihi) // 2
        search(lo, Fraction(2 * mid + 1, 2), ilo, mid)
        search(Fraction(2 * mid + 1, 2), hi, mid + 1, ihi)

    search(Fraction(-1, 2), Fraction(2 * bound + 1, 2), 0, bound)
    return sorted(roots)


# ---------------------------------------------------------------------------
# Reference: level-by-level peel by synthetic division, an index pre-scan,
# the Horner loop, and a symbolic loop.
# ---------------------------------------------------------------------------

def divide_linear(cs, level):
    q = [0] * (len(cs) - 1)
    carry = 0
    for i in range(len(cs) - 1, 0, -1):
        carry = cs[i] - level * carry
        q[i - 1] = carry
    return q if not cs or cs[0] == level * carry else None


def ref_peel(polys):
    order = len(polys) - 1
    quots = list(polys)
    peeled = [False] * (order + 1)
    for level in range(order, 0, -1):
        qs = [divide_linear(cs, level) for cs in quots[:level]]
        if None not in qs:
            quots[:level] = qs
            peeled[level] = True
    return quots, peeled


def affine_add(a, b, scale=1):
    for k, v in b.items():
        nv = a.get(k, 0) + v * scale
        if nv:
            a[k] = nv
        else:
            a.pop(k, None)


def ref_unroll(rec, init, n_max):
    """Reference: affine dicts keyed by symbol ("#" is the constant) when
    some index in range is blocked; the peeled Horner loop otherwise."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    order = rec.order
    polys = [p.int_coeffs() for p in rec.coeffs]
    leadp = polys[order]
    init = [Fraction(v) for v in init]
    if len(init) < 1:
        raise ValueError("initial segment must force at least c_0")
    blocked = any(zeval(leadp, m - order) == 0 for m in range(len(init), n_max + 1))
    counts = rec.mode == "counts"
    values = list(init)
    if counts and not blocked:
        for v in init:
            if v.denominator != 1:
                raise SequenceError(f"non-integer forced value {v} in counts mode")
        values = [v.numerator for v in init]
    zero = 0 if counts else Fraction(0)
    quots, peeled = ref_peel(polys)
    for m in range(n_max + 1):
        n = m - order
        acc = zero
        for j in range(max(-n, 0), order):
            if peeled[j]:
                acc *= n + j
            v = values[n + j]
            if v:
                acc += zeval(quots[j], n) * v
        if peeled[order]:
            acc *= m
        if m < len(init):
            if acc + zeval(leadp, n) * values[m]:
                raise InconsistentError(f"forced initial segment violates the recurrence at index {m}")
        elif blocked:
            break
        elif counts:
            q, r = divmod(-acc, zeval(leadp, n))
            if r:
                raise SequenceError(f"non-integer count at n={m}")
            values.append(q)
        else:
            values.append(-acc / zeval(leadp, n))
    if not blocked:
        return values[: n_max + 1]

    roots = ref_roots(UniPoly(leadp).shift_arg(-order))
    horizon = max([n_max] + roots)
    values = [{"#": v} for v in init]
    resolved = {}

    def resolve(expr):
        out = {}
        stack = [(expr, Fraction(1))]
        while stack:
            e, sc = stack.pop()
            for k, v in e.items():
                if k != "#" and k in resolved:
                    stack.append((resolved[k], v * sc))
                else:
                    affine_add(out, {k: v}, sc)
        return out

    def handle_constraint(expr, index):
        expr = resolve(expr)
        syms = [k for k in expr if k != "#"]
        if not syms:
            if expr:
                raise InconsistentError(f"recurrence instance at index {index} is violated")
            return
        s = max(syms)
        coef = expr.pop(s)
        resolved[s] = {k: -v / coef for k, v in expr.items()}

    nsym = 0
    for m in range(horizon + 1):
        n = m - order
        acc = {}
        for j in range(order):
            idx = n + j
            if 0 <= idx < len(values) and idx < m:
                c = zeval(polys[j], n)
                if c:
                    affine_add(acc, values[idx], Fraction(c))
        lead = zeval(leadp, n)
        if m < len(values):
            if lead:
                affine_add(acc, values[m], Fraction(lead))
            handle_constraint(acc, m)
        elif lead:
            values.append({k: -v / lead for k, v in acc.items()})
        else:
            nsym += 1
            handle_constraint(acc, m)
            values.append({nsym: Fraction(1)})

    final = []
    for m, expr in enumerate(values[: n_max + 1]):
        expr = resolve(expr)
        if any(k != "#" for k in expr):
            raise UnderdeterminedError(m)
        final.append(expr.get("#", Fraction(0)))
    if not counts:
        return final
    for m, v in enumerate(final):
        if v.denominator != 1:
            raise SequenceError(f"non-integer count at n={m}: {v}")
    return [v.numerator for v in final]


# ---------------------------------------------------------------------------
# Comparison.
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """The return value with its element types, or the exception's type,
    message and blocked index."""
    try:
        out = fn(*args)
    except (SequenceError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return out, [type(v) for v in out]


def rand_poly(rng, deg, size=3):
    return UniPoly([rng.randint(-size, size) for _ in range(rng.randint(0, deg) + 1)])


def rand_blocked_rec(rng):
    """A recurrence whose leading coefficient vanishes at one to three
    planted indices in 1..10 and, mostly, at 0 (so that c_0 = 1 can hold);
    the lower coefficients sometimes vanish at the smallest planted index
    too, so its instance leaves the blocked term free for later blocked
    instances to pin."""
    order = rng.randint(0, 3)
    planted = rng.sample(range(1, 11), rng.randint(1, 3))
    roots = planted + [0] * (rng.random() < 0.8)
    lead = UniPoly((rng.choice((-2, -1, 1, 3)),))
    for r in roots:
        lead = lead * up(order - r, 1)
    if rng.random() < 0.3:
        lead = lead * up(2 * order + 1, 2)  # a root at -1/2 as well
    free = up(order - min(planted), 1) if rng.random() < 0.5 else up(1)
    coeffs = []
    for _ in range(order):
        p = UniPoly()
        while p.is_zero() and not coeffs:
            p = rand_poly(rng, 2)
        coeffs.append(p * free)
    mode = rng.choice(("taylor", "counts"))
    return Recurrence(tuple(coeffs) + (lead,), mode)


def rand_init(rng):
    init = [1]
    for _ in range(rng.choice((0, 0, 1, 2))):
        init.append(rng.choice((0, 0, 1, -2, Fraction(1, 2))))
    return init


class TestUnrollMatchesReference:
    def test_random_blocked_recurrences(self):
        rng = random.Random(1701)
        kinds = {}
        for _ in range(1000):
            rec = rand_blocked_rec(rng)
            if rec.mode == "taylor" and rng.random() < 0.3:
                rec = rec_counts(rec)  # peeled levels under blocked indices
            init, n_max = rand_init(rng), rng.randint(0, 9)
            got = outcome(unroll, rec, init, n_max)
            assert got == outcome(ref_unroll, rec, init, n_max), (rec, init, n_max)
            kind = got[0].__name__ if isinstance(got[0], type) else "values"
            blocked = any(not zeval(rec.coeffs[-1].int_coeffs(), m - rec.order) for m in range(len(init), n_max + 1))
            kinds[kind, blocked] = kinds.get((kind, blocked), 0) + 1
        # every outcome the symbolic loop can reach occurs, blocked or not
        for kind in ("values", "UnderdeterminedError", "InconsistentError", "SequenceError"):
            assert kinds.get((kind, True), 0) >= 5, kinds
        assert kinds.get(("values", False), 0) >= 100, kinds

    def test_random_unblocked_recurrences(self):
        # psi(m) = c * m * (2m + 1): 0 is the only exponent, nothing blocks
        rng = random.Random(1702)
        kinds = set()
        for _ in range(300):
            order = rng.randint(1, 3)
            lead = up(order, 1) * up(2 * order + 1, 2) * up(rng.choice((-2, 1, 3)))
            coeffs = [rand_poly(rng, 2) for _ in range(order)]
            if coeffs[0].is_zero():
                coeffs[0] = up(1)
            rec = Recurrence(tuple(coeffs) + (lead,), rng.choice(("taylor", "counts")))
            if rec.mode == "taylor" and rng.random() < 0.5:
                rec = rec_counts(rec)
            init, n_max = rand_init(rng), rng.randint(0, 12)
            got = outcome(unroll, rec, init, n_max)
            assert got == outcome(ref_unroll, rec, init, n_max), (rec, init, n_max)
            kinds.add(got[0].__name__ if isinstance(got[0], type) else "values")
        assert kinds == {"values", "InconsistentError", "SequenceError"}

    def test_bad_arguments(self):
        rec = Recurrence((up(0, -1), up(0, 1, 1)), "taylor")
        for init, n_max in (([1], -1), ([], 3)):
            assert outcome(unroll, rec, init, n_max) == outcome(ref_unroll, rec, init, n_max)
            assert outcome(unroll, rec, init, n_max)[0] is ValueError

    def test_two_symbols_one_pinned(self):
        # (n+1)(n-1)(n-3) c_{n+1} = (n-1) c_n: c_2 and c_4 are blocked.
        # Index 2's instance holds for any c_2 and leaves it free; index 4's
        # instance 0 * c_4 = 2 c_3 = -2 c_2 / 3 pins c_2 = 0 and leaves c_4
        # free, so c_0..c_3 are determined and c_4 is not
        rec = Recurrence((up(1, -1), up(1, 1) * up(3, -4, 1)), "taylor")
        assert unroll(rec, [1], 3) == [1, Fraction(-1, 3), 0, 0]
        assert unroll(rec, [1], 3) == ref_unroll(rec, [1], 3)
        with pytest.raises(UnderdeterminedError) as exc:
            unroll(rec, [1], 6)
        assert exc.value.index == 4
        assert outcome(unroll, rec, [1], 6) == outcome(ref_unroll, rec, [1], 6)

    def test_chained_blocked_terms(self):
        # n(n-1)(n-2)(n+3)(n-4)(n-5) c_{n+3} + 2n(n-1) c_{n+1} = n^2(n-1) c_n:
        # c_3, c_4, c_5, c_7 and c_8 are blocked.  Index 5's instance pins
        # c_3 = 1/90, index 7's solves c_5 = 2 c_4 and index 8's pins
        # c_4 = 1/1860, so c_5 is known only through that chain
        lead = up(0, 1) * up(-1, 1) * up(-2, 1) * up(3, 1) * up(-4, 1) * up(-5, 1)
        rec = Recurrence((up(0, 0, 1, -1), up(0, -2, 2), up(), lead), "taylor")
        vals = unroll(rec, [1], 5)
        assert vals == [1, 0, Fraction(1, 90), Fraction(1, 90), Fraction(1, 1860), Fraction(1, 930)]
        assert vals == ref_unroll(rec, [1], 5)
        assert outcome(unroll, rec, [1], 9) == outcome(ref_unroll, rec, [1], 9)
        assert outcome(unroll, rec, [1], 9)[2] == 7


class TestPeelMatchesReference:
    def test_random_planted_levels(self):
        # lower coefficients sharing planted factors (n+l), l in 1..order,
        # so that any subset of the levels can peel
        rng = random.Random(1704)
        kinds = set()
        for _ in range(300):
            order = rng.randint(0, 6)
            coeffs = []
            for _ in range(order):
                p = rand_poly(rng, 2) or up(rng.choice((-1, 2)))
                for level in rng.sample(range(1, order + 1), rng.randint(0, order)):
                    p = p * up(level, 1)
                coeffs.append(up() if coeffs and rng.random() < 0.1 else p)
            coeffs.append(rand_poly(rng, 2) or up(1))
            rec = Recurrence(tuple(coeffs), "taylor")
            if rng.random() < 0.3:
                rec = rec_counts(rec)
            polys = [p.int_coeffs() for p in rec.coeffs]
            quots, peeled = _peel(polys)
            assert (quots, peeled) == ref_peel(polys), rec
            kinds.add((any(peeled), all(peeled[1:])))
        # none, some and all levels peel
        assert {(False, False), (True, False), (True, True)} <= kinds


class TestRootsMatchReference:
    @pytest.mark.parametrize(
        "p",
        [
            up(0, 0, 0, 1) * up(-3, 1) ** 2,  # a triple root at 0
            up(-2, 0, 1) * up(5, 1) * up(1, 0, 1),  # irrational, negative, complex only
            up(-(10**9 + 7), 1) * up(-1, 1) ** 2 * up(3, 1),
            up(7),
            up(0, 1),
        ],
    )
    def test_planted_cases(self, p):
        assert nonneg_integer_roots(p) == ref_roots(p)

    def test_random_planted_roots(self):
        rng = random.Random(1703)
        for _ in range(200):
            p = up(rng.choice((-3, -1, 1, 2)))
            for _ in range(rng.randint(0, 3)):
                p = p * up(-rng.randint(0, 30), 1) ** rng.randint(1, 3)
            for _ in range(rng.choice((0, 0, 1, 2))):
                p = p * rng.choice((up(-2, 0, 1), up(rng.randint(1, 9), 1), up(1, 1, 1), rand_poly(rng, 2) or up(1)))
            assert nonneg_integer_roots(p) == ref_roots(p), p

    def test_zero_polynomial(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            nonneg_integer_roots(up())
